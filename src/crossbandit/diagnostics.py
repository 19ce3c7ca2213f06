"""Per-epoch concentration diagnostics for the epoch learner.

The harness knows the context distribution exactly, so the per-arm
observation probability of epoch e is computable in closed form,

    w_e(a) = sum_c nu(c) * s_{e,c}(N_in(a)) / 2,

and the concentration events the analysis relies on become runnable checks:

* importance event: |w_hat_e(a) - w_e(a)| <= 2 max(sqrt(w_e(a) iota / L), iota / L)
  for every arm;
* boundedness event: per-context sums of the pseudo-estimates stay below
  L + iota / gamma;
* denominator ratio beta_e(a) = (w_e(a) + gamma) / (w_hat_e(a) + 3 gamma / 2)
  stays in [1/2, 2] whenever the importance event holds and gamma >= 4 iota / L;
* the counterfactual tilt of the epoch-start distribution by the
  pseudo-estimates stays within a factor 2 of the epoch snapshot;
* the inverse-importance mass obeys the independence-number bound.

The pseudo-estimate of a loss replaces the empirical denominator by the exact
one: 2 * loss / (w_e(a) + gamma) on used feedback.

The run feeds the checks as it goes. With diagnostics on, ``run_replicate``
hands an :class:`EpochObserver` each epoch's start record and each finished
pair's record, whose loss block holds exactly the losses the learner used, so
no oracle is read a second time. The reports end up on ``Trace.diagnostics``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .graph import FeedbackGraph

if TYPE_CHECKING:
    from .harness import EpochRecord, Trace
    from .unknown import PairRecord, ParamSchedule

# Elements of one block of pseudo-estimate sums tilted together: at most
# 512 KB of float64, however many pairs an epoch has.
_BLOCK_BUDGET = 1 << 16


def graph_inverse_bound(weights: np.ndarray, graph: FeedbackGraph,
                        alpha: int | None = None, eps: float | None = None,
                        in_mass: np.ndarray | None = None) -> tuple[float, float]:
    """(lhs, rhs) of the inverse-neighborhood-mass bound.

    lhs = sum_a w(a) / w(N_in(a)) with self-loops putting each arm in its own
    in-neighborhood; rhs = 4 alpha log(4 K / (alpha eps)) where eps lower
    bounds the weights (defaults to their minimum). A caller that already
    holds the masses w(N_in(a)) passes them as ``in_mass``.
    """
    w = np.asarray(weights, dtype=np.float64)
    if alpha is None:
        alpha = graph.alpha
    if eps is None:
        eps = float(w.min())
    denom = graph.in_mass(w) if in_mass is None else in_mass
    lhs = float(np.sum(w / denom))
    rhs = 4.0 * alpha * math.log(4.0 * graph.num_arms / (alpha * eps))
    return lhs, rhs


@dataclass
class EpochDiag:
    """Lemma-style report for one estimating epoch (e >= 2)."""

    epoch: int
    w_exact: np.ndarray
    importance_ok: bool          # empirical importance concentrates
    bounded_ok: bool             # pseudo-estimate sums stay below L + iota/gamma
    all_ok_so_far: bool          # running conjunction over epochs
    beta_min: float
    beta_max: float
    tilde_max: float             # max over (c, a) of the epoch's pseudo-estimate sum
    ptilde_ratio_min: float      # extremes of p_tilde / snapshot over the epoch
    ptilde_ratio_max: float
    snapshot_rounds: int         # rounds that fell back to the snapshot branch
    graph_inv_lhs: float
    graph_inv_rhs: float


def _ratio_extremes(p_tilde: np.ndarray, snapshot: np.ndarray) -> tuple[float, float]:
    """Entrywise p_tilde / snapshot extremes; 0/0 counts as ratio 1.

    ``p_tilde`` may be a stack of tables; it is overwritten.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.divide(p_tilde, snapshot, out=p_tilde)
    ratios[np.isnan(ratios)] = 1.0  # 0/0; probabilities make no other NaN
    return float(ratios.min()), float(ratios.max())


class EpochObserver:
    """Builds one replicate's per-epoch reports while the replicate runs.

    Call ``start_epoch`` at every epoch's first round, ``add_pair`` for every
    finished pair, and ``finish`` after the last round. Each pair that used
    some arm adds its pseudo-estimates to the epoch's running sums and copies
    the new sums into a block buffer; a full block is tilted in one batched
    evaluation, which gives the same bits as one ``simplex.tilt`` per pair.
    Pairs that used no arm leave the sums, and so the tilt, unchanged.
    """

    def __init__(self, graph: FeedbackGraph, nu: np.ndarray, params: ParamSchedule,
                 p_branch: np.ndarray):
        self.graph = graph
        self.nu = nu
        self.params = params
        self._p_branch = p_branch  # the trace's branch column, filled as rounds run
        M, K = len(nu), graph.num_arms
        # The sums before the first pair and after each of the L / 2 pairs.
        states = params.epoch_len // 2 + 1
        self._block = np.empty((max(1, min(states, _BLOCK_BUDGET // (M * K))), M, K))
        self._filled = 0
        self._epoch: EpochRecord | None = None
        self._all_ok = True
        self.reports: list[EpochDiag] = []

    def start_epoch(self, er: EpochRecord) -> None:
        self._end_epoch()
        if er.epoch < 2:
            return
        p = self.params
        L, gamma, iota = p.epoch_len, p.gamma, p.iota
        self._epoch = er
        self._w_exact = (self.nu @ self.graph.in_mass_rows(er.s_cur)) / 2.0
        thresh = 2.0 * np.maximum(np.sqrt(self._w_exact * iota / L), iota / L)
        self._importance_ok = bool((np.abs(er.w_hat - self._w_exact) <= thresh).all())
        self._beta = (self._w_exact + gamma) / (er.w_hat + 1.5 * gamma)
        self._scale = 2.0 / (self._w_exact + gamma)
        with np.errstate(divide="ignore"):
            self._log_s_next = np.log(er.s_next)
        self._ratio_min, self._ratio_max = math.inf, -math.inf
        self._tilde = np.zeros_like(er.s_cur)
        self._push()

    def add_pair(self, pr: PairRecord) -> None:
        if self._epoch is None or not pr.used.any():
            return
        self._tilde[:, pr.used] += pr.losses * self._scale[pr.used]
        self._push()

    def finish(self) -> list[EpochDiag]:
        self._end_epoch()
        return self.reports

    def _push(self) -> None:
        self._block[self._filled] = self._tilde
        self._filled += 1
        if self._filled == len(self._block):
            self._flush()

    def _flush(self) -> None:
        """Tilt the buffered sums exactly as ``simplex.tilt`` does, with
        log(s_next) computed once per epoch, and fold in their extremes."""
        if not self._filled:
            return
        logw = self._block[:self._filled]
        logw *= self.params.eta
        np.subtract(self._log_s_next, logw, out=logw)
        logw -= logw.max(axis=-1, keepdims=True)
        np.exp(logw, out=logw)
        logw /= logw.sum(axis=-1, keepdims=True)
        lo, hi = _ratio_extremes(logw, self._epoch.s_cur)
        self._ratio_min, self._ratio_max = min(self._ratio_min, lo), max(self._ratio_max, hi)
        self._filled = 0

    def _end_epoch(self) -> None:
        er = self._epoch
        if er is None:
            return
        self._flush()
        p = self.params
        tilde_max = float(self._tilde.max())
        bounded_ok = bool(tilde_max <= p.epoch_len + p.iota / p.gamma)
        self._all_ok = self._all_ok and self._importance_ok and bounded_ok
        lhs, rhs = graph_inverse_bound(self.nu @ er.s_next, self.graph,
                                       eps=float((self._w_exact + p.gamma).min()))
        end_t = min(er.start_t + p.epoch_len, len(self._p_branch))
        self.reports.append(EpochDiag(
            epoch=er.epoch, w_exact=self._w_exact,
            importance_ok=self._importance_ok, bounded_ok=bounded_ok,
            all_ok_so_far=self._all_ok,
            beta_min=float(self._beta.min()), beta_max=float(self._beta.max()),
            tilde_max=tilde_max,
            ptilde_ratio_min=self._ratio_min, ptilde_ratio_max=self._ratio_max,
            snapshot_rounds=int((~self._p_branch[er.start_t:end_t]).sum()),
            graph_inv_lhs=lhs, graph_inv_rhs=rhs,
        ))
        self._epoch = None


def epoch_diagnostics(trace: Trace) -> list[EpochDiag]:
    """The per-epoch reports the run computed for a diagnostics-enabled trace."""
    if trace.diagnostics is None:
        raise ValueError("trace was not recorded with diagnostics enabled")
    return trace.diagnostics


def attach_epoch_diagnostics(trace: Trace) -> list[EpochDiag]:
    """Fold the run's reports into the trace's epoch records."""
    reports = epoch_diagnostics(trace)
    by_epoch = {r.epoch: r for r in reports}
    for er in trace.epochs:
        r = by_epoch.get(er.epoch)
        if r is None:
            continue
        er.diag = {
            "F": r.importance_ok,
            "L": r.bounded_ok,
            "Q": r.all_ok_so_far,
            "beta_min": r.beta_min,
            "beta_max": r.beta_max,
            "tilde_max": r.tilde_max,
            "ptilde_min": r.ptilde_ratio_min,
            "ptilde_max": r.ptilde_ratio_max,
            "snapshot_rounds": r.snapshot_rounds,
            "graph_inv_lhs": r.graph_inv_lhs,
            "graph_inv_rhs": r.graph_inv_rhs,
        }
    return reports
