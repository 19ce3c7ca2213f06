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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import FeedbackGraph
from .harness import (
    RunConfig,
    Trace,
    _replicate_seeds,
    build_loss_oracle,
    resolve_schedule,
)
from .simplex import tilt


def graph_inverse_bound(weights: np.ndarray, graph: FeedbackGraph,
                        alpha: int | None = None,
                        eps: float | None = None) -> tuple[float, float]:
    """(lhs, rhs) of the inverse-neighborhood-mass bound.

    lhs = sum_a w(a) / w(N_in(a)) with self-loops putting each arm in its own
    in-neighborhood; rhs = 4 alpha log(4 K / (alpha eps)) where eps lower
    bounds the weights (defaults to their minimum).
    """
    w = np.asarray(weights, dtype=np.float64)
    if alpha is None:
        alpha = graph.alpha
    if eps is None:
        eps = float(w.min())
    denom = graph.in_mass(w)
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
    """Entrywise p_tilde / snapshot extremes; 0/0 counts as ratio 1."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(snapshot > 0, p_tilde / snapshot,
                          np.where(p_tilde > 0, np.inf, 1.0))
    return float(ratios.min()), float(ratios.max())


def epoch_diagnostics(trace: Trace, config: RunConfig, graph: FeedbackGraph) -> list[EpochDiag]:
    """Evaluate the per-epoch checks on a diagnostics-enabled trace."""
    if trace.used_mask is None:
        raise ValueError("trace was not recorded with diagnostics enabled")
    params = resolve_schedule(config, graph.alpha)
    L, gamma, eta, iota = params.epoch_len, params.gamma, params.eta, params.iota
    nu = config.context_distribution()
    K = graph.num_arms
    oracle_seed, _ = _replicate_seeds(config.seed, trace.replicate)
    oracle = build_loss_oracle(config.oracle, trace.horizon, trace.num_contexts,
                               K, oracle_seed)
    any_used = trace.used_mask.any(axis=1)

    reports: list[EpochDiag] = []
    all_ok = True
    for er in trace.epochs:
        if er.epoch < 2 or er.s_cur is None:
            continue
        s_cur_in = graph.in_mass_rows(er.s_cur)
        w_exact = (nu @ s_cur_in) / 2.0
        dev = np.abs(er.w_hat - w_exact)
        thresh = 2.0 * np.maximum(np.sqrt(w_exact * iota / L), iota / L)
        importance_ok = bool((dev <= thresh).all())

        beta = (w_exact + gamma) / (er.w_hat + 1.5 * gamma)

        tilde_sums = np.zeros((trace.num_contexts, K))
        scale = 2.0 / (w_exact + gamma)
        ratio_min, ratio_max = math.inf, -math.inf
        end_t = min(er.start_t + L, trace.horizon)
        for t in range(er.start_t, end_t):
            if (t - er.start_t) % 2 == 0:
                lo, hi = _ratio_extremes(tilt(er.s_next, tilde_sums, eta), er.s_cur)
                ratio_min, ratio_max = min(ratio_min, lo), max(ratio_max, hi)
            if any_used[t]:
                used = trace.used_mask[t]
                tilde_sums[:, used] += oracle.loss_slice(t)[:, used] * scale[used]
        lo, hi = _ratio_extremes(tilt(er.s_next, tilde_sums, eta), er.s_cur)
        ratio_min, ratio_max = min(ratio_min, lo), max(ratio_max, hi)

        tilde_max = float(tilde_sums.max())
        bounded_ok = bool(tilde_max <= L + iota / gamma)
        all_ok = all_ok and importance_ok and bounded_ok

        p_bar = nu @ er.s_next
        lhs, rhs = graph_inverse_bound(p_bar, graph,
                                       eps=float((w_exact + gamma).min()))
        snapshot_rounds = int((~trace.p_branch[er.start_t:end_t]).sum())

        rep = EpochDiag(
            epoch=er.epoch, w_exact=w_exact,
            importance_ok=importance_ok, bounded_ok=bounded_ok,
            all_ok_so_far=all_ok,
            beta_min=float(beta.min()), beta_max=float(beta.max()),
            tilde_max=tilde_max,
            ptilde_ratio_min=ratio_min, ptilde_ratio_max=ratio_max,
            snapshot_rounds=snapshot_rounds,
            graph_inv_lhs=lhs, graph_inv_rhs=rhs,
        )
        reports.append(rep)
    return reports


def attach_epoch_diagnostics(trace: Trace, config: RunConfig,
                             graph: FeedbackGraph) -> list[EpochDiag]:
    """Run the checks and fold the outcomes into the trace's epoch records."""
    reports = epoch_diagnostics(trace, config, graph)
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
