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

With diagnostics on, ``run_replicate`` keeps an epoch's finished pair
records, whose loss blocks hold exactly the losses the learner used, so no
oracle is read a second time. As the epoch ends it makes one
:func:`attach_epoch_diagnostics` call, which computes the whole report from
them and sets it on the epoch's record, as ``EpochRecord.diag``. Nothing is
carried from one epoch to the next but the previous report.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .graph import FeedbackGraph

if TYPE_CHECKING:
    from .harness import EpochRecord, RunPlan
    from .unknown import PairRecord

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


def attach_epoch_diagnostics(er: EpochRecord, s_cur_in: np.ndarray,
                             pairs: Sequence[PairRecord], snapshot_rounds: int,
                             prev: EpochDiag | None, plan: RunPlan) -> None:
    """Compute the report of estimating epoch ``er`` and set it as ``er.diag``.

    ``s_cur_in`` holds the in-neighborhood masses of ``er.s_cur``'s rows,
    ``pairs`` the epoch's finished pairs in round order, ``snapshot_rounds``
    the epoch's rounds that fell back to the snapshot, and ``prev`` the
    previous epoch's report (None for epoch 2).

    The tilt is evaluated on the pseudo-estimate sums before the first pair
    and after each pair that used some arm; a pair that used no arm leaves
    the sums, and so the tilt, unchanged. These states are built a block at a
    time as a running sum over the pairs' increments, which adds them in pair
    order with the bits of one ``+=`` per pair, and each block is tilted in one
    batched evaluation with the bits of one ``simplex.tilt`` per state.
    """
    p, nu = plan.schedule, plan.nu
    L, gamma, iota = p.epoch_len, p.gamma, p.iota
    w_exact = (nu @ s_cur_in) / 2.0
    thresh = 2.0 * np.maximum(np.sqrt(w_exact * iota / L), iota / L)
    importance_ok = bool((np.abs(er.w_hat - w_exact) <= thresh).all())
    beta = (w_exact + gamma) / (er.w_hat + 1.5 * gamma)
    scale = 2.0 / (w_exact + gamma)
    with np.errstate(divide="ignore"):
        log_s_next = np.log(er.s_next)

    M, K = er.s_cur.shape
    used = [pr for pr in pairs if pr.used.any()]
    per_block = max(1, min(L // 2 + 1, _BLOCK_BUDGET // (M * K)))
    tilde = np.zeros((M, K))
    ratio_min, ratio_max = math.inf, -math.inf
    # State 0 is the zero sums, state j >= 1 the sums after used[j - 1].
    for lo in range(0, len(used) + 1, per_block):
        hi = min(lo + per_block, len(used) + 1)
        sums = np.zeros((hi - lo, M, K))
        block = used[max(lo, 1) - 1:hi - 1]
        if block:
            idx, arms = np.nonzero([pr.used for pr in block])
            losses = np.concatenate([pr.losses for pr in block], axis=1)
            sums[idx + max(lo, 1) - lo, :, arms] = (losses * scale[arms]).T
        sums[0] += tilde  # the last state of the block before
        for j in range(1, len(sums)):  # np.cumsum(axis=0) is ~10x slower at large M * K
            sums[j] += sums[j - 1]
        tilde = sums[-1].copy()
        # simplex.tilt of every state, with log(s_next) taken once per epoch
        sums *= p.eta
        np.subtract(log_s_next, sums, out=sums)
        sums -= sums.max(axis=-1, keepdims=True)
        np.exp(sums, out=sums)
        sums /= sums.sum(axis=-1, keepdims=True)
        block_min, block_max = _ratio_extremes(sums, er.s_cur)
        ratio_min, ratio_max = min(ratio_min, block_min), max(ratio_max, block_max)

    tilde_max = float(tilde.max())
    bounded_ok = bool(tilde_max <= L + iota / gamma)
    lhs, rhs = graph_inverse_bound(nu @ er.s_next, plan.graph,
                                   eps=float((w_exact + gamma).min()))
    er.diag = EpochDiag(
        epoch=er.epoch, w_exact=w_exact,
        importance_ok=importance_ok, bounded_ok=bounded_ok,
        all_ok_so_far=(prev is None or prev.all_ok_so_far) and importance_ok and bounded_ok,
        beta_min=float(beta.min()), beta_max=float(beta.max()),
        tilde_max=tilde_max, ptilde_ratio_min=ratio_min, ptilde_ratio_max=ratio_max,
        snapshot_rounds=snapshot_rounds, graph_inv_lhs=lhs, graph_inv_rhs=rhs,
    )
