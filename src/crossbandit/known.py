"""Per-context exponential weights with exact cross-learning importances.

When the context distribution is known, the probability that arm a's loss is
revealed this round is the context-average in-neighborhood mass of the
per-context playing distributions,

    w(a) = sum_c nu(c) * p_c(N_in(a)),

which is the same for every context thanks to cross-learning. Revealed losses
are importance-weighted by w(a) and accumulated for every context at once.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .diagnostics import graph_inverse_bound
from .environment import Play, Reveal
from .graph import FeedbackGraph
from .simplex import check_simplex, exp_weights, sample_arm


def default_learning_rate(num_arms: int, horizon: int, alpha: int) -> float:
    """sqrt(log K / (alpha * T))."""
    if horizon < 1:
        raise ValueError("horizon must be positive")
    return math.sqrt(math.log(num_arms) / (alpha * horizon))


class InvariantViolation(RuntimeError):
    """An internal run invariant failed; carries the offending round index."""


class KnownDistLearner:
    """Exponential-weights learner for a known context distribution, batched
    over ``replicates`` independent replicates (see ``environment.Play``).

    Keeps one cumulative estimated-loss row per replicate and context. The
    (R, M, K) table of playing distributions is built at most once per state
    of ``cum``: ``act`` reads its rows, ``update`` weighs the reveals with
    it, and full traces hash it. The table is read-only and only ever
    rebound. Every product over the replicate axis is a stacked
    ``np.matmul``, which gives each replicate the bits of its own product.
    Single-threaded per instance.
    """

    # Bound check cadence for the inverse-importance diagnostic.
    CHECK_EVERY = 100

    def __init__(self, graph: FeedbackGraph, nu: np.ndarray, eta: float,
                 replicates: int = 1):
        if not graph.has_all_self_loops():
            raise ValueError("learner requires a self-loop at every arm")
        if not (math.isfinite(eta) and eta > 0):
            raise ValueError(f"eta must be finite and positive, got {eta}")
        self.graph = graph
        self.nu = check_simplex(nu)
        self.eta = float(eta)
        self.num_contexts = len(self.nu)
        self.num_arms = graph.num_arms
        self.cum = np.zeros((replicates, self.num_contexts, self.num_arms))
        self._replicates = np.arange(replicates)
        self.t = 0  # rounds completed
        self._dists: np.ndarray | None = None  # exp_weights(cum), built on demand

    def distributions(self) -> np.ndarray:
        """Current per-context playing distributions, shape (R, M, K), read-only."""
        if self._dists is None:
            self._dists = exp_weights(self.cum, self.eta)
            self._dists.flags.writeable = False
        return self._dists

    def importance(self) -> np.ndarray:
        """Observation probability w(a) of every replicate and arm under the
        current state, shape (R, K)."""
        return self._masses()[1]

    def _masses(self) -> tuple[np.ndarray, np.ndarray]:
        """The context-average distributions and their in-neighborhood
        masses, both (R, K)."""
        p_bar = self.nu @ self.distributions()
        return p_bar, np.matmul(self.graph.in_mask, p_bar[..., None])[..., 0]

    def act(self, t: int, contexts: np.ndarray, u: np.ndarray) -> Play:
        if t != self.t:
            raise ValueError(f"act called for round {t}, expected {self.t}")
        # a row of exp_weights(cum) has the bits of exp_weights(cum[r, c])
        q = self.distributions()[self._replicates, contexts]
        q.flags.writeable = False  # a copy of the rows, as read-only as the table
        return Play(sample_arm(q, u), q, True)  # no rejection fallback here

    def update(self, revs: Sequence[Reveal]) -> None:
        """Fold one reveal per replicate into all its contexts' cumulative
        estimates.

        The importance is taken from the pre-update distributions, matching
        the conditional-expectation argument that makes the estimator
        unbiased.
        """
        p_bar, w = self._masses()
        arms = [rev.arms for rev in revs]
        cols = np.concatenate(arms)
        reps = np.repeat(self._replicates, [len(a) for a in arms])
        w_cols = w[reps, cols]
        if not w_cols.min() > 0:
            raise InvariantViolation(
                f"replicate {reps[~(w_cols > 0)][0]} of the batch, round {self.t}: zero "
                "importance on a revealed arm (impossible with self-loops)"
            )
        losses = np.concatenate([rev.losses for rev in revs], axis=1)
        self.cum[reps, :, cols] += (losses / w_cols).T  # one cell per (replicate, arm, context)
        self._dists = None
        self.t += 1
        if self.t % self.CHECK_EVERY == 0:
            self._check_inverse_bound(p_bar, w)

    def _check_inverse_bound(self, p_bar: np.ndarray, w: np.ndarray) -> None:
        """Inverse-importance mass stays within the independence-number bound
        in every replicate; ``w`` is the in-neighborhood mass of the
        context-average distributions ``p_bar``, both (R, K)."""
        for r in range(len(w)):
            lhs, rhs = graph_inverse_bound(p_bar[r], self.graph,
                                           eps=float(w[r].min()), in_mass=w[r])
            if lhs > rhs:
                raise InvariantViolation(
                    f"replicate {r} of the batch, round {self.t}: inverse-importance "
                    f"sum {lhs:.4f} exceeds bound {rhs:.4f}"
                )
