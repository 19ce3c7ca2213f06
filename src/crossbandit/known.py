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

import numpy as np

from .diagnostics import graph_inverse_bound
from .environment import Play, Replayable, Reveal
from .graph import FeedbackGraph
from .simplex import check_simplex, exp_weights, sample_arm


def default_learning_rate(num_arms: int, horizon: int, alpha: int, scale: float = 1.0) -> float:
    """sqrt(log K / (alpha * T)) with a configurable constant."""
    if horizon < 1:
        raise ValueError("horizon must be positive")
    return scale * math.sqrt(math.log(num_arms) / (alpha * horizon))


class InvariantViolation(RuntimeError):
    """An internal run invariant failed; carries the offending round index."""


class KnownDistLearner(Replayable):
    """Exponential-weights learner for a known context distribution.

    Keeps one cumulative estimated-loss row per context. The (M, K) table of
    playing distributions is built at most once per state of ``cum``: ``act``
    reads its row, ``update`` weighs the reveal with it, and full traces hash
    it. The table is read-only and only ever rebound, so states share it.
    Single-threaded per instance; independent instances may run in parallel.
    """

    # Bound check cadence for the inverse-importance diagnostic.
    CHECK_EVERY = 100
    _COPIED = ("cum",)

    def __init__(self, graph: FeedbackGraph, nu: np.ndarray, eta: float,
                 check_inverse_bound: bool = True):
        if not graph.has_all_self_loops():
            raise ValueError("learner requires a self-loop at every arm")
        if not graph.strongly_observable:
            raise ValueError("learner requires a strongly observable graph")
        if eta <= 0:
            raise ValueError(f"eta must be positive, got {eta}")
        self.graph = graph
        self.nu = check_simplex(nu)
        self.eta = float(eta)
        self.num_contexts = len(self.nu)
        self.num_arms = graph.num_arms
        self.cum = np.zeros((self.num_contexts, self.num_arms))
        self.t = 0  # rounds completed
        self.check_inverse_bound = check_inverse_bound
        self._dists: np.ndarray | None = None  # exp_weights(cum), built on demand

    def distributions(self) -> np.ndarray:
        """Current per-context playing distributions, shape (M, K), read-only."""
        if self._dists is None:
            self._dists = exp_weights(self.cum, self.eta)
            self._dists.flags.writeable = False
        return self._dists

    def importance(self) -> np.ndarray:
        """Observation probability w(a) for every arm under the current state."""
        p_bar = self.nu @ self.distributions()
        return self.graph.in_mask @ p_bar

    def act(self, t: int, context: int, rng: np.random.Generator) -> Play:
        if t != self.t:
            raise ValueError(f"act called for round {t}, expected {self.t}")
        # a row of exp_weights(cum) has the bits of exp_weights(cum[context])
        p = self.distributions()[context]
        return Play(sample_arm(p, rng), p, True)  # no rejection fallback here

    def update(self, rev: Reveal, rng: np.random.Generator | None = None) -> None:
        """Fold one reveal into every context's cumulative estimates.

        The importance is taken from the pre-update distributions, matching
        the conditional-expectation argument that makes the estimator
        unbiased.
        """
        dists = self.distributions()
        w = self.importance()
        arms = rev.arms
        if (w[arms] <= 0).any():
            raise InvariantViolation(
                f"round {self.t}: zero importance on a revealed arm "
                "(impossible with self-loops)"
            )
        self.cum[:, arms] += rev.losses / w[arms]
        self._dists = None
        self.t += 1
        if self.check_inverse_bound and self.t % self.CHECK_EVERY == 0:
            self._check_inverse_bound(dists, w)

    def _check_inverse_bound(self, dists: np.ndarray, w: np.ndarray) -> None:
        """Inverse-importance mass stays within the independence-number bound;
        ``w`` is the in-neighborhood mass of the context-average of ``dists``."""
        lhs, rhs = graph_inverse_bound(self.nu @ dists, self.graph,
                                       eps=float(w.min()), in_mass=w)
        if lhs > rhs:
            raise InvariantViolation(
                f"round {self.t}: inverse-importance sum {lhs:.4f} exceeds "
                f"bound {rhs:.4f}"
            )
