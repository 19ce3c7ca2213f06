"""Reference learners that isolate what cross-learning buys.

Exponential weights with graph feedback and implicit exploration, run either
as one independent state per context (the no-cross-learning world) or as a
single context-agnostic state, plus uniform play. The per-context variant
deliberately discards every reveal row except the realized context's.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .environment import Play, Reveal
from .graph import FeedbackGraph
from .simplex import exp_weights, sample_arm


def baseline_rates(num_arms: int, horizon: int, alpha: int,
                   num_states: int = 1) -> tuple[float, float]:
    """(eta, gamma_ix) defaults. The learning rate is horizon-aware per
    state: each of S independent states sees about T / S rounds."""
    eta = math.sqrt(math.log(num_arms) * num_states / (alpha * horizon))
    gamma_ix = math.sqrt(math.log(num_arms) / (alpha * horizon))
    return eta, gamma_ix


class GraphExp3Baseline:
    """Exponential weights with the standard graph importance p(N_in(a)) + gamma,
    batched over ``replicates`` independent replicates (see
    ``environment.Play``).

    ``per_context=True`` keeps one state per context and updates only the
    realized context's state from its own reveal row; ``per_context=False``
    pools every round into a single state (still using only the realized
    context's loss row). With one context the two coincide.

    Each replicate's state keeps its playing row, ``exp_weights`` of its
    cumulative row; ``update`` rebuilds only the rows of the states it
    changed, one per replicate. ``act`` returns copies of the rows, so a
    returned ``q`` stays as it was.
    """

    def __init__(self, graph: FeedbackGraph, num_contexts: int, eta: float,
                 gamma_ix: float, per_context: bool, replicates: int = 1):
        if not graph.has_all_self_loops():
            raise ValueError("baseline requires a self-loop at every arm")
        if not eta > 0 or not gamma_ix >= 0:
            raise ValueError(f"need eta > 0 and gamma_ix >= 0, got {eta} and {gamma_ix}")
        self.graph = graph
        self.num_contexts = int(num_contexts)
        self.num_arms = graph.num_arms
        self.eta = float(eta)
        self.gamma_ix = float(gamma_ix)
        self.per_context = per_context
        self.num_states = self.num_contexts if per_context else 1
        self.cum = np.zeros((replicates, self.num_states, self.num_arms))
        self._rows = exp_weights(self.cum, self.eta)
        self._replicates = np.arange(replicates)
        self.t = 0
        self._acted: tuple | None = None  # contexts, states and rows act played

    def distributions(self) -> np.ndarray:
        """Every replicate's playing rows, shape (R, states, K); a copy."""
        return self._rows.copy()

    def act(self, t: int, contexts: np.ndarray, u: np.ndarray) -> Play:
        if t != self.t:
            raise ValueError(f"act called for round {t}, expected {self.t}")
        states = contexts if self.per_context else np.zeros_like(contexts)
        q = self._rows[self._replicates, states]
        self._acted = contexts, states, q
        return Play(sample_arm(q, u), q, True)

    def update(self, revs: Sequence[Reveal]) -> None:
        if self._acted is None:
            raise RuntimeError("update without a matching act")
        contexts, states, q = self._acted
        arms = [rev.arms for rev in revs]
        # One product per replicate with the row it played: rows of a larger
        # product would not keep each replicate's bits.
        p_in = np.concatenate([self.graph.in_mask[a] @ q_r for a, q_r in zip(arms, q)])
        # Only the realized context's reveal row is consumed: these learners
        # model the world without cross-learning.
        losses = np.concatenate([rev.losses[c] for rev, c in zip(revs, contexts.tolist())])
        reps = np.repeat(self._replicates, [len(a) for a in arms])
        self.cum[reps, states[reps], np.concatenate(arms)] += losses / (p_in + self.gamma_ix)
        self._rows[self._replicates, states] = exp_weights(
            self.cum[self._replicates, states], self.eta)
        self._acted = None
        self.t += 1


class UniformBaseline:
    """Plays every arm with probability 1/K, forever, in each of
    ``replicates`` replicates."""

    def __init__(self, graph: FeedbackGraph, num_contexts: int, replicates: int = 1):
        self.num_arms = graph.num_arms
        self.num_contexts = int(num_contexts)
        self.t = 0
        self._p = np.full(self.num_arms, 1.0 / self.num_arms)
        self._q = np.broadcast_to(self._p, (replicates, self.num_arms))

    def act(self, t: int, contexts: np.ndarray, u: np.ndarray) -> Play:
        if t != self.t:
            raise ValueError(f"act called for round {t}, expected {self.t}")
        return Play(sample_arm(self._p, u), self._q, True)

    def update(self, revs: Sequence[Reveal]) -> None:
        self.t += 1

    def distributions(self) -> np.ndarray:
        return self._q[:, None, :]
