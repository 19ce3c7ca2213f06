"""Reference learners that isolate what cross-learning buys.

Exponential weights with graph feedback and implicit exploration, run either
as one independent state per context (the no-cross-learning world) or as a
single context-agnostic state, plus uniform play. The per-context variant
deliberately discards every reveal row except the realized context's.
"""

from __future__ import annotations

import math

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
    """Exponential weights with the standard graph importance p(N_in(a)) + gamma.

    ``per_context=True`` keeps one state per context and updates only the
    realized context's state from its own reveal row; ``per_context=False``
    pools every round into a single state (still using only the realized
    context's loss row). With one context the two coincide.

    Each state keeps its playing row, ``exp_weights`` of its cumulative row;
    ``update`` rebuilds only the row of the state it changed. Rows are
    rebound, never written, so a returned ``q`` or table stays as it was.
    """

    def __init__(self, graph: FeedbackGraph, num_contexts: int, eta: float,
                 gamma_ix: float, per_context: bool):
        if not graph.has_all_self_loops():
            raise ValueError("baseline requires a self-loop at every arm")
        if eta <= 0 or gamma_ix < 0:
            raise ValueError("need eta > 0 and gamma_ix >= 0")
        self.graph = graph
        self.num_contexts = int(num_contexts)
        self.num_arms = graph.num_arms
        self.eta = float(eta)
        self.gamma_ix = float(gamma_ix)
        self.per_context = per_context
        self.num_states = self.num_contexts if per_context else 1
        self.cum = np.zeros((self.num_states, self.num_arms))
        self._rows = list(exp_weights(self.cum, self.eta))
        self.t = 0
        self._acted_context: int | None = None

    def _state_of(self, context: int) -> int:
        return context if self.per_context else 0

    def distributions(self) -> np.ndarray:
        return np.stack(self._rows)

    def act(self, t: int, context: int, rng: np.random.Generator) -> Play:
        if t != self.t:
            raise ValueError(f"act called for round {t}, expected {self.t}")
        p = self._rows[self._state_of(context)]
        self._acted_context = context
        return Play(sample_arm(p, rng), p, True)

    def update(self, rev: Reveal, rng: np.random.Generator | None = None) -> None:
        if self._acted_context is None:
            raise RuntimeError("update without a matching act")
        context = self._acted_context
        s = self._state_of(context)
        arms = rev.arms
        p_in = self.graph.in_mask[arms] @ self._rows[s]  # the row act played
        # Only the realized context's reveal row is consumed: these learners
        # model the world without cross-learning.
        self.cum[s, arms] += rev.losses[context] / (p_in + self.gamma_ix)
        self._rows[s] = exp_weights(self.cum[s], self.eta)
        self._acted_context = None
        self.t += 1


class UniformBaseline:
    """Plays every arm with probability 1/K, forever."""

    def __init__(self, graph: FeedbackGraph, num_contexts: int):
        self.num_arms = graph.num_arms
        self.num_contexts = int(num_contexts)
        self.t = 0
        self._p = np.full(self.num_arms, 1.0 / self.num_arms)

    def act(self, t: int, context: int, rng: np.random.Generator) -> Play:
        if t != self.t:
            raise ValueError(f"act called for round {t}, expected {self.t}")
        return Play(sample_arm(self._p, rng), self._p, True)

    def update(self, rev: Reveal, rng: np.random.Generator | None = None) -> None:
        self.t += 1

    def distributions(self) -> np.ndarray:
        return self._p[None, :]
