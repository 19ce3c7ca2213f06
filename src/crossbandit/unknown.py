"""Epoch-based learner for unknown context distributions.

The horizon splits into equal epochs of even length L. Within an epoch the
observation probability is pinned to a two-epochs-old snapshot of the FTRL
distribution: rounds are consumed in consecutive pairs that share one playing
distribution, a uniformly random member of each pair feeds the importance
estimate for the next epoch, and the other feeds the loss estimates. A
per-arm rejection test (play the snapshot whenever some arm's FTRL mass fell
below half its snapshot mass) plus Bernoulli thinning make the per-pair
probability that arm a's loss is used exactly

    w_e(a) = E_c[ s_{e,c}(N_in(a)) / 2 ],

which the empirical importance estimates without knowing the context
distribution. Loss estimates carry an implicit-exploration term gamma in the
denominator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .environment import Play, Replayable, Reveal
from .graph import FeedbackGraph
from .simplex import exp_weights, sample_arm


@dataclass(frozen=True)
class ParamSchedule:
    """Learner parameters: epoch length, implicit exploration, learning rate.

    ``iota`` is the confidence parameter the other values were derived from;
    ``tuned_scale`` records the multiplier applied to gamma (1.0 means the
    untouched schedule).
    """

    iota: float
    epoch_len: int
    gamma: float
    eta: float
    tuned_scale: float = 1.0

    def __post_init__(self):
        if self.epoch_len < 2 or self.epoch_len % 2 != 0:
            raise ValueError(f"epoch_len must be an even integer >= 2, got {self.epoch_len}")
        if not (self.gamma > 0 and self.eta > 0 and self.iota > 0):  # NaN fails too
            raise ValueError("iota, gamma and eta must be positive")


def even_divisors(n: int) -> list[int]:
    """Even divisors d of n with n // d >= 2, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            if d % 2 == 0 and n // d >= 2:
                out.append(d)
            q = n // d
            if q != d and q % 2 == 0 and n // q >= 2:
                out.append(q)
        d += 1
    return sorted(out)


def nearest_compatible_horizon(T: int, epoch_len: int) -> int:
    """Closest horizon to T that is a whole number (>= 2) of epochs."""
    mult = max(2, round(T / epoch_len))
    return mult * epoch_len


def schedule_params(K: int, T: int, alpha: int, tuned_scale: float = 1.0,
                    fit_horizon: bool = False) -> ParamSchedule:
    """Parameter schedule from the horizon-dependent formulas.

    iota = 2 log(8 K T^2); L = sqrt(iota * alpha * T / log K) rounded to the
    nearest even integer in [2, T/2]; gamma = tuned_scale * 16 iota / L;
    eta = gamma / (2 (2 L gamma + iota)).

    With ``fit_horizon`` the epoch length snaps to the even divisor of T
    closest to the formula value, so T splits into whole epochs; gamma and
    eta are recomputed from the snapped length.
    """
    if K < 2:
        raise ValueError(f"need K >= 2 arms, got {K}")
    if T < 4:
        raise ValueError(f"need T >= 4 rounds, got {T}")
    if alpha < 1:
        raise ValueError(f"need alpha >= 1, got {alpha}")
    if tuned_scale <= 0:
        raise ValueError(f"tuned_scale must be positive, got {tuned_scale}")

    iota = 2.0 * math.log(8.0 * K * T * T)
    raw = math.sqrt(iota * alpha * T / math.log(K))
    L = int(2 * round(raw / 2.0))
    max_even = (T // 2) - ((T // 2) % 2)
    L = max(2, min(L, max(2, max_even)))
    if fit_horizon:
        candidates = even_divisors(T)
        if not candidates:
            raise ValueError(
                f"T={T} has no even divisor with at least two epochs; "
                f"nearest compatible horizon for L={L} is {nearest_compatible_horizon(T, L)}"
            )
        L = min(candidates, key=lambda d: (abs(d - raw), d))
    gamma = tuned_scale * 16.0 * iota / L
    eta = gamma / (2.0 * (2.0 * L * gamma + iota))
    return ParamSchedule(iota=iota, epoch_len=L, gamma=gamma, eta=eta,
                         tuned_scale=tuned_scale)


def tuned_schedule(K: int, T: int, alpha: int, eta_scale: float = 0.5,
                   gamma_scale: float = 2.0) -> ParamSchedule:
    """Schedule with the same asymptotic shapes but constants sized for
    simulation-scale horizons.

    L ~ sqrt(alpha T) snapped to an even divisor of T, eta = eta_scale *
    sqrt(log K / (alpha T)), gamma = gamma_scale / L. The horizon-formula
    schedule's constants cap the learning rate at 1/(4L), which keeps the
    policy near uniform at small T; scaling experiments run this variant.
    """
    if K < 2 or T < 4 or alpha < 1:
        raise ValueError("need K >= 2, T >= 4, alpha >= 1")
    raw = math.sqrt(alpha * T)
    candidates = even_divisors(T)
    if not candidates:
        raise ValueError(f"T={T} has no even divisor with at least two epochs")
    L = min(candidates, key=lambda d: (abs(d - raw), d))
    return ParamSchedule(
        iota=2.0 * math.log(8.0 * K * T * T),
        epoch_len=L,
        gamma=gamma_scale / L,
        eta=eta_scale * math.sqrt(math.log(K) / (alpha * T)),
    )


def rejection_distribution(p_row: np.ndarray, s_row: np.ndarray) -> tuple[np.ndarray, bool]:
    """Playing distribution for one round: the FTRL row if no arm's mass fell
    below half its snapshot mass, else the snapshot row.

    The per-arm test implies the corresponding in-neighborhood inequality for
    every arm, which keeps all acceptance probabilities at most 1.
    """
    use_p = bool((p_row >= 0.5 * s_row).all())
    return (p_row if use_p else s_row), use_p


def accept_probability(s_in: np.ndarray, q_in: np.ndarray) -> np.ndarray:
    """Per-arm thinning probabilities s(N_in(a)) / (2 q(N_in(a))), from the
    in-neighborhood masses of the snapshot row and of the played row.

    Exactly 1/2 on the snapshot branch; at most 1 on the FTRL branch, where
    the rejection test kept q(N_in(a)) >= s(N_in(a)) / 2 for every arm.
    """
    return s_in / (2.0 * q_in)


@dataclass
class PairRecord:
    """Outcome of one finished round pair, as ``EpochLearner.update`` returns it.

    ``losses`` holds the loss round's losses of the used arms for every
    context, one column per used arm in ascending arm order (the order of
    ``np.flatnonzero(used)``); it has no columns when no arm was used.
    """

    t_first: int          # round index of the first member (0-based)
    loss_offset: int      # 0 or 1: which member fed the loss estimates
    used: np.ndarray      # per-arm flags: revealed by the loss round AND accepted
    losses: np.ndarray    # (M, n_used) loss block of the used arms


class EpochLearner(Replayable):
    """Algorithm state for the unknown-distribution setting.

    Snapshots are stored as frozen probability tables, never recomputed from
    mutable state, so a fixed snapshot can never drift; ``s_cur_in`` holds the
    running snapshot's in-neighborhood masses, also read-only. A pair builds
    only the FTRL rows it plays, one per round: ``cum`` does not change
    between a pair's two rounds, and a row of ``exp_weights(cum)`` has the
    bits of ``exp_weights(cum[c])``. The full (M, K) table is built only when
    ``distributions()`` asks for it, or as the next snapshot at an epoch end,
    and then shared with ``act`` until the pair finishes. Single-threaded per
    instance.
    """

    # Mutated in place; every other field is rebound (``end_epoch`` makes
    # ``w_hat`` the old ``w_hat_acc`` object and starts a fresh accumulator).
    _COPIED = ("cum", "w_hat_acc", "_pending")

    def __init__(self, graph: FeedbackGraph, num_contexts: int, params: ParamSchedule):
        if not graph.has_all_self_loops():
            raise ValueError("learner requires a self-loop at every arm")
        if not graph.strongly_observable:
            raise ValueError("learner requires a strongly observable graph")
        if num_contexts < 1:
            raise ValueError("need at least one context")
        self.graph = graph
        self.params = params
        self.num_contexts = int(num_contexts)
        self.num_arms = graph.num_arms

        M, K = self.num_contexts, self.num_arms
        uniform = np.full((M, K), 1.0 / K)
        uniform.flags.writeable = False  # snapshots are read-only and only rebound
        self.cum = np.zeros((M, K))
        self.s_cur = uniform             # snapshot of the running epoch
        self.s_next = uniform            # snapshot already fixed for the next epoch
        self.s_cur_in = self._in_mass(self.s_cur)
        self._s_next_in = self._in_mass(self.s_next)
        self.w_hat = np.zeros(K)         # importance estimate applied this epoch
        self.w_hat_acc = np.zeros(K)     # accumulator for the next epoch's estimate

        self.epoch = 1
        self.pos = 0                     # rounds consumed within the epoch
        self.t = 0                       # rounds completed overall
        self._dists: np.ndarray | None = None  # exp_weights(cum), built on demand
        # (context, arm, ftrl, played row, reveal) of the pair's rounds so far
        self._pending: list[tuple[int, int, bool, np.ndarray, Reveal | None]] = []

    @property
    def epoch_len(self) -> int:
        return self.params.epoch_len

    def distributions(self) -> np.ndarray:
        """The policy table rounds are currently played from, read-only: the
        running snapshot in epoch 1, afterwards the FTRL table
        ``exp_weights(cum)``, built on first request or as the next snapshot
        at an epoch end, and kept until the pair finishes."""
        if self.epoch == 1:
            return self.s_cur
        if self._dists is None:
            self._dists = exp_weights(self.cum, self.params.eta)
            self._dists.flags.writeable = False
        return self._dists

    def act(self, t: int, context: int, rng: np.random.Generator) -> Play:
        if t != self.t:
            raise ValueError(f"act called for round {t}, expected {self.t}")
        if not 0 <= context < self.num_contexts:
            raise ValueError(f"context {context} out of range")
        if self.epoch == 1:
            q = self.s_cur[context]
            branch_p = False
        else:
            p = (self._dists[context] if self._dists is not None
                 else exp_weights(self.cum[context], self.params.eta))
            q, branch_p = rejection_distribution(p, self.s_cur[context])
        arm = sample_arm(q, rng)
        self._pending.append((context, arm, branch_p, q, None))
        return Play(arm, q, branch_p)

    def update(self, rev: Reveal, rng: np.random.Generator) -> PairRecord | None:
        if not self._pending or self._pending[-1][4] is not None:
            raise RuntimeError("update without a matching act")
        context, arm, branch_p, q, _ = self._pending[-1]
        if rev.played_arm != arm:
            raise ValueError("reveal does not match the played arm")
        self._pending[-1] = (context, arm, branch_p, q, rev)

        pair = None
        if self.epoch == 1:
            # Importance accumulation for epoch 2 from the already-fixed
            # uniform snapshot; no loss estimates in the first epoch.
            L = self.epoch_len
            self.w_hat_acc += self._s_next_in[context] / (2.0 * L)
            self._pending.clear()
        elif len(self._pending) == 2:
            pair = self._finalize_pair(rng)

        self.pos += 1
        self.t += 1
        if self.pos == self.epoch_len:
            self.end_epoch()
        return pair

    def _finalize_pair(self, rng: np.random.Generator) -> PairRecord:
        first, second = self._pending
        self._pending.clear()
        self._dists = None  # the pair's table, if any, goes with it
        L, gamma = self.epoch_len, self.params.gamma

        # Uniform pairing: one member estimates frequency, the other losses.
        first_is_freq = rng.random() < 0.5
        freq, loss = (first, second) if first_is_freq else (second, first)
        loss_offset = 1 if first_is_freq else 0
        cl, al, bl, ql, revl = loss

        self.w_hat_acc += self._s_next_in[freq[0]] / (2.0 * (L // 2))

        q_in = self.graph.in_mass(ql) if bl else self.s_cur_in[cl]
        S = rng.random(self.num_arms) < accept_probability(self.s_cur_in[cl], q_in)
        used = self.graph.out_mask[al] & S
        if used.any():
            used_cols = used[revl.arms]
            arms_used = revl.arms[used_cols]
            losses = revl.losses[:, used_cols]
            denom = self.w_hat[arms_used] + 1.5 * gamma
            self.cum[:, arms_used] += 2.0 * losses / denom
        else:
            losses = revl.losses[:, :0]
        return PairRecord(t_first=self.t - 1, loss_offset=loss_offset,
                          used=used, losses=losses)

    def end_epoch(self) -> None:
        """Roll snapshots and importance estimates into the next epoch."""
        if self.pos != self.epoch_len:
            raise RuntimeError(
                f"epoch {self.epoch} has consumed {self.pos}/{self.epoch_len} rounds"
            )
        self.s_cur = self.s_next
        self.s_cur_in = self._s_next_in
        self.s_next = exp_weights(self.cum, self.params.eta)
        self.s_next.flags.writeable = False
        self._s_next_in = self._in_mass(self.s_next)
        self.w_hat = self.w_hat_acc
        self.w_hat_acc = np.zeros(self.num_arms)
        self.epoch += 1
        self.pos = 0
        self._dists = self.s_next  # built from the ``cum`` the next pair plays

    def _in_mass(self, snapshot: np.ndarray) -> np.ndarray:
        masses = self.graph.in_mass_rows(snapshot)
        masses.flags.writeable = False
        return masses
