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

The learner plays a whole pair per call, and its randomness is a tape whose
length never depends on the data. Per pair it reads, in this order: the first
round's context and arm uniforms, the second round's context and arm
uniforms, and then, after epoch 1, the pair's closing uniforms: one coin,
which picks the member that feeds the loss estimates, and K thinning
uniforms. The harness draws an epoch's tape in one call at the epoch start
(``harness.pair_tape``).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .environment import Play, Reveal
from .graph import FeedbackGraph
from .simplex import exp_weights, sample_arm


@dataclass(frozen=True)
class ParamSchedule:
    """Learner parameters: epoch length, implicit exploration, learning rate.

    ``iota`` is the confidence parameter the other values were derived from.
    """

    iota: float
    epoch_len: int
    gamma: float
    eta: float

    def __post_init__(self):
        if self.epoch_len < 2 or self.epoch_len % 2 != 0:
            raise ValueError(f"epoch_len must be an even integer >= 2, got {self.epoch_len}")
        if not all(math.isfinite(v) and v > 0 for v in (self.iota, self.gamma, self.eta)):
            raise ValueError("iota, gamma and eta must be finite and positive")


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


def default_iota(K: int, T: int) -> float:
    """The confidence parameter iota = 2 log(8 K T^2)."""
    return 2.0 * math.log(8.0 * K * T * T)


def _snapped_epoch_len(T: int, raw: float) -> int:
    """The even divisor of T with at least two epochs closest to ``raw``."""
    candidates = even_divisors(T)
    if not candidates:
        raise ValueError(f"T={T} has no even divisor with at least two epochs")
    return min(candidates, key=lambda d: (abs(d - raw), d))


def schedule_params(K: int, T: int, alpha: int, tuned_scale: float = 1.0) -> ParamSchedule:
    """Parameter schedule from the horizon-dependent formulas.

    iota = 2 log(8 K T^2); L = the even divisor of T closest to
    sqrt(iota * alpha * T / log K), so T splits into whole epochs (at least
    two); gamma = tuned_scale * 16 iota / L; eta = gamma / (2 (2 L gamma + iota)).
    """
    if K < 2:
        raise ValueError(f"need K >= 2 arms, got {K}")
    if T < 4:
        raise ValueError(f"need T >= 4 rounds, got {T}")
    if alpha < 1:
        raise ValueError(f"need alpha >= 1, got {alpha}")
    if not (math.isfinite(tuned_scale) and tuned_scale > 0):
        raise ValueError(f"tuned_scale must be finite and positive, got {tuned_scale}")

    iota = default_iota(K, T)
    L = _snapped_epoch_len(T, math.sqrt(iota * alpha * T / math.log(K)))
    gamma = tuned_scale * 16.0 * iota / L
    eta = gamma / (2.0 * (2.0 * L * gamma + iota))
    return ParamSchedule(iota=iota, epoch_len=L, gamma=gamma, eta=eta)


def tuned_schedule(K: int, T: int, alpha: int) -> ParamSchedule:
    """Schedule with the same asymptotic shapes but constants sized for
    simulation-scale horizons.

    L ~ sqrt(alpha T) snapped to an even divisor of T, eta = 0.5 *
    sqrt(log K / (alpha T)), gamma = 2 / L. The horizon-formula
    schedule's constants cap the learning rate at 1/(4L), which keeps the
    policy near uniform at small T; scaling experiments run this variant.
    """
    if K < 2 or T < 4 or alpha < 1:
        raise ValueError("need K >= 2, T >= 4, alpha >= 1")
    L = _snapped_epoch_len(T, math.sqrt(alpha * T))
    return ParamSchedule(
        iota=default_iota(K, T),
        epoch_len=L,
        gamma=2.0 / L,
        eta=0.5 * math.sqrt(math.log(K) / (alpha * T)),
    )


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


class EpochLearner:
    """Algorithm state for the unknown-distribution setting, played one round
    pair at a time.

    ``act(t, contexts, u)`` plays rounds t and t + 1 (t even) from one
    distribution per context: in epoch 1 the running snapshot's rows, later
    the rows of the FTRL table ``exp_weights(cum)`` or, per round, the
    snapshot's row where the rejection test fails. ``cum`` does not change
    within a pair, and a row of ``exp_weights(cum)`` has the bits of
    ``exp_weights(cum[c])``, so a pair builds only its two rows, in one call,
    unless the full (M, K) table already exists: ``distributions()`` builds it
    on request, and an epoch end makes it the next snapshot. It is then
    shared with ``act`` until the pair finishes. ``update(revs, u)`` takes the
    pair's two reveals and its ``closing_draws`` closing uniforms: none in
    epoch 1, afterwards the pairing coin ``u[0]`` and the K thinning uniforms
    ``u[1:]``.

    Snapshots are stored as frozen probability tables, never recomputed from
    mutable state, so a fixed snapshot can never drift; ``s_cur_in`` holds the
    running snapshot's in-neighborhood masses, also read-only. Single-threaded
    per instance.
    """

    def __init__(self, graph: FeedbackGraph, num_contexts: int, params: ParamSchedule):
        if not graph.has_all_self_loops():
            raise ValueError("learner requires a self-loop at every arm")
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
        self._s_next_in = self.s_cur_in  # same read-only table, same masses
        self.w_hat = np.zeros(K)         # importance estimate applied this epoch
        self.w_hat_acc = np.zeros(K)     # accumulator for the next epoch's estimate

        self.epoch = 1
        self.pos = 0                     # rounds consumed within the epoch
        self.t = 0                       # rounds completed overall
        self._dists: np.ndarray | None = None  # exp_weights(cum), built on demand
        # (contexts, arms, play) of the pair played and not yet updated
        self._played: tuple[list[int], list[int], Play] | None = None

    def __copy__(self) -> EpochLearner:
        """A learner of the same class that plays on from this one's state.
        It owns ``cum`` and ``w_hat_acc``, which ``update`` writes in place;
        every other field is only rebound (``end_epoch`` makes ``w_hat`` the
        old ``w_hat_acc`` object), so the two share it."""
        twin = object.__new__(type(self))
        vars(twin).update(vars(self), cum=self.cum.copy(), w_hat_acc=self.w_hat_acc.copy())
        return twin

    @property
    def epoch_len(self) -> int:
        return self.params.epoch_len

    @property
    def closing_draws(self) -> int:
        """Closing uniforms ``update`` takes per pair in the running epoch."""
        return 0 if self.epoch == 1 else 1 + self.num_arms

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

    def act(self, t: int, contexts: np.ndarray, u: np.ndarray) -> Play:
        """Play rounds t and t + 1 under ``contexts[0]`` and ``contexts[1]``;
        round t + i draws its arm from the uniform ``u[i]``."""
        if t != self.t:
            raise ValueError(f"act called for round {t}, expected the pair at round {self.t}")
        cs = contexts.tolist()
        M = self.num_contexts
        if len(cs) != 2 or not (0 <= cs[0] < M and 0 <= cs[1] < M):
            raise ValueError(f"contexts {cs} are not two contexts in [0, {M})")
        s = self.s_cur[contexts]
        if self.epoch == 1:
            q, ftrl = s, np.zeros(2, dtype=bool)
        else:
            p = (self._dists[contexts] if self._dists is not None
                 else exp_weights(self.cum[contexts], self.params.eta))
            # The rejection test, per round: it holds per arm, so it holds for
            # every in-neighborhood, which keeps each acceptance probability <= 1.
            ftrl = (p >= 0.5 * s).all(axis=1)
            q = p if all(ftrl.tolist()) else np.where(ftrl[:, None], p, s)
        arm = sample_arm(q, u)
        play = Play(arm, q, ftrl)
        self._played = (cs, arm.tolist(), play)
        return play

    def update(self, revs: Sequence[Reveal], u: np.ndarray) -> PairRecord | None:
        """Fold the pair's two reveals into the learner; returns the pair's
        record, or None in epoch 1, which estimates no losses."""
        if self._played is None:
            raise RuntimeError("update without a matching act")
        contexts, arms, play = self._played
        if [rev.played_arm for rev in revs] != arms:
            raise ValueError("reveal does not match the played arm")
        if len(u) != self.closing_draws:
            raise ValueError(f"need {self.closing_draws} closing uniforms, got {len(u)}")
        self._played = None

        pair = None
        L = self.epoch_len
        if self.epoch == 1:
            # Importance accumulation for epoch 2 from the already-fixed
            # uniform snapshot, one round at a time; no loss estimates.
            for c in contexts:
                self.w_hat_acc += self._s_next_in[c] / (2.0 * L)
        else:
            self._dists = None  # the pair's table, if any, goes with it
            # Uniform pairing: one member estimates frequency, the other losses.
            loss_offset = 1 if u[0] < 0.5 else 0
            cl, al, revl = contexts[loss_offset], arms[loss_offset], revs[loss_offset]
            self.w_hat_acc += self._s_next_in[contexts[1 - loss_offset]] / (2.0 * (L // 2))

            q_in = (self.graph.in_mass(play.q[loss_offset]) if play.ftrl[loss_offset]
                    else self.s_cur_in[cl])
            S = u[1:] < accept_probability(self.s_cur_in[cl], q_in)
            used = self.graph.out_mask[al] & S
            used_cols = used[revl.arms]  # every used arm is a revealed one
            arms_used = revl.arms[used_cols]
            losses = revl.losses[:, used_cols]
            if len(arms_used):
                denom = self.w_hat[arms_used] + 1.5 * self.params.gamma
                self.cum[:, arms_used] += 2.0 * losses / denom
            pair = PairRecord(t_first=self.t, loss_offset=loss_offset, used=used, losses=losses)

        self.pos += 2
        self.t += 2
        if self.pos == L:
            self.end_epoch()
        return pair

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
