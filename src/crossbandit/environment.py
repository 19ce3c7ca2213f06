"""Oblivious adversaries, context sampling, and the cross-learning reveal.

Every oracle is a deterministic map (t, c, a) -> loss in [0, 1], fixed before
the run: querying never changes the losses, so reveals can be replayed in any
order. Stochastic losses are pre-materialized in chunks from a seeded
counter-style stream, which keeps the adversary genuinely oblivious and runs
replayable. ``loss_slice`` returns read-only arrays, so the tables an oracle
keeps between calls cannot be changed through them.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .graph import FeedbackGraph
from .simplex import sample_arm

# Rounds per materialized chunk are sized so one chunk stays around 2 MB.
_CHUNK_BUDGET = 1 << 18


def sample_context(nu: np.ndarray, u):
    """I.i.d. categorical context draws: the context of each uniform in
    ``u`` (a float or an array of any shape), by inverse CDF over ``nu``."""
    return sample_arm(nu, u)


class Reveal(NamedTuple):
    """Feedback from one round: losses of N_out(played_arm) across all contexts.

    ``losses[c, j]`` is the loss of ``arms[j]`` under context c; nothing
    outside the played arm's out-neighborhood is included. A tuple, because
    a lockstep batch builds one per replicate and round.
    """

    t: int
    played_arm: int
    arms: np.ndarray  # revealed arm indices, sorted; read-only, shared across rounds
    losses: np.ndarray  # shape (M, len(arms))


class Play(NamedTuple):
    """What a learner's ``act`` returns: the drawn arms, the distributions
    ``q`` they were drawn from, and ``ftrl``, False only where the epoch
    learner played its snapshot (the rejection fallback, and every round of
    epoch 1).

    Every learner (``KnownDistLearner``, ``EpochLearner``,
    ``GraphExp3Baseline``, ``UniformBaseline``) follows one contract. The
    known-distribution learner and the baselines are batched: they carry a
    leading axis of R replicates, fixed when they are built, and play them in
    lockstep; R = 1 is one replicate. The epoch learner plays one replicate,
    a round pair at a time. Besides the contract, the harness reads only
    ``distributions()`` for full traces and, at each epoch start, the epoch
    learner's public ``epoch``, ``w_hat``, ``s_cur``, ``s_next``, ``s_cur_in``
    (the in-neighborhood masses of ``s_cur``'s rows) and ``closing_draws``:

    * ``act(t, contexts, u) -> Play`` (batched learners) plays round t of
      every replicate: replicate r under context ``contexts[r]``, with its
      arm drawn from the uniform ``u[r]`` by ``simplex.sample_arm``. ``arm``
      then holds R arms, ``q`` is (R, K) and ``ftrl`` is True. Replicate r's
      arm and row depend only on its own state, context and uniform.
    * ``act(t, contexts, u) -> Play`` (epoch learner) plays rounds t and
      t + 1, t even: round t + i under context ``contexts[i]``, with its arm
      drawn from the uniform ``u[i]``. ``arm``, ``q`` and ``ftrl`` are (2,),
      (2, K) and (2,), one entry or row per round.
    * Neither ``act`` changes the learner's estimates.
    * ``update(revs) -> None`` (batched learners) folds round t's reveals,
      one per replicate in row order, into the replicates' estimates.
    * ``update(revs, u) -> PairRecord | None`` (epoch learner) folds the
      pair's two ``Reveal``s, in round order, into the learner, with the
      pair's ``closing_draws`` closing uniforms ``u``. It returns the
      ``PairRecord`` of the pair, with the arms whose losses fed its
      estimates, or None in epoch 1.
    * ``copy.copy(learner)`` (epoch learner) plays on from its state and leaves it unchanged.

    A returned ``q``, a table returned by ``distributions()``, and the epoch
    learner's snapshot and in-mass tables are never written afterwards:
    learners rebind these tables instead, so the caller may keep any of them
    without copying it.
    """

    arm: np.ndarray
    q: np.ndarray
    ftrl: np.ndarray | bool


class LossOracle:
    """Base oblivious adversary. Subclasses implement ``loss_slice``."""

    num_rounds: int
    num_contexts: int
    num_arms: int

    def loss_slice(self, t: int) -> np.ndarray:
        """Full (M, K) loss table of round t, as a read-only array."""
        raise NotImplementedError

    def loss(self, t: int, c: int, a: int) -> float:
        if not 0 <= t < self.num_rounds:
            raise ValueError(f"round {t} out of range [0, {self.num_rounds})")
        if not 0 <= c < self.num_contexts:
            raise ValueError(f"context {c} out of range [0, {self.num_contexts})")
        if not 0 <= a < self.num_arms:
            raise ValueError(f"arm {a} out of range [0, {self.num_arms})")
        return float(self.loss_slice(t)[c, a])


def reveal(oracle: LossOracle, graph: FeedbackGraph, t: int, played_arm: int) -> Reveal:
    """Exactly the cross-learning feedback set for one round."""
    if not 0 <= played_arm < graph.num_arms:
        raise ValueError(f"played arm {played_arm} out of range")
    arms = graph.out_index[played_arm]
    losses = oracle.loss_slice(t)[:, arms]  # fancy indexing copies
    return Reveal(t, played_arm, arms, losses)


def _read_only(arr: np.ndarray) -> np.ndarray:
    """A view of ``arr`` that cannot be written through; ``arr`` itself keeps
    its flags."""
    view = arr.view()
    view.flags.writeable = False
    return view


class TableOracle(LossOracle):
    """Losses stored explicitly as a (T, M, K) tensor."""

    def __init__(self, tensor: np.ndarray):
        tensor = np.asarray(tensor, dtype=np.float64)
        if tensor.ndim != 3:
            raise ValueError(f"expected a (T, M, K) tensor, got shape {tensor.shape}")
        if not ((tensor >= 0) & (tensor <= 1)).all():
            raise ValueError("losses must lie in [0, 1]")
        self._tensor = _read_only(tensor)
        self.num_rounds, self.num_contexts, self.num_arms = tensor.shape

    def loss_slice(self, t: int) -> np.ndarray:
        return self._tensor[t]

    @classmethod
    def from_npy(cls, path: str | Path) -> "TableOracle":
        return cls(np.load(path))

    @classmethod
    def from_csv(cls, path: str | Path) -> "TableOracle":
        """Long format with columns t,c,a,loss (header optional). The tensor
        must be fully covered, each cell once."""
        rows = []
        first_line: dict[tuple, int] = {}  # (t, c, a) -> the line that set it
        with open(path, newline="") as fh:
            for line, rec in enumerate(csv.reader(fh), 1):
                if not rec or not rec[0].strip() or rec[0].strip().lower() == "t":
                    continue
                try:
                    row = tuple(map(int, rec[:3])) + (float(rec[3]),)
                except (ValueError, IndexError):
                    row = None
                if row is None or min(row[:3]) < 0 or not np.isfinite(row[3]):
                    raise ValueError(f"loss table {path} line {line}: need integers "
                                     f"t,c,a >= 0 and a finite loss, got {rec!r}")
                if row[:3] in first_line:
                    raise ValueError(f"loss table {path} line {line}: cell t,c,a = "
                                     f"{row[:3]} repeats line {first_line[row[:3]]}")
                first_line[row[:3]] = line
                rows.append(row)
        if not rows:
            raise ValueError(f"loss table {path} is empty")
        cells = np.array([r[:3] for r in rows]).T
        tensor = np.full(tuple(cells.max(axis=1) + 1), np.nan)
        tensor[tuple(cells)] = [r[3] for r in rows]
        if np.isnan(tensor).any():
            raise ValueError(f"loss table {path} does not cover every (t, c, a)")
        return cls(tensor)


class _ChunkedOracle(LossOracle):
    """Deterministic chunked materialization keyed by (seed, chunk index)."""

    def __init__(self, num_rounds: int, num_contexts: int, num_arms: int):
        self.num_rounds = num_rounds
        self.num_contexts = num_contexts
        self.num_arms = num_arms
        self._chunk_len = max(1, _CHUNK_BUDGET // max(1, num_contexts * num_arms))
        self._cache: dict[int, np.ndarray] = {}

    def _make_chunk(self, j: int) -> np.ndarray:
        raise NotImplementedError

    def loss_slice(self, t: int) -> np.ndarray:
        j = t // self._chunk_len
        chunk = self._cache.get(j)
        if chunk is None:
            self._cache.clear()  # at most one chunk resident, also while the next is built
            chunk = _read_only(self._make_chunk(j))
            self._cache[j] = chunk
        return chunk[t - j * self._chunk_len]


class StochasticGapOracle(_ChunkedOracle):
    """Bernoulli losses with per-(context, arm) means."""

    def __init__(self, means: np.ndarray, num_rounds: int, seed: int):
        means = np.asarray(means, dtype=np.float64)
        if means.ndim != 2:
            raise ValueError(f"means must be (M, K), got shape {means.shape}")
        if (means < 0).any() or (means > 1).any():
            raise ValueError("Bernoulli means must lie in [0, 1]")
        super().__init__(num_rounds, means.shape[0], means.shape[1])
        self.means = means
        self.seed = int(seed)

    def _make_chunk(self, j: int) -> np.ndarray:
        rng = np.random.default_rng(np.random.SeedSequence([0x10A4, self.seed, j]))
        u = rng.random((self._chunk_len, self.num_contexts, self.num_arms))
        return np.less(u, self.means, out=u)  # 0/1 losses written over the uniforms


def gap_means(num_contexts: int, num_arms: int, base: float = 0.4, gap: float = 0.2,
              best_stride: int = 5) -> np.ndarray:
    """Mean table with one best arm per context at ``base`` and the rest at
    ``base + gap``. The stride spreads best arms across the arm range."""
    if not 0 <= base <= 1 or not 0 <= base + gap <= 1:
        raise ValueError("means must stay within [0, 1]")
    means = np.full((num_contexts, num_arms), base + gap)
    for c in range(num_contexts):
        means[c, (c * best_stride) % num_arms] = base
    return means


class AdversarialShiftOracle(LossOracle):
    """Piecewise-constant adversary: the best arm per context shifts at
    quarter-horizon boundaries."""

    def __init__(self, num_rounds: int, num_contexts: int, num_arms: int,
                 low: float = 0.2, high: float = 0.8):
        if not 0 <= low <= high <= 1:
            raise ValueError("need 0 <= low <= high <= 1")
        self.num_rounds = num_rounds
        self.num_contexts = num_contexts
        self.num_arms = num_arms
        self.low = float(low)
        self.high = float(high)
        self._phase_len = max(1, -(-num_rounds // 4))  # ceil(T / 4)
        tables = np.full((4, num_contexts, num_arms), self.high)
        contexts = np.arange(num_contexts)
        for phase in range(4):
            tables[phase, contexts, (contexts + phase) % num_arms] = self.low
        self._tables = _read_only(tables)

    def loss_slice(self, t: int) -> np.ndarray:
        return self._tables[min(3, t // self._phase_len)]


def auction_grid(name: str, grid) -> np.ndarray:
    """``grid`` as a float64 array, checked to be a nonempty 1-D ascending
    grid on [0, 1] (an auction's values or bids)."""
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-D array")
    if (np.diff(grid) < 0).any():
        raise ValueError(f"{name} must be sorted ascending")
    if not ((grid >= 0) & (grid <= 1)).all():
        raise ValueError(f"{name} entries must lie in [0, 1]")
    return grid


class AuctionOracle(_ChunkedOracle):
    """Repeated sealed-bid pricing: context = private value, arm = bid.

    Utility of bidding b with value v against the opposing bid m is
    (v - b) * 1[b >= m]; it is clamped to [-1, 1] and mapped to
    loss = (1 - u) / 2 so losses stay in [0, 1]. Losing gives u = 0,
    hence loss 0.5; overbidding keeps its penalty visible. Pairs naturally
    with the ordered_triangular graph, where winning at a bid reveals the
    outcome of all higher bids.
    """

    def __init__(self, value_grid: np.ndarray, bid_grid: np.ndarray,
                 opposing_bids: np.ndarray):
        value_grid = auction_grid("value_grid", value_grid)
        bid_grid = auction_grid("bid_grid", bid_grid)
        opposing_bids = np.asarray(opposing_bids, dtype=np.float64)
        super().__init__(len(opposing_bids), len(value_grid), len(bid_grid))
        self.value_grid = value_grid
        self.bid_grid = bid_grid
        self.opposing_bids = opposing_bids

    def _make_chunk(self, j: int) -> np.ndarray:
        m = self.opposing_bids[j * self._chunk_len:(j + 1) * self._chunk_len]
        win = self.bid_grid >= m[:, None]  # (rounds, K)
        u = (self.value_grid[:, None] - self.bid_grid[None, :]) * win[:, None, :]
        np.clip(u, -1.0, 1.0, out=u)
        np.subtract(1.0, u, out=u)
        return np.divide(u, 2.0, out=u)


def uniform_opposing_bids(num_rounds: int, seed: int) -> np.ndarray:
    """Deterministic opposing-bid sequence, i.i.d. uniform on [0, 1]."""
    rng = np.random.default_rng(np.random.SeedSequence([0xB1D, seed]))
    return rng.random(num_rounds)


def load_opposing_bids(path: str | Path) -> np.ndarray:
    """One finite opposing bid per CSV line. Only the first nonblank line may
    be a header; any other line that is not a finite number is an error."""
    with open(path, newline="") as fh:
        lines = [(n, rec[0]) for n, rec in enumerate(csv.reader(fh), 1) if rec and rec[0].strip()]
    vals = []
    for i, (line, text) in enumerate(lines):
        try:
            vals.append(float(text))
        except ValueError:
            if i == 0:
                continue  # header
            raise ValueError(f"opposing-bid file {path} line {line}: "
                             f"cannot parse {text!r}") from None
        if not np.isfinite(vals[-1]):
            raise ValueError(f"opposing-bid file {path} line {line}: bid {text!r} is not finite")
    if not vals:
        raise ValueError(f"opposing-bid file {path} is empty")
    return np.asarray(vals, dtype=np.float64)
