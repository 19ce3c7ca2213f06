"""Directed feedback graphs over arms.

Playing arm ``a`` reveals the losses of every arm in ``out_neighbors(a)``.
An arm observes itself iff it carries an explicit self-loop edge. The
independence number is computed on the either-direction conflict relation:
two distinct arms conflict iff there is an edge between them in at least one
direction.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Exact branch-and-bound budget for the independence number.
MAX_EXACT_ALPHA_ARMS = 64
# Budget for the 2^K enumeration oracle (exists only to cross-check the
# branch-and-bound solver).
MAX_BRUTE_FORCE_ARMS = 20

GRAPH_KINDS = (
    "complete_with_self_loops",
    "self_loops_only",
    "disjoint_cliques",
    "erdos_renyi",
    "ordered_triangular",
    "custom",
)


class IndependenceBudgetError(ValueError):
    """Raised when an exact independence number is requested above budget."""


class FeedbackGraph:
    """Immutable directed graph over ``num_arms`` arms.

    ``out_neighbors[a]`` lists the arms revealed by playing ``a`` (sorted,
    duplicate-free), and ``out_index[a]`` holds the same arms as a read-only
    int64 array; ``in_neighbors`` is derived. ``alpha`` and
    ``strongly_observable`` are computed once and cached. Instances are safe
    to share across threads.
    """

    def __init__(self, out_neighbors, alpha: int | None = None):
        rows = [tuple(sorted(set(int(b) for b in ns))) for ns in out_neighbors]
        num_arms = len(rows)
        if num_arms == 0:
            raise ValueError("a feedback graph needs at least one arm")
        for a, ns in enumerate(rows):
            for b in ns:
                if not 0 <= b < num_arms:
                    raise ValueError(f"arm {a} lists out-neighbor {b} outside [0, {num_arms})")

        self.num_arms = num_arms
        self.out_neighbors = tuple(rows)
        self.out_index = tuple(np.array(ns, dtype=np.int64) for ns in rows)
        for idx in self.out_index:
            idx.flags.writeable = False

        out_mask = np.zeros((num_arms, num_arms), dtype=bool)
        for a, ns in enumerate(rows):
            out_mask[a, list(ns)] = True
        # in_mask[a, b] is True iff b -> a.
        self.out_mask = out_mask
        self.in_mask = out_mask.T.copy()
        self.out_mask.flags.writeable = False
        self.in_mask.flags.writeable = False

        self.in_neighbors = tuple(
            tuple(int(b) for b in np.flatnonzero(self.in_mask[a])) for a in range(num_arms)
        )
        self.self_loops = tuple(bool(out_mask[a, a]) for a in range(num_arms))
        self.num_edges = int(out_mask.sum())
        self.strongly_observable = is_strongly_observable(self)

        if alpha is None:
            if num_arms > MAX_EXACT_ALPHA_ARMS:
                raise IndependenceBudgetError(
                    f"K={num_arms} exceeds the exact budget ({MAX_EXACT_ALPHA_ARMS}); "
                    "supply alpha by construction"
                )
            alpha = independence_number(self)
        self.alpha = int(alpha)
        if not 1 <= self.alpha <= num_arms:
            raise ValueError(f"alpha={alpha} outside [1, {num_arms}]")

    def has_all_self_loops(self) -> bool:
        return all(self.self_loops)

    def in_mass(self, p: np.ndarray) -> np.ndarray:
        """In-neighborhood mass of every arm under weight vector ``p`` (K,)."""
        return self.in_mask @ np.asarray(p, dtype=np.float64)

    def in_mass_rows(self, P: np.ndarray) -> np.ndarray:
        """Row-wise in-neighborhood masses for a stack of weight vectors (M, K)."""
        return np.asarray(P, dtype=np.float64) @ self.in_mask.T

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"FeedbackGraph(K={self.num_arms}, edges={self.num_edges}, "
            f"alpha={self.alpha}, strongly_observable={self.strongly_observable})"
        )


def is_strongly_observable(graph: FeedbackGraph) -> bool:
    """Every arm either observes itself or is observed by all other arms."""
    for a in range(graph.num_arms):
        if graph.in_mask[a, a]:
            continue
        others = np.delete(graph.in_mask[a], a)
        if not others.all():
            return False
    return True


def _conflict_bitmasks(graph: FeedbackGraph) -> list[int]:
    """Undirected conflict support: a and b (a != b) conflict iff a->b or b->a."""
    sym = graph.out_mask | graph.out_mask.T
    np.fill_diagonal(sym, False)
    masks = []
    for a in range(graph.num_arms):
        m = 0
        for b in np.flatnonzero(sym[a]):
            m |= 1 << int(b)
        masks.append(m)
    return masks


def _clique_cover_bound(cand: int, conf: list[int]) -> int:
    """Greedy clique cover of the conflict graph restricted to ``cand``.

    Each clique can contribute at most one member to an independent set, so
    the number of cliques upper-bounds the independent set size within cand.
    """
    bound = 0
    rest = cand
    while rest:
        v = rest & -rest
        vi = v.bit_length() - 1
        clique = v
        common = rest & conf[vi]
        while common:
            u = common & -common
            ui = u.bit_length() - 1
            clique |= u
            common &= conf[ui]
        rest &= ~clique
        bound += 1
    return bound


def independence_number(graph: FeedbackGraph) -> int:
    """Exact maximum independent set size, branch and bound with a greedy
    clique-cover bound. Budgeted at K <= 64."""
    K = graph.num_arms
    if K > MAX_EXACT_ALPHA_ARMS:
        raise IndependenceBudgetError(
            f"K={K} exceeds the exact budget ({MAX_EXACT_ALPHA_ARMS})"
        )
    conf = _conflict_bitmasks(graph)
    best = 0

    def expand(cand: int, size: int) -> None:
        nonlocal best
        if cand == 0:
            if size > best:
                best = size
            return
        if size + _clique_cover_bound(cand, conf) <= best:
            return
        # Branch on the most conflicted remaining vertex.
        v, v_deg = -1, -1
        m = cand
        while m:
            bit = m & -m
            i = bit.bit_length() - 1
            deg = (conf[i] & cand).bit_count()
            if deg > v_deg:
                v, v_deg = i, deg
            m ^= bit
        expand(cand & ~(conf[v] | (1 << v)), size + 1)
        expand(cand & ~(1 << v), size)

    expand((1 << K) - 1, 0)
    return best


def independence_number_bruteforce(graph: FeedbackGraph) -> int:
    """Enumeration oracle: checks all 2^K subsets. Only for cross-validation."""
    K = graph.num_arms
    if K > MAX_BRUTE_FORCE_ARMS:
        raise IndependenceBudgetError(f"brute force limited to K <= {MAX_BRUTE_FORCE_ARMS}")
    conf = _conflict_bitmasks(graph)
    masks = np.arange(1 << K, dtype=np.uint32)
    ok = np.ones(masks.shape, dtype=bool)
    for v in range(K):
        has_v = ((masks >> v) & 1).astype(bool)
        hits = (masks & np.uint32(conf[v])) != 0
        ok &= ~(has_v & hits)
    sizes = np.zeros(masks.shape, dtype=np.uint8)
    for v in range(K):
        sizes += ((masks >> v) & 1).astype(np.uint8)
    return int(sizes[ok].max())


@dataclass(frozen=True)
class GraphSpec:
    """Constructive description of a feedback graph.

    kind: one of GRAPH_KINDS. Every generator forces a self-loop at every
    arm; only ``custom`` files can describe other graphs, and those are
    rejected if any self-loop is missing.
    """

    kind: str
    num_arms: int | None = None
    clique_sizes: tuple[int, ...] | None = None
    edge_prob: float | None = None
    path: str | None = None

    def __post_init__(self):
        if self.kind not in GRAPH_KINDS:
            raise ValueError(f"unknown graph kind {self.kind!r}; expected one of {GRAPH_KINDS}")
        if self.kind == "disjoint_cliques":
            if not self.clique_sizes or any(s < 1 for s in self.clique_sizes):
                raise ValueError("disjoint_cliques needs positive clique sizes")
        elif self.kind == "custom":
            if not self.path:
                raise ValueError("custom graphs need an adjacency file path")
        else:
            if self.num_arms is None or self.num_arms < 1:
                raise ValueError(f"{self.kind} needs num_arms >= 1")
            if self.kind == "erdos_renyi":
                if self.edge_prob is None or not 0.0 <= self.edge_prob <= 1.0:
                    raise ValueError("erdos_renyi needs edge_prob in [0, 1]")

    @classmethod
    def parse(cls, text: str) -> "GraphSpec":
        """Parse compact CLI syntax.

        complete:K | selfloops:K | cliques:NxS | cliques:s1,s2,... |
        er:K:p | triangular:K | custom:path
        """
        head, _, rest = text.partition(":")
        head = head.strip().lower()
        if head in ("complete", "complete_with_self_loops"):
            return cls(kind="complete_with_self_loops", num_arms=int(rest))
        if head in ("selfloops", "self_loops_only"):
            return cls(kind="self_loops_only", num_arms=int(rest))
        if head in ("cliques", "disjoint_cliques"):
            if "x" in rest:
                n, s = rest.split("x")
                sizes = (int(s),) * int(n)
            else:
                sizes = tuple(int(x) for x in rest.split(","))
            return cls(kind="disjoint_cliques", clique_sizes=sizes)
        if head in ("er", "erdos_renyi"):
            k, p = rest.split(":")
            return cls(kind="erdos_renyi", num_arms=int(k), edge_prob=float(p))
        if head in ("triangular", "ordered_triangular"):
            return cls(kind="ordered_triangular", num_arms=int(rest))
        if head == "custom":
            return cls(kind="custom", path=rest)
        raise ValueError(f"cannot parse graph spec {text!r}")


def build_graph(spec: GraphSpec, rng_seed: int = 0) -> FeedbackGraph:
    """Materialize a graph from its spec. Deterministic given (spec, seed)."""
    if spec.kind == "complete_with_self_loops":
        K = spec.num_arms
        return FeedbackGraph([range(K)] * K, alpha=1)

    if spec.kind == "self_loops_only":
        K = spec.num_arms
        return FeedbackGraph([(a,) for a in range(K)], alpha=K)

    if spec.kind == "disjoint_cliques":
        sizes = spec.clique_sizes
        out, start = [], 0
        for s in sizes:
            members = range(start, start + s)
            out.extend([tuple(members)] * s)
            start += s
        return FeedbackGraph(out, alpha=len(sizes))

    if spec.kind == "ordered_triangular":
        K = spec.num_arms
        return FeedbackGraph([tuple(range(a, K)) for a in range(K)], alpha=1)

    if spec.kind == "erdos_renyi":
        K = spec.num_arms
        rng = np.random.default_rng(np.random.SeedSequence([0x6E7, rng_seed]))
        mask = rng.random((K, K)) < spec.edge_prob
        np.fill_diagonal(mask, True)
        out = [tuple(np.flatnonzero(mask[a])) for a in range(K)]
        return FeedbackGraph(out)

    if spec.kind == "custom":
        return load_adjacency(spec.path)

    raise ValueError(f"unhandled graph kind {spec.kind!r}")


def load_adjacency(path: str | Path) -> FeedbackGraph:
    """Plain-text adjacency: line i holds the space-separated out-neighbors of
    arm i (0-indexed). Self-loops must be listed explicitly and are required."""
    out = []
    for number, line in enumerate(Path(path).read_text().splitlines(), 1):
        try:
            row = [int(tok) for tok in line.split()]
        except ValueError as exc:
            raise ValueError(f"adjacency file {path} line {number}: need integer arm "
                             f"indices, got {line!r}") from exc
        if row:
            out.append(row)
    if not out:
        raise ValueError(f"adjacency file {path} is empty")
    graph = FeedbackGraph(out)
    missing = [a for a in range(graph.num_arms) if not graph.self_loops[a]]
    if missing:
        raise ValueError(f"adjacency file {path} misses self-loops at arms {missing}")
    return graph
