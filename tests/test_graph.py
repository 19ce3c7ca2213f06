import numpy as np
import pytest

from crossbandit.graph import (
    FeedbackGraph,
    GraphSpec,
    IndependenceBudgetError,
    build_graph,
    independence_number,
    independence_number_bruteforce,
    is_strongly_observable,
    load_adjacency,
)


def er(K, p, seed=0):
    return build_graph(GraphSpec(kind="erdos_renyi", num_arms=K, edge_prob=p), rng_seed=seed)


class TestGenerators:
    def test_complete_k5(self):
        g = build_graph(GraphSpec(kind="complete_with_self_loops", num_arms=5))
        assert g.alpha == 1
        assert g.strongly_observable

    def test_self_loops_k7(self):
        g = build_graph(GraphSpec(kind="self_loops_only", num_arms=7))
        assert g.alpha == 7
        assert g.strongly_observable

    def test_disjoint_cliques_alpha_matches_bruteforce(self):
        g = build_graph(GraphSpec(kind="disjoint_cliques", clique_sizes=(3, 3)))
        assert g.alpha == 2
        assert independence_number_bruteforce(g) == 2

    def test_ordered_triangular_total_order(self):
        g = build_graph(GraphSpec(kind="ordered_triangular", num_arms=6))
        assert g.alpha == 1
        assert g.out_neighbors[2] == (2, 3, 4, 5)
        assert g.self_loops == (True,) * 6

    def test_erdos_renyi_matches_bruteforce(self):
        g = er(10, 0.3, seed=1)
        assert g.alpha == independence_number_bruteforce(g)

    def test_generators_force_self_loops(self):
        for spec in (GraphSpec(kind="complete_with_self_loops", num_arms=4),
                     GraphSpec(kind="self_loops_only", num_arms=4),
                     GraphSpec(kind="disjoint_cliques", clique_sizes=(2, 2)),
                     GraphSpec(kind="erdos_renyi", num_arms=4, edge_prob=0.2),
                     GraphSpec(kind="ordered_triangular", num_arms=4)):
            assert build_graph(spec, rng_seed=3).has_all_self_loops()

    def test_deterministic_given_spec_and_seed(self):
        a = er(12, 0.4, seed=9)
        b = er(12, 0.4, seed=9)
        assert a.out_neighbors == b.out_neighbors
        assert er(12, 0.4, seed=10).out_neighbors != a.out_neighbors

    def test_zero_arms_rejected(self):
        with pytest.raises(ValueError):
            GraphSpec(kind="self_loops_only", num_arms=0)
        with pytest.raises(ValueError):
            FeedbackGraph([])

    def test_spec_parsing(self):
        assert GraphSpec.parse("cliques:4x4").clique_sizes == (4, 4, 4, 4)
        assert GraphSpec.parse("cliques:3,3,2").clique_sizes == (3, 3, 2)
        assert GraphSpec.parse("er:10:0.3").edge_prob == 0.3
        assert GraphSpec.parse("complete:5").num_arms == 5
        with pytest.raises(ValueError):
            GraphSpec.parse("nonsense:3")


class TestIndependenceNumber:
    def test_complete_k4(self):
        assert build_graph(GraphSpec(kind="complete_with_self_loops", num_arms=4)).alpha == 1

    def test_matches_bruteforce_on_random_graphs(self):
        rng = np.random.default_rng(5)
        for _ in range(120):
            K = int(rng.integers(2, 15))
            mask = rng.random((K, K)) < rng.uniform(0.05, 0.9)
            out = [tuple(np.flatnonzero(mask[a])) for a in range(K)]
            g = FeedbackGraph(out)
            assert g.alpha == independence_number_bruteforce(g)

    def test_cliques_alpha_equals_count(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            m = int(rng.integers(1, 6))
            sizes = tuple(int(rng.integers(1, 5)) for _ in range(m))
            g = build_graph(GraphSpec(kind="disjoint_cliques", clique_sizes=sizes))
            assert g.alpha == m

    def test_alpha_in_range(self):
        for seed in range(10):
            g = er(11, 0.25, seed=seed)
            assert 1 <= g.alpha <= g.num_arms

    def test_budget_errors(self):
        big = FeedbackGraph([(a,) for a in range(70)], alpha=70)
        with pytest.raises(IndependenceBudgetError):
            independence_number(big)
        with pytest.raises(IndependenceBudgetError):
            FeedbackGraph([(a,) for a in range(70)])
        with pytest.raises(IndependenceBudgetError):
            independence_number_bruteforce(FeedbackGraph([(a,) for a in range(24)], alpha=24))

    def test_self_loops_do_not_affect_alpha(self):
        loops = FeedbackGraph([(0,), (1,), (2,)])
        assert loops.alpha == 3
        cycle = FeedbackGraph([(1,), (2,), (0,)])
        assert cycle.alpha == 1  # a directed 3-cycle conflicts every pair


class TestStrongObservability:
    def test_self_loops_only(self):
        assert is_strongly_observable(build_graph(GraphSpec(kind="self_loops_only", num_arms=3)))

    def test_violating_arm(self):
        # arm 2 has no self-loop and arm 0 does not observe it
        g = FeedbackGraph([(0,), (1, 2), (0,)])
        assert not g.strongly_observable

    def test_loopless_complete(self):
        g = FeedbackGraph([(1, 2), (0, 2), (0, 1)])
        assert not g.has_all_self_loops()
        assert g.strongly_observable


class TestNeighborhoodMass:
    def test_complete_graph_is_total_mass(self):
        g = build_graph(GraphSpec(kind="complete_with_self_loops", num_arms=5))
        p = np.array([0.5, 0.2, 0.1, 0.1, 0.1])
        assert g.in_mass(p) == pytest.approx(np.ones(5))

    def test_self_loops_uniform(self):
        g = build_graph(GraphSpec(kind="self_loops_only", num_arms=4))
        p = np.full(4, 0.25)
        assert g.in_mass(p)[2] == pytest.approx(0.25)

    def test_cliques_sum_over_own_clique(self):
        g = build_graph(GraphSpec(kind="disjoint_cliques", clique_sizes=(2, 2)))
        p = np.array([0.1, 0.2, 0.3, 0.4])
        assert g.in_mass(p)[0] == pytest.approx(0.3)

    def test_out_of_range_arm(self):
        g = build_graph(GraphSpec(kind="self_loops_only", num_arms=4))
        with pytest.raises(IndexError):
            g.in_mass(np.full(4, 0.25))[4]

    def test_self_loops_masses_partition_unit(self):
        g = build_graph(GraphSpec(kind="self_loops_only", num_arms=6))
        rng = np.random.default_rng(2)
        p = rng.dirichlet(np.ones(6))
        total = g.in_mass(p).sum()
        assert total == pytest.approx(1.0)


class TestAdjacencyConsistency:
    def test_in_out_symmetry_random_graphs(self):
        rng = np.random.default_rng(8)
        for _ in range(1000):
            K = int(rng.integers(1, 12))
            mask = rng.random((K, K)) < rng.uniform(0, 1)
            g = FeedbackGraph([tuple(np.flatnonzero(mask[a])) for a in range(K)],
                              alpha=1 if K > 14 else None)
            assert np.array_equal(g.in_mask, g.out_mask.T)
            for a in range(K):
                for b in g.out_neighbors[a]:
                    assert a in g.in_neighbors[b]
            for b in range(K):
                for a in g.in_neighbors[b]:
                    assert b in g.out_neighbors[a]


class TestAdjacencyFile:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "adj.txt"
        path.write_text("0 1\n1 2\n2 0\n")
        g = load_adjacency(path)
        assert g.num_arms == 3
        assert g.out_neighbors == ((0, 1), (1, 2), (0, 2))

    def test_missing_self_loop_rejected(self, tmp_path):
        path = tmp_path / "adj.txt"
        path.write_text("0 1\n2\n2\n")
        with pytest.raises(ValueError, match="self-loop"):
            load_adjacency(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "adj.txt"
        path.write_text("\n")
        with pytest.raises(ValueError, match="empty"):
            load_adjacency(path)

    def test_non_integer_token_names_file_and_line(self, tmp_path):
        path = tmp_path / "adj.txt"
        path.write_text("0 1\n\n1 x\n")
        with pytest.raises(ValueError, match=f"{path} line 3: .*'1 x'"):
            load_adjacency(path)

    def test_out_of_range_neighbor_rejected(self, tmp_path):
        path = tmp_path / "adj.txt"
        path.write_text("0 5\n1\n")
        with pytest.raises(ValueError):
            load_adjacency(path)


def test_out_index_holds_the_rows_as_read_only_int64():
    g = er(12, 0.3, seed=4)
    assert [idx.tolist() for idx in g.out_index] == [list(ns) for ns in g.out_neighbors]
    assert all(idx.dtype == np.int64 and not idx.flags.writeable for idx in g.out_index)
