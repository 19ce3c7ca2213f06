import math

import numpy as np
import pytest

from crossbandit.baselines import GraphExp3Baseline, UniformBaseline, baseline_rates
from crossbandit.environment import StochasticGapOracle, TableOracle, gap_means, reveal, sample_context
from crossbandit.graph import GraphSpec, build_graph

NU = np.array([0.4, 0.3, 0.2, 0.1])


def drive(learner, graph, oracle, nu, rng, rounds):
    """Rounds of a batch of one: a context uniform, then an arm uniform."""
    for t in range(rounds):
        c = sample_context(nu, rng.random(1))
        a = learner.act(t, c, rng.random(1)).arm[0]
        learner.update([reveal(oracle, graph, t, a)])


class TestUniform:
    def test_frequencies(self):
        graph = build_graph(GraphSpec(kind="self_loops_only", num_arms=5))
        lrn = UniformBaseline(graph, 4)
        rng = np.random.default_rng(0)
        n = 100_000
        counts = np.zeros(5)
        for _ in range(n):
            counts[lrn.act(0, np.array([0]), rng.random(1)).arm[0]] += 1  # act leaves the learner unchanged
        freq = counts / n
        bound = 3 * math.sqrt(0.2 * 0.8 / n)
        assert np.all(np.abs(freq - 0.2) <= bound)


class TestGraphExp3:
    def test_zero_losses_stay_uniform(self):
        graph = build_graph(GraphSpec(kind="self_loops_only", num_arms=4))
        lrn = GraphExp3Baseline(graph, 4, eta=0.1, gamma_ix=0.01, per_context=True)
        oracle = TableOracle(np.zeros((64, 4, 4)))
        rng = np.random.default_rng(1)
        drive(lrn, graph, oracle, NU, rng, 64)
        assert np.allclose(lrn.distributions(), 0.25)

    def test_single_context_matches_pooled(self):
        graph = build_graph(GraphSpec(kind="disjoint_cliques", clique_sizes=(2, 2)))
        oracle = StochasticGapOracle(gap_means(1, 4, best_stride=1), num_rounds=256, seed=3)
        nu1 = np.array([1.0])
        seqs = []
        for per_context in (True, False):
            lrn = GraphExp3Baseline(graph, 1, eta=0.1, gamma_ix=0.02, per_context=per_context)
            rng = np.random.default_rng(42)
            seq = []
            for t in range(256):
                c = sample_context(nu1, rng.random(1))
                a = lrn.act(t, c, rng.random(1)).arm[0]
                lrn.update([reveal(oracle, graph, t, a)])
                seq.append(a)
            seqs.append(seq)
        assert seqs[0] == seqs[1]

    def test_information_firewall(self):
        # context 3 never drawn: its state must stay untouched
        graph = build_graph(GraphSpec(kind="complete_with_self_loops", num_arms=4))
        lrn = GraphExp3Baseline(graph, 4, eta=0.1, gamma_ix=0.02, per_context=True)
        nu = np.array([0.5, 0.3, 0.2, 0.0])
        oracle = StochasticGapOracle(gap_means(4, 4, best_stride=1), num_rounds=128, seed=5)
        rng = np.random.default_rng(2)
        drive(lrn, graph, oracle, nu, rng, 128)
        assert np.count_nonzero(lrn.cum[0, 3]) == 0
        assert np.count_nonzero(lrn.cum[0, :3]) > 0

    def test_per_context_state_changes_only_on_own_rounds(self):
        graph = build_graph(GraphSpec(kind="complete_with_self_loops", num_arms=3))
        lrn = GraphExp3Baseline(graph, 2, eta=0.2, gamma_ix=0.0, per_context=True)
        oracle = TableOracle(np.full((8, 2, 3), 0.5))
        rng = np.random.default_rng(3)
        contexts = [0, 1, 0, 0, 1, 1, 0, 1]
        for t, c in enumerate(contexts):
            before = lrn.cum[0].copy()
            a = lrn.act(t, np.array([c]), rng.random(1)).arm[0]
            lrn.update([reveal(oracle, graph, t, a)])
            other = 1 - c
            assert np.array_equal(lrn.cum[0, other], before[other])
            assert not np.array_equal(lrn.cum[0, c], before[c])

    def test_complete_graph_zero_ix_is_full_information(self):
        graph = build_graph(GraphSpec(kind="complete_with_self_loops", num_arms=3))
        lrn = GraphExp3Baseline(graph, 2, eta=0.1, gamma_ix=0.0, per_context=False)
        tensor = np.random.default_rng(0).random((4, 2, 3))
        oracle = TableOracle(tensor)
        rng = np.random.default_rng(1)
        realized = []
        for t in range(4):
            c = sample_context(np.array([0.5, 0.5]), rng.random(1))
            a = lrn.act(t, c, rng.random(1)).arm[0]
            lrn.update([reveal(oracle, graph, t, a)])
            realized.append(c[0])
        expected = sum(tensor[t, c] for t, c in enumerate(realized))
        assert np.allclose(lrn.cum[0, 0], expected)

    def test_estimate_mean_matches_attenuated_loss(self):
        # frozen uniform state: mean estimate = loss * w / (w + gamma_ix)
        graph = build_graph(GraphSpec(kind="disjoint_cliques", clique_sizes=(2, 2)))
        gamma_ix = 0.05
        loss_val = 0.8
        oracle = TableOracle(np.full((1, 1, 4), loss_val))
        n = 20_000
        total = np.zeros(4)
        rng = np.random.default_rng(7)
        obs = np.zeros(4)
        for _ in range(n):
            lrn = GraphExp3Baseline(graph, 1, eta=0.1, gamma_ix=gamma_ix, per_context=False)
            a = lrn.act(0, np.array([0]), rng.random(1)).arm[0]
            lrn.update([reveal(oracle, graph, 0, a)])
            obs[graph.out_neighbors[a],] += 1
            total += lrn.cum[0, 0]
        w = 0.5  # uniform mass on each 2-clique
        target = loss_val * w / (w + gamma_ix)
        mean = total / n
        p_hat = obs / n
        se = (loss_val / (w + gamma_ix)) * np.sqrt(p_hat * (1 - p_hat) / n)
        assert np.all(np.abs(mean - target) <= 3 * se)

    @pytest.mark.parametrize("eta,gamma_ix", [(float("nan"), 0.01), (0.1, float("nan")),
                                              (0.0, 0.01), (0.1, -0.01)])
    def test_rejects_bad_rates(self, eta, gamma_ix):
        graph = build_graph(GraphSpec(kind="self_loops_only", num_arms=4))
        with pytest.raises(ValueError, match="eta > 0 and gamma_ix >= 0"):
            GraphExp3Baseline(graph, 4, eta=eta, gamma_ix=gamma_ix, per_context=True)

    def test_default_rates(self):
        eta, gix = baseline_rates(16, 4096, 4, num_states=1)
        assert gix == pytest.approx(math.sqrt(math.log(16) / (4 * 4096)))
        assert eta == pytest.approx(gix)
        eta_m, gix_m = baseline_rates(16, 4096, 4, num_states=64)
        assert eta_m == pytest.approx(8 * eta)
        assert gix_m == gix
