import numpy as np
import pytest

from crossbandit.environment import StochasticGapOracle, TableOracle, gap_means, reveal, sample_context
from crossbandit.graph import FeedbackGraph, GraphSpec, build_graph
from crossbandit import known
from crossbandit.known import InvariantViolation, KnownDistLearner, default_learning_rate

NU = np.array([0.4, 0.3, 0.2, 0.1])


def make(graph_spec, eta=0.1, nu=NU, **kw):
    graph = build_graph(graph_spec, rng_seed=2)
    return graph, KnownDistLearner(graph, nu, eta=eta, **kw)


class TestImportance:
    def test_fresh_state_self_loops_is_one_over_k(self):
        _, lrn = make(GraphSpec(kind="self_loops_only", num_arms=8))
        assert np.allclose(lrn.importance(), 1 / 8)

    def test_complete_graph_is_one(self):
        _, lrn = make(GraphSpec(kind="complete_with_self_loops", num_arms=5))
        assert np.allclose(lrn.importance(), 1.0)

    def test_forced_point_masses(self):
        # two contexts, each concentrated on its own arm
        graph = build_graph(GraphSpec(kind="self_loops_only", num_arms=4))
        lrn = KnownDistLearner(graph, np.array([0.5, 0.5]), eta=1e-3)
        big = 1e8
        lrn.cum[0, 0] = [0.0, big, big, big]
        lrn.cum[0, 1] = [big, 0.0, big, big]
        w = lrn.importance()[0]
        assert w[0] == pytest.approx(0.5, abs=1e-9)
        assert w[1] == pytest.approx(0.5, abs=1e-9)
        assert w[2] == pytest.approx(0.0, abs=1e-9)

    def test_strictly_positive_throughout_a_run(self):
        graph, lrn = make(GraphSpec(kind="erdos_renyi", num_arms=6, edge_prob=0.3), eta=0.2)
        oracle = StochasticGapOracle(gap_means(4, 6, best_stride=1), num_rounds=300, seed=0)
        rng = np.random.default_rng(1)
        for t in range(300):
            c = sample_context(NU, rng.random(1))
            a = lrn.act(t, c, rng.random(1)).arm[0]
            lrn.update([reveal(oracle, graph, t, a)])
            assert (lrn.importance() > 0).all()


class TestAct:
    def test_uniform_on_fresh_state(self):
        _, lrn = make(GraphSpec(kind="self_loops_only", num_arms=4))
        rng = np.random.default_rng(0)
        assert np.allclose(lrn.act(0, np.array([1]), rng.random(1)).q, 0.25)

    def test_huge_loss_suppresses_arm(self):
        _, lrn = make(GraphSpec(kind="self_loops_only", num_arms=4), eta=0.5)
        lrn.cum[0, 2, 0] = 1e4
        rng = np.random.default_rng(0)
        assert lrn.act(0, np.array([2]), rng.random(1)).q[0, 0] < 1e-9
        # other contexts unaffected
        assert np.allclose(lrn.act(0, np.array([1]), rng.random(1)).q, 0.25)

    def test_round_order_enforced(self):
        _, lrn = make(GraphSpec(kind="self_loops_only", num_arms=4))
        with pytest.raises(ValueError, match="round"):
            lrn.act(3, np.array([0]), np.array([0.5]))

    def test_act_does_not_mutate_state(self):
        _, lrn = make(GraphSpec(kind="self_loops_only", num_arms=4))
        before = lrn.cum.copy()
        lrn.act(0, np.array([0]), np.array([0.5]))
        assert np.array_equal(lrn.cum, before)

    def test_deterministic_under_seed(self):
        graph, lrn1 = make(GraphSpec(kind="disjoint_cliques", clique_sizes=(3, 3)))
        _, lrn2 = make(GraphSpec(kind="disjoint_cliques", clique_sizes=(3, 3)))
        oracle = StochasticGapOracle(gap_means(4, 6, best_stride=1), num_rounds=100, seed=3)
        seq1, seq2 = [], []
        for lrn, seq in ((lrn1, seq1), (lrn2, seq2)):
            rng = np.random.default_rng(77)
            for t in range(100):
                c = sample_context(NU, rng.random(1))
                a = lrn.act(t, c, rng.random(1)).arm[0]
                lrn.update([reveal(oracle, graph, t, a)])
                seq.append(a)
        assert seq1 == seq2


class TestUpdate:
    def test_complete_graph_adds_raw_losses(self):
        graph, lrn = make(GraphSpec(kind="complete_with_self_loops", num_arms=3))
        tensor = np.random.default_rng(0).random((1, 4, 3))
        oracle = TableOracle(tensor)
        rng = np.random.default_rng(1)
        a = lrn.act(0, np.array([0]), rng.random(1)).arm[0]
        lrn.update([reveal(oracle, graph, 0, a)])
        assert np.allclose(lrn.cum, tensor[0])

    def test_zero_losses_leave_cum_unchanged(self):
        graph, lrn = make(GraphSpec(kind="self_loops_only", num_arms=3))
        oracle = TableOracle(np.zeros((1, 4, 3)))
        rng = np.random.default_rng(1)
        a = lrn.act(0, np.array([2]), rng.random(1)).arm[0]
        lrn.update([reveal(oracle, graph, 0, a)])
        assert np.count_nonzero(lrn.cum) == 0

    def test_unrevealed_arms_untouched(self):
        graph, lrn = make(GraphSpec(kind="disjoint_cliques", clique_sizes=(2, 2)))
        oracle = TableOracle(np.full((1, 4, 4), 0.5))
        rng = np.random.default_rng(4)
        a = lrn.act(0, np.array([0]), rng.random(1)).arm[0]
        lrn.update([reveal(oracle, graph, 0, a)])
        clique = [0, 1] if a in (0, 1) else [2, 3]
        other = [c for c in range(4) if c not in clique]
        assert np.count_nonzero(lrn.cum[0][:, other]) == 0
        assert (lrn.cum[0][:, clique] > 0).all()

    def test_cum_is_monotone(self):
        graph, lrn = make(GraphSpec(kind="erdos_renyi", num_arms=5, edge_prob=0.4), eta=0.3)
        oracle = StochasticGapOracle(gap_means(4, 5, best_stride=1), num_rounds=200, seed=9)
        rng = np.random.default_rng(5)
        prev = lrn.cum.copy()
        for t in range(200):
            c = sample_context(NU, rng.random(1))
            a = lrn.act(t, c, rng.random(1)).arm[0]
            lrn.update([reveal(oracle, graph, t, a)])
            assert (lrn.cum >= prev - 1e-15).all()
            prev = lrn.cum.copy()


class TestEstimatorMoments:
    """Monte-Carlo checks of the importance-weighted estimator on a frozen state."""

    def _frozen(self, spec, seed):
        graph = build_graph(spec, rng_seed=2)
        lrn = KnownDistLearner(graph, NU, eta=0.05)
        oracle = StochasticGapOracle(gap_means(4, graph.num_arms, best_stride=3),
                                     num_rounds=200, seed=seed)
        rng = np.random.default_rng(seed)
        for t in range(200):
            c = sample_context(NU, rng.random(1))
            a = lrn.act(t, c, rng.random(1)).arm[0]
            lrn.update([reveal(oracle, graph, t, a)])
        return graph, lrn, rng

    def test_conditional_unbiasedness(self):
        graph, lrn, rng = self._frozen(GraphSpec(kind="erdos_renyi", num_arms=6,
                                                 edge_prob=0.35), seed=21)
        losses = 0.1 + 0.8 * rng.random((4, 6))
        dense = TableOracle(losses[None])
        n = 20_000
        cum0 = lrn.cum[0].copy()
        w = lrn.importance()[0]
        # Each row replays the frozen round once, with the context and arm
        # uniforms one replay alone would draw.
        replays = KnownDistLearner(graph, NU, eta=lrn.eta, replicates=n)
        replays.cum[:] = lrn.cum
        replays.t = lrn.t
        u = rng.random(2 * n)
        arms = replays.act(lrn.t, sample_context(NU, u[0::2]), u[1::2]).arm
        revs = [reveal(dense, graph, 0, a) for a in arms.tolist()]
        replays.update(revs)
        obs = np.bincount(np.concatenate([rev.arms for rev in revs]), minlength=6)
        mean_est = replays.cum.sum(axis=0) / n - cum0
        p_hat = obs / n
        se = (losses / w) * np.sqrt(p_hat * (1 - p_hat) / n)
        assert np.all(np.abs(mean_est - losses) <= 3 * se + 1e-12)

    def test_second_moment_identity(self):
        graph, lrn, rng = self._frozen(GraphSpec(kind="self_loops_only", num_arms=6), seed=22)
        losses = 0.1 + 0.8 * rng.random((4, 6))
        w = lrn.importance()[0]
        dists = lrn.distributions()[0]
        n = 40_000
        c_probe = 1
        p = dists[c_probe]
        # replay the action draw only; the estimate is deterministic given it
        samples = np.zeros(n)
        for i in range(n):
            c = sample_context(NU, rng.random())
            arm_dist = dists[c]
            a = np.searchsorted(np.cumsum(arm_dist), rng.random(), side="right")
            a = min(int(a), 5)
            revealed = graph.out_mask[a]
            tilde_sq = np.where(revealed, (losses[c_probe] / w) ** 2, 0.0)
            samples[i] = float(p @ tilde_sq)
        target = float(np.sum(p * losses[c_probe] ** 2 / w))
        se = samples.std(ddof=1) / np.sqrt(n)
        assert abs(samples.mean() - target) <= 3 * se


class TestGuards:
    def test_requires_self_loops(self):
        graph = FeedbackGraph([(1, 2), (0, 2), (0, 1)])  # loopless complete
        with pytest.raises(ValueError, match="self-loop"):
            KnownDistLearner(graph, NU, eta=0.1)

    def test_requires_positive_eta(self):
        graph = build_graph(GraphSpec(kind="self_loops_only", num_arms=4))
        with pytest.raises(ValueError):
            KnownDistLearner(graph, NU, eta=0.0)

    def test_rejects_nan_eta(self):
        graph = build_graph(GraphSpec(kind="self_loops_only", num_arms=4))
        with pytest.raises(ValueError, match="eta"):
            KnownDistLearner(graph, NU, eta=float("nan"))

    def test_rejects_infinite_eta(self):
        graph = build_graph(GraphSpec(kind="self_loops_only", num_arms=4))
        with pytest.raises(ValueError, match="finite"):
            KnownDistLearner(graph, NU, eta=float("inf"))

    def test_default_learning_rate_formula(self):
        assert default_learning_rate(16, 4096, 4) == pytest.approx(
            np.sqrt(np.log(16) / (4 * 4096)))

    def test_inverse_bound_check_passes_on_normal_run(self):
        graph, lrn = make(GraphSpec(kind="disjoint_cliques", clique_sizes=(4, 4)), eta=0.05)
        oracle = StochasticGapOracle(gap_means(4, 8, best_stride=3), num_rounds=400, seed=2)
        rng = np.random.default_rng(3)
        for t in range(400):
            c = sample_context(NU, rng.random(1))
            a = lrn.act(t, c, rng.random(1)).arm[0]
            lrn.update([reveal(oracle, graph, t, a)])

    def test_inverse_bound_violation_raises(self):
        graph, lrn = make(GraphSpec(kind="self_loops_only", num_arms=4))
        p_bar = NU @ lrn.distributions()
        w = np.full((1, 4), 1e-12)  # forged importances make the mass blow up
        with pytest.raises(InvariantViolation, match="round"):
            lrn._check_inverse_bound(p_bar, w)

    def test_inverse_bound_violation_names_its_replicate_and_round(self, monkeypatch):
        # The check runs for every replicate of a batch every CHECK_EVERY
        # rounds; the fifth check (replicate 1 at the second check round) is
        # forged to fail.
        graph, lrn = make(GraphSpec(kind="disjoint_cliques", clique_sizes=(2, 2)),
                          replicates=3)
        real, checked = known.graph_inverse_bound, []

        def forged(p_bar, graph, eps, in_mass):
            checked.append(lrn.t)
            lhs, rhs = real(p_bar, graph, eps=eps, in_mass=in_mass)
            return (rhs + 1.0, rhs) if len(checked) == 5 else (lhs, rhs)

        monkeypatch.setattr(known, "graph_inverse_bound", forged)
        every = KnownDistLearner.CHECK_EVERY
        oracle = StochasticGapOracle(gap_means(4, 4, best_stride=1), num_rounds=2 * every,
                                     seed=0)
        rng = np.random.default_rng(1)
        with pytest.raises(InvariantViolation,
                           match=f"^replicate 1 of the batch, round {2 * every}: inverse"):
            for t in range(2 * every):
                a = lrn.act(t, sample_context(NU, rng.random(3)), rng.random(3)).arm
                lrn.update([reveal(oracle, graph, t, a_r) for a_r in a])
        assert checked == [every] * 3 + [2 * every] * 2
