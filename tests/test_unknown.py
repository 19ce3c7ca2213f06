import copy
import math

import numpy as np
import pytest

from crossbandit.acceptance import _play_pairs
from crossbandit.environment import StochasticGapOracle, TableOracle, gap_means, reveal
from crossbandit.graph import FeedbackGraph, GraphSpec, build_graph
from crossbandit.harness import pair_tape
from crossbandit.simplex import exp_weights
from crossbandit.unknown import (
    EpochLearner,
    PairRecord,
    ParamSchedule,
    accept_probability,
    even_divisors,
    nearest_compatible_horizon,
    schedule_params,
    tuned_schedule,
)

NU = np.array([0.4, 0.3, 0.2, 0.1])


def drive(learner, graph, oracle, nu, rng, rounds):
    """Play ``rounds`` (even) rounds from the learner's next round, drawing
    each pair's uniforms as ``harness.pair_tape`` does."""
    for _ in range(rounds // 2):
        _play_pairs(learner, graph, oracle, *pair_tape(rng, nu, 1, learner.closing_draws))


class TestSchedule:
    def test_horizon_formula_values(self):
        s = schedule_params(16, 4096, 4)
        iota = 2 * math.log(8 * 16 * 4096 ** 2)
        assert s.iota == pytest.approx(iota, rel=1e-12)
        assert s.epoch_len == 512  # the even divisor of T closest to the formula's 503.9
        assert s.gamma == pytest.approx(16 * iota / 512, rel=1e-12)
        assert s.eta == pytest.approx(s.gamma / (2 * (2 * 512 * s.gamma + iota)), rel=1e-12)

    def test_epoch_len_grows_with_alpha(self):
        T = 2 ** 22  # the formula gives 10342 and 41368, which snap to 2^13 and 2^15
        l1 = schedule_params(16, T, 1).epoch_len
        lk = schedule_params(16, T, 16).epoch_len
        assert lk / l1 == pytest.approx(4.0, rel=1e-2)

    def test_tuned_scale_rescales_gamma_and_eta(self):
        base = schedule_params(16, 4096, 4)
        scaled = schedule_params(16, 4096, 4, tuned_scale=0.01)
        assert scaled.gamma == pytest.approx(0.01 * base.gamma, rel=1e-12)
        assert scaled.eta == pytest.approx(
            scaled.gamma / (2 * (2 * scaled.epoch_len * scaled.gamma + scaled.iota)),
            rel=1e-12)

    def test_epoch_len_snaps_to_even_divisor(self):
        s = schedule_params(16, 2 ** 14, 4)
        assert 2 ** 14 % s.epoch_len == 0
        assert s.epoch_len == 1024  # closest even divisor to the formula value

    def test_no_even_divisor_rejected(self):
        with pytest.raises(ValueError, match="no even divisor"):
            schedule_params(16, 15, 4)

    @pytest.mark.parametrize("scale", [math.nan, math.inf, -math.inf])
    def test_non_finite_tuned_scale_is_named(self, scale):
        with pytest.raises(ValueError, match="tuned_scale"):
            schedule_params(16, 4096, 4, tuned_scale=scale)

    def test_nearest_compatible_horizon(self):
        assert nearest_compatible_horizon(1000, 504) == 1008
        assert nearest_compatible_horizon(100, 504) == 1008  # at least two epochs

    def test_even_divisors(self):
        assert even_divisors(16) == [2, 4, 8]
        assert even_divisors(15) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            ParamSchedule(iota=6.0, epoch_len=33, gamma=0.1, eta=0.01)
        with pytest.raises(ValueError):
            ParamSchedule(iota=6.0, epoch_len=32, gamma=0.0, eta=0.01)
        for gamma, iota in [(math.inf, 6.0), (0.1, math.inf)]:
            with pytest.raises(ValueError, match="finite"):
                ParamSchedule(iota=iota, epoch_len=32, gamma=gamma, eta=0.01)
        with pytest.raises(ValueError):
            schedule_params(1, 4096, 4)
        with pytest.raises(ValueError):
            schedule_params(16, 2, 4)

    def test_tuned_schedule_shapes(self):
        s = tuned_schedule(16, 2 ** 14, 4)
        assert 2 ** 14 % s.epoch_len == 0
        assert s.epoch_len == 256  # sqrt(alpha T) exactly, already a divisor
        assert s.eta == pytest.approx(0.5 * math.sqrt(math.log(16) / (4 * 2 ** 14)))
        assert s.gamma == pytest.approx(2.0 / 256)


def play_from(p, s, graph=None):
    """The pair an epoch-2 learner plays under contexts 0 and 1 when its FTRL
    table is ``exp_weights(-log p)`` (p up to rounding) and its running
    snapshot is ``s``; returns the play and the FTRL table."""
    p, s = np.atleast_2d(p), np.atleast_2d(s)
    graph = graph or build_graph(GraphSpec(kind="self_loops_only", num_arms=p.shape[1]))
    lrn = EpochLearner(graph, len(p), ParamSchedule(iota=6.0, epoch_len=2, gamma=0.1, eta=1.0))
    lrn.epoch, lrn.s_cur, lrn.cum = 2, s, -np.log(p)
    contexts = np.array([0, 1]) if len(p) > 1 else np.array([0, 0])
    dists = lrn.distributions()
    return lrn.act(0, contexts, np.array([0.3, 0.7])), dists[contexts]


class TestRejection:
    def test_equal_rows_keep_ftrl(self):
        p = np.array([0.25, 0.25, 0.5])
        play, ftrl_rows = play_from(p, p.copy())
        assert play.ftrl.all() and np.array_equal(play.q, ftrl_rows)

    def test_collapsed_arm_falls_back(self):
        s = np.array([[0.4, 0.4, 0.2], [0.4, 0.4, 0.2]])
        p = np.array([[0.45, 0.45, 0.05],  # arm 2 fell below s/2 = 0.1
                      [0.4, 0.4, 0.2]])
        play, ftrl_rows = play_from(p, s)
        assert play.ftrl.tolist() == [False, True]  # the test runs row by row
        assert np.array_equal(play.q[0], s[0]) and np.array_equal(play.q[1], ftrl_rows[1])

    def test_uniform_state_keeps_ftrl(self):
        u = np.full(4, 0.25)
        play, _ = play_from(u, u.copy())
        assert play.ftrl.all()


class TestAcceptProbability:
    def test_snapshot_branch_is_half(self):
        g = build_graph(GraphSpec(kind="erdos_renyi", num_arms=6, edge_prob=0.4), rng_seed=1)
        s = np.random.default_rng(0).dirichlet(np.ones(6))
        assert np.array_equal(accept_probability(g.in_mass(s), g.in_mass(s)), np.full(6, 0.5))

    def test_complete_graph_is_half(self):
        g = build_graph(GraphSpec(kind="complete_with_self_loops", num_arms=4))
        s = np.array([0.1, 0.2, 0.3, 0.4])
        q = np.array([0.4, 0.3, 0.2, 0.1])
        assert np.allclose(accept_probability(g.in_mass(s), g.in_mass(q)), 0.5)

    def test_self_loops_direct_ratio(self):
        g = build_graph(GraphSpec(kind="self_loops_only", num_arms=2))
        s = np.array([0.2, 0.8])
        q = np.array([0.3, 0.7])
        assert accept_probability(g.in_mass(s), g.in_mass(q)) == \
            pytest.approx([0.2 / 0.6, 0.8 / 1.4])

    def test_ftrl_branch_never_exceeds_one(self):
        g = build_graph(GraphSpec(kind="erdos_renyi", num_arms=8, edge_prob=0.3), rng_seed=5)
        rng = np.random.default_rng(7)
        for _ in range(200):
            s = rng.dirichlet(np.ones(8), size=2)
            p = rng.dirichlet(np.ones(8), size=2)
            q = play_from(p, s, graph=g)[0].q
            assert (accept_probability(g.in_mass_rows(s), g.in_mass_rows(q)) <= 1.0 + 1e-12).all()


def fresh_learner(spec, epoch_len=32, gamma=0.05, eta=0.01, M=4, seed=2):
    graph = build_graph(spec, rng_seed=seed)
    params = ParamSchedule(iota=6.0, epoch_len=epoch_len, gamma=gamma, eta=eta)
    return graph, EpochLearner(graph, M, params)


class TestFirstEpoch:
    @pytest.mark.parametrize("spec,expected", [
        (GraphSpec(kind="self_loops_only", num_arms=8), 1 / 16),
        (GraphSpec(kind="complete_with_self_loops", num_arms=8), 1 / 2),
    ])
    def test_first_epoch_importance_is_exact(self, spec, expected):
        graph, lrn = fresh_learner(spec)
        oracle = StochasticGapOracle(gap_means(4, 8, best_stride=3), num_rounds=64, seed=1)
        rng = np.random.default_rng(0)
        drive(lrn, graph, oracle, NU, rng, 32)
        assert lrn.epoch == 2
        assert np.allclose(lrn.w_hat, expected)

    def test_first_epoch_importance_counts_in_neighbors(self):
        graph, lrn = fresh_learner(GraphSpec(kind="erdos_renyi", num_arms=8, edge_prob=0.3))
        oracle = StochasticGapOracle(gap_means(4, 8, best_stride=3), num_rounds=64, seed=1)
        rng = np.random.default_rng(0)
        drive(lrn, graph, oracle, NU, rng, 32)
        in_degrees = np.array([len(ns) for ns in graph.in_neighbors])
        assert np.allclose(lrn.w_hat, in_degrees / 16)

    def test_no_loss_estimates_in_first_epoch(self):
        graph, lrn = fresh_learner(GraphSpec(kind="self_loops_only", num_arms=8))
        oracle = StochasticGapOracle(gap_means(4, 8, best_stride=3), num_rounds=64, seed=1)
        rng = np.random.default_rng(0)
        drive(lrn, graph, oracle, NU, rng, 32)
        assert np.count_nonzero(lrn.cum) == 0

    def test_plays_uniform_in_first_epoch(self):
        graph, lrn = fresh_learner(GraphSpec(kind="self_loops_only", num_arms=8))
        play = lrn.act(0, np.array([1, 3]), np.array([0.3, 0.7]))
        assert play.q.shape == (2, 8) and np.allclose(play.q, 1 / 8)
        assert not play.ftrl.any()


class TestEpochRoll:
    def test_zero_losses_keep_snapshots_uniform(self):
        graph, lrn = fresh_learner(GraphSpec(kind="self_loops_only", num_arms=4))
        oracle = TableOracle(np.zeros((128, 4, 4)))
        rng = np.random.default_rng(1)
        drive(lrn, graph, oracle, NU, rng, 128)
        assert lrn.epoch == 5
        assert np.allclose(lrn.s_cur, 0.25)
        assert np.allclose(lrn.s_next, 0.25)

    def test_snapshots_never_mutate_after_fixing(self):
        graph, lrn = fresh_learner(GraphSpec(kind="disjoint_cliques", clique_sizes=(2, 2)))
        oracle = StochasticGapOracle(gap_means(4, 4, best_stride=1), num_rounds=256, seed=5)
        rng = np.random.default_rng(2)
        drive(lrn, graph, oracle, NU, rng, 32)
        frozen = lrn.s_cur
        copy = frozen.copy()
        drive(lrn, graph, oracle, NU, rng, 64)
        assert np.array_equal(frozen, copy)

    def test_snapshot_matches_cum_at_epoch_end(self):
        graph, lrn = fresh_learner(GraphSpec(kind="disjoint_cliques", clique_sizes=(2, 2)))
        oracle = StochasticGapOracle(gap_means(4, 4, best_stride=1), num_rounds=256, seed=5)
        rng = np.random.default_rng(3)
        drive(lrn, graph, oracle, NU, rng, 64)
        from crossbandit.simplex import exp_weights
        assert np.allclose(lrn.s_next, exp_weights(lrn.cum, lrn.params.eta))

    def test_premature_end_epoch_rejected(self):
        graph, lrn = fresh_learner(GraphSpec(kind="self_loops_only", num_arms=4))
        oracle = TableOracle(np.zeros((4, 4, 4)))
        rng = np.random.default_rng(1)
        drive(lrn, graph, oracle, NU, rng, 2)
        with pytest.raises(RuntimeError, match="consumed"):
            lrn.end_epoch()


class TestPairMechanics:
    def test_zero_losses_leave_cum_unchanged(self):
        graph, lrn = fresh_learner(GraphSpec(kind="self_loops_only", num_arms=4))
        oracle = TableOracle(np.zeros((128, 4, 4)))
        rng = np.random.default_rng(4)
        drive(lrn, graph, oracle, NU, rng, 96)
        assert np.count_nonzero(lrn.cum) == 0

    def test_increment_magnitude_is_exact(self):
        # constant losses make every nonzero increment equal 2*loss/(w_hat + 1.5*gamma)
        graph, lrn = fresh_learner(GraphSpec(kind="self_loops_only", num_arms=4),
                                   gamma=0.125)
        loss_val = 0.75
        oracle = TableOracle(np.full((128, 4, 4), loss_val))
        rng = np.random.default_rng(5)
        drive(lrn, graph, oracle, NU, rng, 32)  # first epoch: w_hat = 1/8
        before = lrn.cum.copy()
        drive(lrn, graph, oracle, NU, rng, 32)
        deltas = (lrn.cum - before).ravel()
        nonzero = deltas[deltas > 0]
        expected = 2 * loss_val / (1 / 8 + 1.5 * 0.125)
        assert len(nonzero) >= 1
        multiples = nonzero / expected  # increments stack across the epoch's pairs
        assert np.allclose(multiples, np.round(multiples), atol=1e-9)

    def test_update_requires_matching_act(self):
        graph, lrn = fresh_learner(GraphSpec(kind="self_loops_only", num_arms=4))
        oracle = TableOracle(np.zeros((4, 4, 4)))
        revs = [reveal(oracle, graph, 0, 2), reveal(oracle, graph, 1, 2)]
        with pytest.raises(RuntimeError, match="act"):
            lrn.update(revs, np.empty(0))

    def test_wrong_round_rejected(self):
        graph, lrn = fresh_learner(GraphSpec(kind="self_loops_only", num_arms=4))
        with pytest.raises(ValueError, match="round"):
            lrn.act(6, np.array([0, 0]), np.array([0.5, 0.5]))

    def test_trajectory_deterministic_under_seed(self):
        arms = []
        for _ in range(2):
            graph, lrn = fresh_learner(GraphSpec(kind="disjoint_cliques", clique_sizes=(2, 2)))
            oracle = StochasticGapOracle(gap_means(4, 4, best_stride=1), num_rounds=200, seed=6)
            rng = np.random.default_rng(123)
            seq = []
            for _ in range(96):
                t = lrn.t
                contexts, arm_u, closing_u = pair_tape(rng, NU, 1, lrn.closing_draws)
                pair = lrn.act(t, contexts[0], arm_u[0]).arm.tolist()
                lrn.update([reveal(oracle, graph, t + j, pair[j]) for j in range(2)], closing_u[0])
                seq += pair
            arms.append(seq)
        assert arms[0] == arms[1]


class TestEstimatorMoments:
    def _frozen_pair_state(self, seed=31):
        graph, lrn = fresh_learner(GraphSpec(kind="erdos_renyi", num_arms=8, edge_prob=0.25),
                                   M=4, seed=3)
        oracle = StochasticGapOracle(gap_means(4, 8, best_stride=3), num_rounds=512, seed=seed)
        rng = np.random.default_rng(seed)
        drive(lrn, graph, oracle, NU, rng, 2 * lrn.epoch_len + 4)  # epoch 3, round 4
        return graph, lrn, rng

    def test_pair_increment_conditional_mean(self):
        graph, lrn, rng = self._frozen_pair_state()
        M, K = lrn.num_contexts, lrn.num_arms
        losses = 0.1 + 0.8 * np.random.default_rng(0).random((M, K))
        dense = TableOracle(np.stack([losses, losses]))  # same losses both rounds
        w_exact = (NU @ graph.in_mass_rows(lrn.s_cur)) / 2.0
        target = 2.0 * losses * w_exact / (lrn.w_hat + 1.5 * lrn.params.gamma)

        n = 20_000
        total = np.zeros((M, K))
        used_counts = np.zeros(K)
        for _ in range(n):
            replay = copy.copy(lrn)
            pair = _play_pairs(replay, graph, dense, *pair_tape(rng, NU, 1, lrn.closing_draws))
            total += replay.cum - lrn.cum
            used_counts += pair.used
        mean_inc = total / n
        p_hat = used_counts / n
        jump = 2.0 * losses / (lrn.w_hat + 1.5 * lrn.params.gamma)
        se = jump * np.sqrt(p_hat * (1 - p_hat) / n)
        assert np.all(np.abs(mean_inc - target) <= 3 * se + 1e-12)

    def test_used_feedback_rate(self):
        graph, lrn, rng = self._frozen_pair_state(seed=33)
        M, K = lrn.num_contexts, lrn.num_arms
        dense = TableOracle(0.5 * np.ones((2, M, K)))
        w_exact = (NU @ graph.in_mass_rows(lrn.s_cur)) / 2.0
        n = 20_000
        used_counts = np.zeros(K)
        for _ in range(n):
            pair = _play_pairs(copy.copy(lrn), graph, dense,
                               *pair_tape(rng, NU, 1, lrn.closing_draws))
            used_counts += pair.used
        rate = used_counts / n
        se = np.sqrt(rate * (1 - rate) / n)
        assert np.all(np.abs(rate - w_exact) <= 3 * se + 1e-12)

    def test_importance_estimate_unbiased_small(self):
        graph, lrn = fresh_learner(GraphSpec(kind="erdos_renyi", num_arms=8, edge_prob=0.25),
                                   M=4, seed=3)
        oracle = StochasticGapOracle(gap_means(4, 8, best_stride=3), num_rounds=512, seed=35)
        rng = np.random.default_rng(35)
        L = lrn.epoch_len
        drive(lrn, graph, oracle, NU, rng, 2 * L)  # epoch 3, round 0
        w_next = (NU @ graph.in_mass_rows(lrn.s_next)) / 2.0
        n = 2_000
        total = np.zeros(8)
        total_sq = np.zeros(8)
        for _ in range(n):
            replay = copy.copy(lrn)
            _play_pairs(replay, graph, oracle, *pair_tape(rng, NU, L // 2, lrn.closing_draws))
            total += replay.w_hat
            total_sq += replay.w_hat ** 2
        mean = total / n
        se = np.sqrt(np.maximum(total_sq / n - mean ** 2, 0) / n)
        assert np.all(np.abs(mean - w_next) <= 3 * se + 1e-12)


class TestGuards:
    def test_requires_self_loops(self):
        graph = FeedbackGraph([(1, 2), (0, 2), (0, 1)])
        with pytest.raises(ValueError, match="self-loop"):
            EpochLearner(graph, 4, ParamSchedule(iota=6.0, epoch_len=32, gamma=0.1, eta=0.01))


class PairTableLearner(EpochLearner):
    """Reference: the learner as it was before it built single rows. Each pair
    builds the whole (M, K) FTRL table and its (M, K) in-mass table, plays the
    drawn contexts' rows of the first, and thins the loss round with a row of
    the second."""

    def act(self, t, contexts, u):
        if self.epoch > 1:
            self._dists = exp_weights(self.cum, self.params.eta)
            self._pair_in = self.graph.in_mass_rows(self._dists)
        return super().act(t, contexts, u)

    def update(self, revs, u):
        if self.epoch == 1:
            return super().update(revs, u)
        (c1, c2), (a1, a2), play = self._played
        self._played = None
        self._dists = None
        L, gamma = self.epoch_len, self.params.gamma
        first_is_freq = u[0] < 0.5
        if first_is_freq:
            cf, cl, al, bl, revl, loss_offset = c1, c2, a2, play.ftrl[1], revs[1], 1
        else:
            cf, cl, al, bl, revl, loss_offset = c2, c1, a1, play.ftrl[0], revs[0], 0
        self.w_hat_acc += self._s_next_in[cf] / (2.0 * (L // 2))
        q_in = self._pair_in[cl] if bl else self.s_cur_in[cl]
        S = u[1:] < accept_probability(self.s_cur_in[cl], q_in)
        used = self.graph.out_mask[al] & S
        used_cols = used[revl.arms]
        arms_used = revl.arms[used_cols]
        losses = revl.losses[:, used_cols]
        if used.any():
            self.cum[:, arms_used] += 2.0 * losses / (self.w_hat[arms_used] + 1.5 * gamma)
        record = PairRecord(t_first=self.t, loss_offset=loss_offset, used=used, losses=losses)
        self.pos += 2
        self.t += 2
        if self.pos == L:
            self.end_epoch()
        return record


def _run_with(monkeypatch, config, graph, learner_cls):
    """run_replicate on ``graph`` with the epoch learner built as
    ``learner_cls``; returns the trace and the learner."""
    from dataclasses import replace

    from crossbandit import harness

    built = []

    def make_learner(plan):
        built.append(learner_cls(plan.graph, plan.config.num_contexts, plan.schedule))
        return built[0]

    monkeypatch.setattr(harness, "make_learner", make_learner)
    plan = replace(harness.validate_config(config), graph=graph,
                   schedule=harness.resolve_schedule(config, graph))
    return harness.run_replicate(plan, 0), built[0]


@pytest.mark.parametrize("seed", [3, 17, 101])
@pytest.mark.parametrize("setup", ["cliques", "er"])
def test_single_rows_replay_the_per_pair_tables_bit_for_bit(monkeypatch, setup, seed):
    from crossbandit.harness import OracleSpec, RunConfig

    if setup == "cliques":
        spec, M, T = GraphSpec.parse("cliques:4x4"), 8, 2048
        s = tuned_schedule(16, T, 4)
        params = dict(param_mode="manual", epoch_len=s.epoch_len, eta=s.eta, gamma=s.gamma,
                      iota=s.iota)
    else:
        spec, M, T = GraphSpec.parse("er:48:0.1"), 256, 2048
        params = dict(param_mode="auto", tuned_scale=0.02)
    graph = build_graph(spec, rng_seed=0)
    config = RunConfig(graph=spec, oracle=OracleSpec(kind="stochastic_gap"), num_contexts=M,
                       horizon=T, algo="unknown", seed=seed, diagnostics=True, **params)
    ref, ref_learner = _run_with(monkeypatch, config, graph, PairTableLearner)
    new, new_learner = _run_with(monkeypatch, config, graph, EpochLearner)
    assert len(new.epochs) >= 4 and not new.p_branch.all() and new.p_branch[T // 2:].any()
    for name in ("arms", "p_branch", "used_mask"):
        assert getattr(new, name).tobytes() == getattr(ref, name).tobytes(), name
    assert [er.w_hat.tobytes() for er in new.epochs] == [er.w_hat.tobytes() for er in ref.epochs]
    assert new_learner.cum.tobytes() == ref_learner.cum.tobytes()
