"""Property tests of the learner contract (``environment.Play``) on random
small self-looped graphs, for every algorithm the harness can run."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossbandit.environment import TableOracle, reveal, sample_context
from crossbandit.graph import FeedbackGraph, GraphSpec
from crossbandit.harness import ALGOS, OracleSpec, RunConfig, make_learner, run_batch, \
    run_replicate, summarize_regret, validate_config
from crossbandit.unknown import EpochLearner, PairRecord

L = 4  # epoch length of the epoch learner


@st.composite
def self_looped_graphs(draw):
    K = draw(st.integers(min_value=2, max_value=6))
    edges = draw(st.lists(st.booleans(), min_size=K * K, max_size=K * K))
    return FeedbackGraph([tuple(b for b in range(K) if b == a or edges[a * K + b])
                          for a in range(K)])


def _plan(graph, algo, M, epochs, eta, seed, **kw):
    """The run plan on ``graph``. The spec only names its size: the plan's
    graph is swapped for ``graph``, which the manual schedule does not read."""
    config = RunConfig(graph=GraphSpec(kind="self_loops_only", num_arms=graph.num_arms),
                       oracle=OracleSpec(kind="stochastic_gap"), num_contexts=M,
                       horizon=epochs * L, algo=algo, seed=seed, param_mode="manual",
                       epoch_len=L, eta=eta, gamma=0.1, **kw)
    return replace(validate_config(config), graph=graph)


def play_pair(learner, plan, oracle, t, rng):
    """Rounds t and t + 1 (t even), with contexts drawn from the plan's ``nu``
    and every uniform from ``rng``. The epoch learner plays them as one pair,
    a batched learner as two batches of one. Returns each round's (context,
    arm, q, ftrl) and what the epoch learner's ``update`` returned (None for
    a batched learner)."""
    graph = plan.graph
    contexts, arm_u = sample_context(plan.nu, rng.random(2)), rng.random(2)
    if isinstance(learner, EpochLearner):
        arms, q, ftrl = learner.act(t, contexts, arm_u)
        revs = [reveal(oracle, graph, t + j, a) for j, a in enumerate(arms.tolist())]
        pair = learner.update(revs, rng.random(learner.closing_draws))
        return list(zip(contexts.tolist(), arms.tolist(), q, ftrl.tolist())), pair
    rounds = []
    for j in range(2):
        arms, q, ftrl = learner.act(t + j, contexts[j:j + 1], arm_u[j:j + 1])
        learner.update([reveal(oracle, graph, t + j, int(arms[0]))])
        rounds.append((int(contexts[j]), int(arms[0]), q[0], bool(ftrl)))
    return rounds, None


cases = dict(graph=self_looped_graphs(), algo=st.sampled_from(ALGOS),
             M=st.integers(min_value=1, max_value=3), epochs=st.integers(min_value=2, max_value=5),
             eta=st.sampled_from([0.05, 1.0, 20.0]), seed=st.integers(0, 2 ** 16))


def _assert_draws_from(q, arm):
    assert (q >= 0).all() and abs(q.sum() - 1.0) < 1e-9
    assert q[arm] > 0


@settings(max_examples=60, deadline=None)
@given(**cases)
def test_plays_and_pairs_keep_the_contract(graph, algo, M, epochs, eta, seed):
    plan = _plan(graph, algo, M, epochs, eta, seed)
    T, K = plan.config.horizon, graph.num_arms
    rng = np.random.default_rng(seed)
    oracle = TableOracle(rng.random((T, M, K)))
    learner = make_learner(plan)
    if algo != "unknown":
        for t in range(0, T, 2):
            rounds, _ = play_pair(learner, plan, oracle, t, rng)
            for _, arm, q, ftrl in rounds:
                _assert_draws_from(q, arm)
                assert ftrl
        return

    pairs = 0
    for t in range(0, T, 2):
        epoch = learner.epoch
        contexts, arm_u = sample_context(plan.nu, rng.random(2)), rng.random(2)
        play = learner.act(t, contexts, arm_u)
        assert play.arm.shape == (2,) and play.q.shape == (2, K) and play.ftrl.shape == (2,)
        for q, arm in zip(play.q, play.arm):
            _assert_draws_from(q, arm)
        # The full table, built after act, holds the bits of the rows act played.
        p, s = learner.distributions()[contexts], learner.s_cur[contexts]
        if epoch == 1:
            assert not play.ftrl.any() and np.array_equal(play.q, s)
        else:  # the rejection test, row by row
            ftrl = (p >= 0.5 * s).all(axis=1)
            assert np.array_equal(play.ftrl, ftrl)
            assert np.array_equal(play.q, np.where(ftrl[:, None], p, s))
        q_played = play.q.copy()
        revs = [reveal(oracle, graph, t + j, a) for j, a in enumerate(play.arm.tolist())]
        pair = learner.update(revs, rng.random(learner.closing_draws))
        assert np.array_equal(play.q, q_played)  # a returned q is never written
        if epoch == 1:
            assert pair is None
            continue
        assert isinstance(pair, PairRecord) and pair.t_first == t
        played = play.arm[pair.loss_offset]
        assert not (pair.used & ~graph.out_mask[played]).any()
        assert pair.losses.shape == (M, int(pair.used.sum()))
        pairs += 1
    assert pairs == (T - L) // 2


def test_the_pair_contract_rejects_misuse():
    graph = FeedbackGraph([(0, 1), (1, 2), (0, 2)])
    plan = _plan(graph, "unknown", 2, 2, 1.0, 0)
    learner = make_learner(plan)
    oracle = TableOracle(np.random.default_rng(1).random((plan.config.horizon, 2, 3)))
    u = np.array([0.3, 0.7])
    for t in (1, 2):  # an odd round, and a pair out of order
        with pytest.raises(ValueError, match="round"):
            learner.act(t, np.array([0, 1]), u)
    for contexts in ([0, 2], [-1, 0]):
        with pytest.raises(ValueError, match="context"):
            learner.act(0, np.array(contexts), u)
    revs = [reveal(oracle, graph, 0, 0), reveal(oracle, graph, 1, 0)]
    with pytest.raises(RuntimeError, match="act"):
        learner.update(revs, np.empty(0))
    arms = learner.act(0, np.array([0, 1]), u).arm.tolist()
    wrong = [reveal(oracle, graph, 0, arms[0]), reveal(oracle, graph, 1, (arms[1] + 1) % 3)]
    with pytest.raises(ValueError, match="played arm"):
        learner.update(wrong, np.empty(0))
    right = [reveal(oracle, graph, j, arms[j]) for j in range(2)]
    assert learner.update(right, np.empty(0)) is None and learner.t == 2


@settings(max_examples=30, deadline=None)
@given(**cases)
def test_traces_keep_the_contract(graph, algo, M, epochs, eta, seed):
    plan = _plan(graph, algo, M, epochs, eta, seed, diagnostics=True, trace_level="full")
    trace = run_replicate(plan, 0)
    T = plan.config.horizon
    assert np.allclose(trace.q_rows.sum(axis=1), 1.0)
    assert (trace.q_rows[np.arange(T), trace.arms] > 0).all()
    assert not (trace.used_mask & ~graph.out_mask[trace.arms]).any()
    if algo == "unknown":
        assert len(trace.epochs) == T // L
        assert [er.start_t for er in trace.epochs] == list(range(0, T, L))
        assert not trace.p_branch[:L].any()
    else:
        assert trace.epochs == [] and trace.p_branch.all() and not trace.used_mask.any()
    summary = summarize_regret(trace)
    assert np.isclose(summary.per_context_expected.sum(), summary.expected)


@pytest.mark.parametrize("algo", ["unknown"])
def test_a_state_replays_identically_across_epoch_ends(algo):
    graph = FeedbackGraph([(0, 1), (1, 2), (0, 2)])
    plan = _plan(graph, algo, 2, 6, 1.0, 0)
    oracle = TableOracle(np.random.default_rng(1).random((plan.config.horizon, 2, 3)))
    learner = make_learner(plan)

    def drive(rounds, rng):
        arms = []
        for _ in range(rounds // 2):
            arms += [a for _, a, _, _ in play_pair(learner, plan, oracle, learner.t, rng)[0]]
        return arms, learner.cum.copy(), learner.distributions().copy()

    drive(L + 2, np.random.default_rng(2))  # mid-epoch, pair boundary
    s0 = learner.state()
    # each replay crosses two epoch ends, which rebind the estimates
    first = drive(2 * L, np.random.default_rng(3))
    for _ in range(2):  # a state can be restored any number of times
        learner.restore(s0)
        again = drive(2 * L, np.random.default_rng(3))
        assert first[0] == again[0]
        assert np.array_equal(first[1], again[1]) and np.array_equal(first[2], again[2])


@pytest.mark.parametrize("trace_level", ["light", "full"])
@pytest.mark.parametrize("algo", ["known", "unknown", "per_context_exp3g", "pooled_exp3g"])
def test_the_policy_table_is_built_once_per_round(monkeypatch, algo, trace_level):
    from crossbandit import baselines, known, unknown

    calls = []

    def counted(real):
        def exp_weights(*args):
            calls.append(args)
            return real(*args)
        return exp_weights

    for module in (known, unknown, baselines):  # each module's own binding
        monkeypatch.setattr(module, "exp_weights", counted(module.exp_weights))
    graph = FeedbackGraph([(0, 1), (1, 2), (0, 2)])
    plan = _plan(graph, algo, 3, 8, 1.0, 0, trace_level=trace_level)
    if algo == "unknown":
        run_replicate(plan, 0)
    else:
        run_batch(plan, [0, 1])
    T = plan.config.horizon
    shapes = [totals.shape for totals, _ in calls]
    if algo == "known":  # one (R, M, K) table per round and batch, shared by act,
        assert shapes == [(2, 3, 3)] * T  # update and the trace
    elif algo == "unknown":
        pair_rows, tables = shapes.count((2, 3)), shapes.count((3, 3))
        assert pair_rows + tables == len(calls)
        # One snapshot per epoch end, which the next pair also plays from.
        if trace_level == "light":  # one call on its two rows per other FTRL pair
            assert (pair_rows, tables) == ((T - L) // 2 - (T // L - 1), T // L)
        else:  # the traced table per other pair serves both rounds' rows
            assert (pair_rows, tables) == (0, (T - L) // 2 + 1)
    else:  # one row per replicate and update, and at most one table when the
        assert T <= len(calls) <= T + 1  # learner is built
        assert shapes[-T:] == [(2, 3)] * T


def test_diagnostics_read_the_learners_in_mass_table(monkeypatch):
    real = FeedbackGraph.in_mass_rows
    calls = []

    def counted(self, P):
        calls.append(P.shape)
        return real(self, P)

    monkeypatch.setattr(FeedbackGraph, "in_mass_rows", counted)
    config = RunConfig(graph=GraphSpec(kind="disjoint_cliques", clique_sizes=(4, 4, 4, 4)),
                       oracle=OracleSpec(kind="stochastic_gap"), num_contexts=8,
                       horizon=1024, algo="unknown", seed=0, param_mode="manual",
                       epoch_len=64, eta=0.05, gamma=0.05, iota=6.0)
    counts = []
    for diagnostics in (False, True):
        calls.clear()
        trace = run_replicate(validate_config(replace(config, diagnostics=diagnostics)), 0)
        counts.append(len(calls))
    assert all(er.diag is not None for er in trace.epochs[1:])
    assert counts[0] == counts[1] == 1 + 1024 // 64  # the learner's first, one per epoch end


def test_the_known_learners_table_is_read_only():
    graph = FeedbackGraph([(0, 1), (1, 2), (0, 2)])
    learner = make_learner(_plan(graph, "known", 2, 2, 1.0, 0))
    with pytest.raises(ValueError):
        learner.distributions()[0, 0] = 1.0
    with pytest.raises(ValueError):
        learner.act(0, np.array([1]), np.array([0.5])).q[0, 0] = 1.0


def test_the_known_learners_table_is_read_only():
    graph = FeedbackGraph([(0, 1), (1, 2), (0, 2)])
    learner = make_learner(_plan(graph, "known", 2, 2, 1.0, 0))
    with pytest.raises(ValueError):
        learner.distributions()[0, 0] = 1.0
    with pytest.raises(ValueError):
        learner.act(0, np.array([1]), np.array([0.5])).q[0, 0] = 1.0


def test_the_epoch_learners_table_is_read_only():
    graph = FeedbackGraph([(0, 1), (1, 2), (0, 2)])
    plan = _plan(graph, "unknown", 2, 3, 1.0, 0)
    learner = make_learner(plan)
    oracle = TableOracle(np.random.default_rng(1).random((plan.config.horizon, 2, 3)))
    rng = np.random.default_rng(2)
    for t in range(0, L, 2):
        with pytest.raises(ValueError):
            learner.distributions()[0, 0] = 1.0
        play_pair(learner, plan, oracle, t, rng)
    assert learner.epoch == 2
    learner.act(L, np.array([0, 1]), rng.random(2))  # into the first FTRL pair
    with pytest.raises(ValueError):
        learner.distributions()[1, 2] = 0.0


@pytest.mark.parametrize("algo", ALGOS)
def test_returned_distributions_are_never_written(algo):
    graph = FeedbackGraph([(0, 1), (1, 2), (0, 2), (3, 0)])
    plan = _plan(graph, algo, 3, 6, 1.0, 0)
    rng = np.random.default_rng(4)
    oracle = TableOracle(rng.random((plan.config.horizon, 3, graph.num_arms)))
    learner = make_learner(plan)
    returned = []
    for t in range(0, plan.config.horizon, 2):
        rounds, _ = play_pair(learner, plan, oracle, t, rng)
        dists = learner.distributions()
        returned += [(q, q.copy()) for _, _, q, _ in rounds] + [(dists, dists.copy())]
    assert all(np.array_equal(arr, copy) for arr, copy in returned)
