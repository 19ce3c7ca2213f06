"""Property tests of the learner contract (``environment.Play``) on random
small self-looped graphs, for every algorithm the harness can run."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossbandit.environment import Play, TableOracle, reveal, sample_context
from crossbandit.graph import FeedbackGraph, GraphSpec
from crossbandit.harness import ALGOS, OracleSpec, RunConfig, make_learner, run_batch, \
    run_replicate, summarize_regret, validate_config
from crossbandit.unknown import EpochLearner, rejection_distribution

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


def act(learner, t, c, rng):
    """Round t under context c; a batched learner plays it as a batch of one
    and draws its arm from the next uniform of ``rng``."""
    if isinstance(learner, EpochLearner):
        return learner.act(t, c, rng)
    arms, q, ftrl = learner.act(t, np.array([c]), rng.random(1))
    return Play(int(arms[0]), q[0], ftrl)


def update(learner, rev, rng):
    if isinstance(learner, EpochLearner):
        return learner.update(rev, rng)
    return learner.update([rev])


cases = dict(graph=self_looped_graphs(), algo=st.sampled_from(ALGOS),
             M=st.integers(min_value=1, max_value=3), epochs=st.integers(min_value=2, max_value=5),
             eta=st.sampled_from([0.05, 1.0, 20.0]), seed=st.integers(0, 2 ** 16))


@settings(max_examples=60, deadline=None)
@given(**cases)
def test_plays_and_pairs_keep_the_contract(graph, algo, M, epochs, eta, seed):
    plan = _plan(graph, algo, M, epochs, eta, seed)
    config, nu = plan.config, plan.nu
    rng = np.random.default_rng(seed)
    oracle = TableOracle(rng.random((config.horizon, M, graph.num_arms)))
    learner = make_learner(plan)
    arms, pairs = [], 0
    for t in range(config.horizon):
        c = sample_context(nu, rng.random())
        play = act(learner, t, c, rng)
        arms.append(play.arm)
        assert (play.q >= 0).all() and abs(play.q.sum() - 1.0) < 1e-9
        assert play.q[play.arm] > 0
        if algo != "unknown":
            assert play.ftrl
        elif learner.epoch == 1:
            assert not play.ftrl and np.array_equal(play.q, learner.s_cur[c])
        else:
            q, ftrl = rejection_distribution(learner.distributions()[c], learner.s_cur[c])
            assert play.ftrl == ftrl and np.array_equal(play.q, q)
        pair = update(learner, reveal(oracle, graph, t, play.arm), rng)
        if pair is not None:
            assert algo == "unknown" and t % 2 == 1
            played = arms[pair.t_first + pair.loss_offset]
            assert not (pair.used & ~graph.out_mask[played]).any()
            assert pair.losses.shape == (M, int(pair.used.sum()))
            pairs += 1
    assert pairs == ((config.horizon - L) // 2 if algo == "unknown" else 0)


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
    nu = plan.nu
    oracle = TableOracle(np.random.default_rng(1).random((plan.config.horizon, 2, 3)))
    learner = make_learner(plan)

    def drive(rounds, rng):
        arms = []
        for _ in range(rounds):
            t = learner.t
            arms.append(act(learner, t, sample_context(nu, rng.random()), rng).arm)
            update(learner, reveal(oracle, graph, t, arms[-1]), rng)
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
        rows = sum(totals.ndim == 1 for totals, _ in calls)
        tables = sum(totals.ndim == 2 for totals, _ in calls)
        assert rows + tables == len(calls)
        # One snapshot per epoch end, which the next pair also plays from.
        if trace_level == "light":  # one row per other FTRL round
            assert (rows, tables) == (T - L - 2 * (T // L - 1), T // L)
        else:  # the traced table per other pair serves both rounds' rows
            assert (rows, tables) == (0, (T - L) // 2 + 1)
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


def test_the_epoch_learners_table_is_read_only():
    graph = FeedbackGraph([(0, 1), (1, 2), (0, 2)])
    plan = _plan(graph, "unknown", 2, 3, 1.0, 0)
    learner = make_learner(plan)
    oracle = TableOracle(np.random.default_rng(1).random((plan.config.horizon, 2, 3)))
    rng = np.random.default_rng(2)
    for t in range(L + 1):  # into the first FTRL pair
        with pytest.raises(ValueError):
            learner.distributions()[0, 0] = 1.0
        play = learner.act(t, t % 2, rng)
        learner.update(reveal(oracle, graph, t, play.arm), rng)
    assert learner.epoch == 2
    with pytest.raises(ValueError):
        learner.distributions()[1, 2] = 0.0


@pytest.mark.parametrize("algo", ALGOS)
def test_returned_distributions_are_never_written(algo):
    graph = FeedbackGraph([(0, 1), (1, 2), (0, 2), (3, 0)])
    plan = _plan(graph, algo, 3, 6, 1.0, 0)
    nu = plan.nu
    rng = np.random.default_rng(4)
    oracle = TableOracle(rng.random((plan.config.horizon, 3, graph.num_arms)))
    learner = make_learner(plan)
    returned = []
    for t in range(plan.config.horizon):
        play = act(learner, t, sample_context(nu, rng.random()), rng)
        dists = learner.distributions()
        returned += [(play.q, play.q.copy()), (dists, dists.copy())]
        update(learner, reveal(oracle, graph, t, play.arm), rng)
    assert all(np.array_equal(arr, copy) for arr, copy in returned)
