import json
import math
from dataclasses import fields, is_dataclass

import numpy as np
import pytest

from crossbandit import environment, harness
from crossbandit.graph import GraphSpec
from crossbandit.harness import (
    ALGOS,
    ConfigError,
    OracleSpec,
    RunConfig,
    _replicate_seeds,
    config_for_axis,
    fit_scaling,
    make_learner,
    oracle_source,
    regret_curves,
    run,
    run_batch,
    run_plan,
    run_replicate,
    run_sweep,
    summarize_regret,
    validate_config,
    write_curves_csv,
    write_report_json,
    write_sweep_csv,
)

GAP = OracleSpec(kind="stochastic_gap", gap=0.2, base=0.4, best_stride=3)


def small_config(**kw):
    base = dict(
        graph=GraphSpec(kind="disjoint_cliques", clique_sizes=(2, 2)),
        oracle=GAP, num_contexts=4, horizon=256, algo="known", seed=11,
        replicates=2,
    )
    base.update(kw)
    return RunConfig(**base)


def hindsight_policy(loss_sums):
    """The hindsight policy ``summarize_regret`` reports for these loss sums."""
    M, K = loss_sums.shape
    trace = harness._empty_trace(small_config(horizon=0, num_contexts=M), 0, K)
    trace.loss_sums = loss_sums
    return summarize_regret(trace).best_policy


class TestBestPolicy:
    def test_single_context_argmin(self):
        sums = np.array([[3.0, 1.0, 2.0]])
        assert hindsight_policy(sums).tolist() == [1]

    def test_ties_break_low(self):
        sums = np.full((3, 4), 2.0)
        assert hindsight_policy(sums).tolist() == [0, 0, 0]

    def test_never_drawn_context_gets_arm_zero(self):
        sums = np.array([[0.0, 0.0], [0.3, 0.1]])
        assert hindsight_policy(sums).tolist() == [0, 1]

    def test_matches_exhaustive_argmin_on_table(self):
        rng = np.random.default_rng(0)
        tensor = rng.random((5, 3, 4))
        contexts = rng.integers(0, 3, size=5)
        sums = np.zeros((3, 4))
        for t, c in enumerate(contexts):
            sums[c] += tensor[t, c]
        pi = hindsight_policy(sums)
        for c in range(3):
            best = min(range(4), key=lambda a: (sums[c, a], a))
            assert pi[c] == best


class TestRun:
    def test_zero_horizon(self):
        res = run(small_config(horizon=0, replicates=1))
        assert res.summaries[0].expected == 0.0
        assert res.traces[0].horizon == 0

    def test_epoch_count_matches_horizon(self):
        cfg = small_config(algo="unknown", horizon=256, replicates=1,
                           param_mode="manual", epoch_len=32, eta=0.01,
                           gamma=0.05, iota=6.0)
        res = run(cfg)
        assert len(res.traces[0].epochs) == 256 // 32

    def test_uniform_regret_matches_closed_form(self):
        # uniform play on a gap instance: per-round regret = gap * (K-1)/K
        cfg = small_config(algo="uniform", horizon=512, replicates=20,
                          oracle=OracleSpec(kind="stochastic_gap", gap=0.2,
                                            base=0.4, best_stride=1))
        res = run(cfg, keep_traces=False)
        expected = 512 * 0.2 * 3 / 4
        # hindsight comparator beats the fixed best arm slightly; allow noise both ways
        se = res.std_expected / math.sqrt(len(res.summaries))
        assert abs(res.mean_expected - expected) <= 3 * se + 0.05 * expected

    def test_expected_and_realized_agree_on_average(self):
        cfg = small_config(horizon=512, replicates=20)
        res = run(cfg, keep_traces=False)
        diffs = [s.expected - s.realized for s in res.summaries]
        se = np.std(diffs, ddof=1) / math.sqrt(len(diffs))
        assert abs(np.mean(diffs)) <= 3 * se + 1e-9

    def test_expected_form_has_smaller_variance(self):
        cfg = small_config(horizon=512, replicates=20)
        res = run(cfg, keep_traces=False)
        exp = [s.expected for s in res.summaries]
        real = [s.realized for s in res.summaries]
        assert np.var(exp) < np.var(real)

    def test_per_context_decomposition_sums_to_total(self):
        res = run(small_config(replicates=1))
        s = res.summaries[0]
        assert s.expected == pytest.approx(float(s.per_context_expected.sum()), abs=1e-9)

    def test_trace_is_deterministic(self, tmp_path):
        cfg = small_config(trace_level="full", replicates=1)
        p1, p2 = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
        run(cfg).traces[0].write_ndjson(p1)
        run(cfg).traces[0].write_ndjson(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_each_oracle_chunk_is_built_once(self, monkeypatch):
        # M = 256 and K = 48 give 21-round chunks, so the pairs (20, 21),
        # (62, 63), ... straddle a chunk boundary; the oracle keeps one chunk.
        built = []
        real = environment.StochasticGapOracle._make_chunk

        def counted(self, j):
            built.append(j)
            return real(self, j)

        monkeypatch.setattr(environment.StochasticGapOracle, "_make_chunk", counted)
        cfg = small_config(algo="unknown", graph=GraphSpec(kind="self_loops_only", num_arms=48),
                           num_contexts=256, horizon=168, replicates=1, param_mode="manual",
                           epoch_len=42, eta=0.05, gamma=0.05, iota=6.0)
        run(cfg)
        assert built == list(range(8))  # ceil(168 / 21) chunks, in order

    def test_different_seeds_differ(self):
        r1 = run(small_config(seed=1, replicates=1))
        r2 = run(small_config(seed=2, replicates=1))
        assert not np.array_equal(r1.traces[0].arms, r2.traces[0].arms)

    def test_snapshot_branch_audit(self):
        # every snapshot-branch round has some arm below half its snapshot mass
        cfg = small_config(algo="unknown", horizon=512, replicates=1,
                          param_mode="manual", epoch_len=32, eta=0.05,
                          gamma=0.02, iota=6.0, trace_level="full",
                          diagnostics=True)
        res = run(cfg)
        tr = res.traces[0]
        fallback = np.flatnonzero(~tr.p_branch)
        fallback = fallback[fallback >= 32]  # skip the uniform first epoch
        assert len(fallback) > 0  # aggressive eta forces some fallbacks
        # reconstruct the check from the trace's full play distributions:
        # on fallback rounds the played row equals the epoch snapshot
        for t in fallback[:20]:
            er = [e for e in tr.epochs if e.start_t <= t][-1]
            c = tr.contexts[t]
            assert np.allclose(tr.q_rows[t], er.s_cur[c])


class TestValidation:
    def test_manual_epoch_mismatch_suggests_horizon(self):
        cfg = small_config(algo="unknown", horizon=1000, param_mode="manual",
                           epoch_len=504, eta=0.01, gamma=0.05)
        with pytest.raises(ConfigError, match="1008"):
            validate_config(cfg)

    def test_auto_mode_snaps_epoch_length(self):
        cfg = small_config(algo="unknown", horizon=4096, param_mode="auto",
                           tuned_scale=0.02,
                           graph=GraphSpec(kind="disjoint_cliques",
                                           clique_sizes=(4, 4, 4, 4)),
                           num_contexts=8)
        sched = validate_config(cfg).schedule
        assert 4096 % sched.epoch_len == 0

    def test_rejects_unknown_algo(self):
        with pytest.raises(ConfigError, match="algo"):
            validate_config(small_config(algo="bogus"))

    def test_rejects_bad_nu_length(self):
        with pytest.raises(ValueError):
            validate_config(small_config(nu=(0.5, 0.5)))

    @pytest.mark.parametrize("algo", ALGOS)
    def test_rejects_a_single_arm(self, algo):
        cfg = small_config(algo=algo, graph=GraphSpec(kind="self_loops_only", num_arms=1))
        with pytest.raises(ConfigError, match="two arms"):
            validate_config(cfg)

    @pytest.mark.parametrize("eta", [0.0, -0.1, math.nan])
    @pytest.mark.parametrize("algo", ["known", "unknown", "per_context_exp3g", "pooled_exp3g"])
    def test_rejects_nonpositive_manual_eta(self, algo, eta):
        cfg = small_config(algo=algo, param_mode="manual", eta=eta,
                           epoch_len=32, gamma=0.05)
        with pytest.raises(ConfigError, match="eta"):
            validate_config(cfg)

    @pytest.mark.parametrize("algo", ["known", "per_context_exp3g", "pooled_exp3g"])
    def test_manual_eta_is_used_verbatim(self, algo):
        cfg = small_config(algo=algo, param_mode="manual", eta=0.0123)
        learner = make_learner(validate_config(cfg))
        assert learner.eta == 0.0123

    # Validation must reject each of these with a ConfigError: run_replicate
    # or the auto schedule formulas would otherwise raise on it. A callable
    # case writes its files under tmp_path first.
    @pytest.mark.parametrize("kw", [
        dict(seed=-1),
        dict(oracle=OracleSpec(kind="stochastic_gap", base=0.7, gap=0.4)),
        dict(oracle=OracleSpec(kind="adversarial_shift", low=0.8, high=0.2)),
        dict(oracle=OracleSpec(kind="auction", value_grid=(0.1, 0.5, 0.9))),
        dict(oracle=OracleSpec(kind="auction", bid_grid=(0.0, 0.5, 1.0))),
        dict(oracle=OracleSpec(kind="auction", value_grid=(0.5, 0.2, 0.3, 0.9))),
        dict(oracle=OracleSpec(kind="auction", value_grid=(0.1, 0.5, 0.9, 1.5))),
        dict(oracle=OracleSpec(kind="auction", bid_grid=(0.9, 0.6, 0.3, 0.0))),
        dict(oracle=OracleSpec(kind="auction", bid_grid=(-0.1, 0.3, 0.6, 0.9))),
        *[dict(algo="unknown", horizon=T) for T in (1, 2, 3)],
        dict(algo="unknown", horizon=1024, tuned_scale=-1.0),
        dict(algo="unknown", horizon=1024, tuned_scale=math.nan),
        dict(algo="unknown", horizon=1024, tuned_scale=math.inf),
        dict(algo="unknown", param_mode="manual", epoch_len=32, eta=0.01, gamma=math.nan),
        *[dict(algo=algo, param_mode="manual", epoch_len=32, eta=math.inf, gamma=0.1)
          for algo in ("known", "pooled_exp3g", "unknown")],
        lambda tmp: dict(oracle=OracleSpec(kind="table", table_path=str(tmp / "none.npy"))),
        lambda tmp: dict(oracle=_table_spec(tmp, rounds=255)),
        lambda tmp: dict(oracle=_bids_spec(tmp, rounds=255)),
        lambda tmp: dict(oracle=OracleSpec(kind="auction", bids_path=str(tmp / "none.csv"))),
    ], ids=["negative_seed", "gap_means", "shift_bounds", "value_grid", "bid_grid",
            "value_grid_unsorted", "value_grid_above_1", "bid_grid_descending",
            "bid_grid_negative", "auto_T1", "auto_T2", "auto_T3", "tuned_scale",
            "tuned_scale_nan", "tuned_scale_inf", "manual_gamma_nan", "manual_eta_inf_known",
            "manual_eta_inf_pooled_exp3g", "manual_eta_inf_unknown", "table_missing",
            "table_short", "bids_short", "bids_missing"])
    def test_rejects_what_would_fail_mid_run(self, kw, tmp_path):
        if callable(kw):
            kw = kw(tmp_path)
        # A bad tuned_scale or eta is named in the message.
        named = ("tuned_scale" if "tuned_scale" in kw
                 else "eta" if kw.get("eta") == math.inf else None)
        with pytest.raises(ConfigError, match=named):
            validate_config(small_config(**kw))

    @pytest.mark.parametrize("text", ["bid\n0.1\n0.2x\n", "0.1\nnan\n"])
    def test_rejects_a_malformed_bids_file(self, tmp_path, text):
        path = tmp_path / "bids.csv"
        path.write_text(text + "0.5\n" * 256)
        spec = OracleSpec(kind="auction", bids_path=str(path))
        with pytest.raises(ConfigError, match="line 3" if "x" in text else "line 2"):
            validate_config(small_config(oracle=spec))

    def test_plan_holds_what_the_replicates_share(self, tmp_path):
        plan = validate_config(small_config(oracle=_table_spec(tmp_path, rounds=256)))
        assert plan.schedule is None and plan.nu.tolist() == [0.25] * 4
        assert plan.oracle(1) is plan.oracle(2)  # one table for every replicate
        gap = validate_config(small_config())
        assert gap.oracle(1).seed == 1 and gap.oracle(2).seed == 2

    def test_a_table_is_read_once_per_validation(self, tmp_path, monkeypatch):
        reads = []
        real = environment.TableOracle.from_npy

        def counting(path):
            reads.append(path)
            return real(path)

        monkeypatch.setattr(environment.TableOracle, "from_npy", counting)
        cfg = small_config(oracle=_table_spec(tmp_path, rounds=256), replicates=4)
        res = run(cfg)
        assert len(reads) == 1 and len(res.traces) == 4
        validate_config(cfg)
        assert len(reads) == 2

    def test_the_schedule_is_resolved_once_per_run(self, monkeypatch):
        calls = []
        real = harness.resolve_schedule

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(harness, "resolve_schedule", counting)
        cfg = small_config(algo="unknown", replicates=4, param_mode="manual",
                           epoch_len=32, eta=0.01, gamma=0.05)
        assert len(run(cfg).traces) == 4
        assert len(calls) == 1

    def test_graph_must_have_self_loops(self, tmp_path):
        path = tmp_path / "adj.txt"
        path.write_text("1 2\n0 2\n0 1\n")  # loopless complete: strongly observable
        cfg = small_config(graph=GraphSpec(kind="custom", path=str(path)))
        with pytest.raises(ValueError):
            validate_config(cfg)


class TestScalingFit:
    def test_exact_sqrt_law(self):
        pts = [(x, 7 * math.sqrt(x)) for x in (10, 100, 1000, 10000)]
        fit = fit_scaling(pts)
        assert fit.slope == pytest.approx(0.5, abs=1e-9)
        assert fit.stderr == pytest.approx(0.0, abs=1e-9)

    def test_linear_law(self):
        pts = [(x, 3.0 * x) for x in (2, 4, 8, 16)]
        assert fit_scaling(pts).slope == pytest.approx(1.0, abs=1e-9)

    def test_noisy_sqrt_within_window(self):
        rng = np.random.default_rng(0)
        xs = np.logspace(1, 4, 8)
        pts = [(x, math.sqrt(x) * (1 + 0.05 * rng.standard_normal())) for x in xs]
        assert 0.4 <= fit_scaling(pts).slope <= 0.6

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError, match="3 points"):
            fit_scaling([(1, 1), (2, 2)])
        with pytest.raises(ValueError, match="nonpositive"):
            fit_scaling([(1, 1.0), (2, 0.0), (3, 2.0)])
        with pytest.raises(ValueError, match="distinct"):
            fit_scaling([(1024, 1.0), (1024, 2.0), (1024, 3.0)])


class TestSweep:
    @pytest.fixture
    def ran(self, monkeypatch):
        """Replicate indices passed to ``run_batch``, in call order."""
        ran = []
        real = harness.run_batch

        def counting(plan, replicates):
            ran.extend(replicates)
            return real(plan, replicates)

        monkeypatch.setattr(harness, "run_batch", counting)
        return ran

    def test_horizon_sweep_shape(self):
        cfg = small_config(horizon=64, replicates=2)
        sweep = run_sweep(cfg, "T", [64, 128, 256])
        assert len(sweep.rows) == 3
        assert sweep.fit is not None
        assert sweep.ratios is None

    def test_context_sweep_ratios(self):
        cfg = small_config(replicates=2, horizon=128)
        sweep = run_sweep(cfg, "M", [2, 8])
        assert sweep.ratios is not None
        assert sweep.ratios[0][1] == pytest.approx(1.0)

    def test_alpha_sweep_rebuilds_cliques(self):
        cfg = small_config(graph=GraphSpec(kind="disjoint_cliques",
                                           clique_sizes=(4, 4, 4, 4)),
                           horizon=128, replicates=1)
        derived = config_for_axis(cfg, "alpha", 8)
        assert derived.graph.clique_sizes == (2,) * 8

    def test_alpha_requires_divisibility(self):
        cfg = small_config(graph=GraphSpec(kind="disjoint_cliques",
                                           clique_sizes=(4, 4, 4, 4)))
        with pytest.raises(ConfigError, match="divide"):
            config_for_axis(cfg, "alpha", 3)

    def test_alpha_requires_cliques(self):
        cfg = small_config(graph=GraphSpec(kind="self_loops_only", num_arms=8))
        with pytest.raises(ConfigError, match="cliques"):
            config_for_axis(cfg, "alpha", 2)

    def test_every_point_is_validated_before_the_first_runs(self, ran):
        cfg = small_config(graph=GraphSpec(kind="disjoint_cliques", clique_sizes=(4, 4, 4, 4)),
                           horizon=64)
        with pytest.raises(ConfigError, match="divide"):
            run_sweep(cfg, "alpha", [1, 2, 4, 3])
        assert ran == []
        run_sweep(cfg, "alpha", [1, 2, 4])
        assert len(ran) == 3 * cfg.replicates

    @pytest.mark.parametrize("axis,values", [
        ("T", [64, 128]), ("T", [64, 64, 64]), ("T", [0, 64, 128]),
        ("alpha", [2, 4]), ("alpha", [-1, 1, 2])])
    def test_an_unfittable_slope_sweep_runs_no_point(self, ran, axis, values):
        cfg = small_config(graph=GraphSpec(kind="disjoint_cliques", clique_sizes=(4, 4, 4, 4)),
                           horizon=64)
        with pytest.raises(ConfigError, match="three distinct positive values"):
            run_sweep(cfg, axis, values)
        assert ran == []


def _table_spec(tmp, rounds):
    path = tmp / "losses.npy"
    np.save(path, np.random.default_rng(5).random((rounds, 4, 4)))
    return OracleSpec(kind="table", table_path=str(path))


def _bids_spec(tmp, rounds):
    path = tmp / "bids.csv"
    path.write_text("bid\n" + "0.5\n" * rounds)
    return OracleSpec(kind="auction", bids_path=str(path))


def replay(trace, config):
    """Reference for what a run derives from its loss rows: rebuild the
    replicate's oracle from its seed and replay every round. Returns the loss
    sums, the realized losses and the two regret curves."""
    oracle_seed, _ = _replicate_seeds(config.seed, trace.replicate)
    oracle = oracle_source(config.oracle, trace.horizon, trace.num_contexts,
                           trace.num_arms)(oracle_seed)
    loss_sums = np.zeros((trace.num_contexts, trace.num_arms))
    realized = np.zeros(trace.horizon)
    for t in range(trace.horizon):
        row = oracle.loss_slice(t)[trace.contexts[t]]
        loss_sums[trace.contexts[t]] += row
        realized[t] = row[trace.arms[t]]
    pi_star = np.argmin(loss_sums, axis=1)
    best_inst = np.zeros(trace.horizon)
    for t in range(trace.horizon):
        c = int(trace.contexts[t])
        best_inst[t] = oracle.loss_slice(t)[c, pi_star[c]]
    return (loss_sums, realized, np.cumsum(trace.expected_inst - best_inst),
            np.cumsum(realized - best_inst))


def assert_matches_replay(trace, config):
    loss_sums, realized, exp_curve, real_curve = replay(trace, config)
    got = (trace.loss_sums, trace.realized_inst, *regret_curves(trace))
    for g, want in zip(got, (loss_sums, realized, exp_curve, real_curve)):
        assert g.tobytes() == want.tobytes()


class TestRegretCurves:
    @pytest.mark.parametrize("oracle", [
        GAP,
        OracleSpec(kind="adversarial_shift"),
        OracleSpec(kind="auction"),
    ])
    @pytest.mark.parametrize("algo", ["known", "unknown", "uniform"])
    def test_match_the_oracle_replay_exactly(self, oracle, algo):
        cfg = small_config(oracle=oracle, algo=algo, horizon=128, replicates=2,
                           param_mode="manual" if algo == "unknown" else "auto",
                           epoch_len=32, eta=0.01, gamma=0.05, iota=6.0)
        for trace in run(cfg).traces:
            assert_matches_replay(trace, cfg)

    def test_match_the_replay_on_a_table_oracle(self, tmp_path):
        cfg = small_config(oracle=_table_spec(tmp_path, rounds=96), horizon=96, replicates=1)
        assert_matches_replay(run(cfg).traces[0], cfg)

    @pytest.mark.parametrize("oracle", ["table", "bids"])
    def test_match_the_replay_on_a_shared_file_oracle(self, tmp_path, oracle):
        spec = (_table_spec if oracle == "table" else _bids_spec)(tmp_path, rounds=128)
        cfg = small_config(oracle=spec, horizon=128, replicates=2)
        for trace in run(cfg).traces:
            assert_matches_replay(trace, cfg)

    def test_zero_horizon_gives_empty_curves(self):
        trace = run(small_config(horizon=0, replicates=1)).traces[0]
        assert trace.best_inst.shape == (0,)
        assert [c.shape for c in regret_curves(trace)] == [(0,), (0,)]


def _recorded(value):
    """Everything a trace records, as plain comparable values: arrays by
    dtype, shape and bytes, scalars by repr."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if is_dataclass(value):
        return [(f.name, _recorded(getattr(value, f.name))) for f in fields(value)]
    if isinstance(value, list):
        return [_recorded(v) for v in value]
    return repr(value)


@pytest.mark.parametrize("oracle", ["gap", "shift", "auction", "bids", "table"])
def test_a_replicate_run_alone_matches_its_trace_in_the_run(tmp_path, monkeypatch, oracle):
    # Chunks of 8 rounds, so the chunked oracles switch chunks within a
    # replicate and a shared one starts each replicate with another's chunk.
    monkeypatch.setattr(environment, "_CHUNK_BUDGET", 8 * 4 * 4)
    # Expected losses of a batch in blocks of 48 rounds: the last block is short.
    monkeypatch.setattr(harness, "_Q_BLOCK", 48)
    spec = {"gap": GAP, "shift": OracleSpec(kind="adversarial_shift"),
            "auction": OracleSpec(kind="auction"), "bids": _bids_spec(tmp_path, rounds=128),
            "table": _table_spec(tmp_path, rounds=128)}[oracle]
    plan = validate_config(small_config(
        oracle=spec, algo="unknown", horizon=128, replicates=3, param_mode="manual",
        epoch_len=32, eta=0.05, gamma=0.05, iota=6.0, trace_level="full", diagnostics=True))
    if isinstance(plan.oracle(0), environment._ChunkedOracle):
        assert plan.oracle(0)._chunk_len == 8
    traces = run_plan(plan).traces
    for r in reversed(range(3)):
        assert _recorded(run_replicate(plan, r)) == _recorded(traces[r])
    # A batched learner's replicate has the same bytes alone and in a batch
    # of any size and order.
    for algo in ("known", "per_context_exp3g", "pooled_exp3g", "uniform"):
        for trace_level in ("light", "full"):
            plan = validate_config(small_config(oracle=spec, algo=algo, horizon=128,
                                                replicates=5, trace_level=trace_level,
                                                diagnostics=True))
            traces = run_plan(plan).traces
            for r in reversed(range(5)):
                assert _recorded(run_replicate(plan, r)) == _recorded(traces[r])
            for batch in ([3], [4, 1], [2, 0, 4, 1, 3]):
                for r, trace in zip(batch, run_batch(plan, batch)):
                    assert _recorded(trace) == _recorded(traces[r])


class TestOutputs:
    def test_curves_end_at_summary_regret(self, tmp_path):
        cfg = small_config(replicates=1, horizon=128)
        res = run(cfg)
        trace = res.traces[0]
        exp_curve, real_curve = regret_curves(trace)
        s = summarize_regret(trace)
        assert exp_curve[-1] == pytest.approx(s.expected, abs=1e-9)
        assert real_curve[-1] == pytest.approx(s.realized, abs=1e-9)

    def test_csv_and_report_writers(self, tmp_path):
        cfg = small_config(replicates=2, horizon=64)
        res = run(cfg)
        write_report_json(res, tmp_path / "report.json")
        write_curves_csv(res, tmp_path / "curves.csv")
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["replicates"] == 2
        lines = (tmp_path / "curves.csv").read_text().splitlines()
        assert lines[0] == "algo,replicate,t,cum_regret_expected,cum_regret_realized"
        assert len(lines) == 1 + 2 * 64

    def test_curves_csv_written_in_blocks_keeps_its_bytes(self, tmp_path, monkeypatch):
        res = run(small_config(replicates=2, horizon=64))
        write_curves_csv(res, tmp_path / "whole.csv")
        monkeypatch.setattr(harness, "_NDJSON_BLOCK", 5)  # 13 blocks per replicate
        write_curves_csv(res, tmp_path / "blocks.csv")
        whole = (tmp_path / "whole.csv").read_bytes()
        assert (tmp_path / "blocks.csv").read_bytes() == whole
        want = ["algo,replicate,t,cum_regret_expected,cum_regret_realized\n"]
        for trace in res.traces:
            exp_curve, real_curve = regret_curves(trace)
            want += [f"{res.config.algo},{trace.replicate},{t},{e!r},{r!r}\n"
                     for t, (e, r) in enumerate(zip(exp_curve.tolist(), real_curve.tolist()))]
        assert whole == "".join(want).encode()

    @pytest.mark.parametrize("trace_level", ["light", "full"])
    def test_ndjson_rounds_match_json_dumps(self, tmp_path, trace_level):
        cfg = small_config(algo="unknown", trace_level=trace_level, horizon=128,
                           replicates=1, param_mode="manual", epoch_len=32,
                           eta=0.01, gamma=0.05, iota=6.0, diagnostics=True)
        trace = run(cfg).traces[0]
        path = tmp_path / "trace.ndjson"
        trace.write_ndjson(path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + 128 + len(trace.epochs)
        for t, line in enumerate(lines[1:1 + 128]):
            rec = json.loads(line)
            assert rec["t"] == t and rec["kind"] == "round"
            assert line == json.dumps(rec, sort_keys=True)
            if trace_level == "full":
                assert rec["q"] == trace.q_rows[t].tolist()
                assert rec["policy"] == trace.policy_hashes[t]
            else:
                assert "q" not in rec and "policy" not in rec

    def test_sweep_csv(self, tmp_path):
        cfg = small_config(horizon=64, replicates=2)
        sweep = run_sweep(cfg, "T", [64, 128, 256])
        write_sweep_csv(sweep, tmp_path / "sweep.csv")
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(lines) == 4
