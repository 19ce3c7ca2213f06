import json
import math
from dataclasses import fields

import numpy as np
import pytest

from crossbandit import harness
from crossbandit.diagnostics import (
    EpochDiag,
    _ratio_extremes,
    graph_inverse_bound,
)
from crossbandit.graph import GraphSpec, build_graph
from crossbandit.harness import (
    ConfigError,
    OracleSpec,
    RunConfig,
    _replicate_seeds,
    oracle_source,
    resolve_schedule,
    run,
    validate_config,
)
from crossbandit.simplex import tilt

NU = (0.4, 0.3, 0.2, 0.1)
NDJSON_DIAG_KEYS = {"F", "L", "Q", "beta_min", "beta_max", "tilde_max", "ptilde_min",
                    "ptilde_max", "snapshot_rounds", "graph_inv_lhs", "graph_inv_rhs"}


def epoch_reports(trace):
    return [er.diag for er in trace.epochs if er.diag is not None]


def diag_config(**kw):
    base = dict(
        graph=GraphSpec(kind="self_loops_only", num_arms=8),
        oracle=OracleSpec(kind="stochastic_gap", gap=0.2, base=0.4, best_stride=3),
        num_contexts=4, nu=NU, horizon=512, algo="unknown", seed=3, replicates=1,
        param_mode="manual", epoch_len=64, eta=0.002, gamma=0.06, iota=6.0,
        diagnostics=True,
    )
    base.update(kw)
    return RunConfig(**base)


class TestGraphInverseBound:
    def test_complete_graph_uniform(self):
        g = build_graph(GraphSpec(kind="complete_with_self_loops", num_arms=8))
        w = np.full(8, 1 / 8)
        lhs, rhs = graph_inverse_bound(w, g)
        assert lhs == pytest.approx(1.0)
        assert rhs == pytest.approx(4 * math.log(4 * 8 / (1 / 8)))
        assert lhs <= rhs

    def test_self_loops_uniform(self):
        g = build_graph(GraphSpec(kind="self_loops_only", num_arms=8))
        w = np.full(8, 1 / 8)
        lhs, rhs = graph_inverse_bound(w, g)
        assert lhs == pytest.approx(8.0)
        assert rhs == pytest.approx(4 * 8 * math.log(4 * 8 / (8 / 8)))
        assert lhs <= rhs

    def test_explicit_eps_and_alpha(self):
        g = build_graph(GraphSpec(kind="disjoint_cliques", clique_sizes=(2, 2)))
        w = np.array([0.4, 0.1, 0.3, 0.2])
        lhs, rhs = graph_inverse_bound(w, g, alpha=2, eps=1e-3)
        assert lhs == pytest.approx(0.4 / 0.5 + 0.1 / 0.5 + 0.3 / 0.5 + 0.2 / 0.5)
        assert rhs == pytest.approx(8 * math.log(16 / (2 * 1e-3)))


def test_ratio_extremes_count_zero_over_zero_as_one():
    snapshot = np.array([[0.5, 0.5, 0.0], [1.0, 0.0, 0.0]])
    tilted = np.array([[0.25, 0.75, 0.0], [1.0, 0.0, 0.0]])
    assert _ratio_extremes(tilted.copy(), snapshot) == (0.5, 1.5)
    stack = np.stack([tilted, [[0.5, 0.4, 0.1], [1.0, 0.0, 0.0]]])
    assert _ratio_extremes(stack, snapshot) == (0.5, math.inf)


class TestEpochDiagnostics:
    def test_uniform_snapshots_have_exact_importance(self):
        res = run(diag_config(oracle=OracleSpec(kind="stochastic_gap", gap=0.0,
                                                base=0.5, best_stride=1)))
        reports = epoch_reports(res.traces[0])
        # early epochs keep uniform snapshots: w_e(a) = 1/(2K) exactly
        first = reports[0]
        assert np.allclose(first.w_exact, 1 / 16)

    def test_zero_losses_give_trivial_epochs(self, tmp_path):
        path = tmp_path / "zeros.npy"
        np.save(path, np.zeros((512, 4, 8)))
        cfg = diag_config(oracle=OracleSpec(kind="table", table_path=str(path)))
        res = run(cfg)
        reports = epoch_reports(res.traces[0])
        for r in reports:
            assert r.bounded_ok and r.importance_ok
            assert r.tilde_max == 0.0
            assert r.ptilde_ratio_min == pytest.approx(1.0)
            assert r.ptilde_ratio_max == pytest.approx(1.0)
            assert r.beta_min == pytest.approx(r.beta_max)

    def test_flags_attached_to_trace(self, tmp_path):
        trace = run(diag_config()).traces[0]
        assert [er.diag is not None for er in trace.epochs] == [False] + [True] * 7
        path = tmp_path / "trace.ndjson"
        trace.write_ndjson(path)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        epochs = lines[1 + trace.horizon:]
        assert [e["e"] for e in epochs] == [er.epoch for er in trace.epochs]
        assert set(epochs[0]) & NDJSON_DIAG_KEYS == set()
        er, rec = trace.epochs[3], epochs[3]
        assert set(rec) >= NDJSON_DIAG_KEYS
        assert (rec["F"], rec["L"], rec["Q"]) == (
            er.diag.importance_ok, er.diag.bounded_ok, er.diag.all_ok_so_far)
        assert (rec["ptilde_min"], rec["snapshot_rounds"], rec["graph_inv_rhs"]) == (
            er.diag.ptilde_ratio_min, er.diag.snapshot_rounds, er.diag.graph_inv_rhs)

    def test_graph_inverse_lhs_below_bound_on_run(self):
        res = run(diag_config())
        reports = epoch_reports(res.traces[0])
        for r in reports:
            assert r.graph_inv_lhs <= r.graph_inv_rhs

    def test_beta_within_lemma_range_when_importance_event_holds(self):
        # gamma = 4 iota / L here, the smallest value the ratio lemma needs
        L, iota = 64, 1.0
        res = run(diag_config(epoch_len=L, iota=iota, gamma=4 * iota / L,
                              horizon=64 * 30))
        reports = epoch_reports(res.traces[0])
        for r in reports:
            if r.importance_ok:
                assert r.beta_min >= 0.5 - 1e-9
                assert r.beta_max <= 2.0 + 1e-9

    @pytest.mark.parametrize("cliques", [(8,) * 8, (7,) * 10])
    def test_sixty_four_or_more_arms(self, cliques):
        K = sum(cliques)
        res = run(diag_config(graph=GraphSpec(kind="disjoint_cliques", clique_sizes=cliques),
                              horizon=4096, epoch_len=256))
        tr = res.traces[0]
        assert tr.used_mask.shape == (4096, K)
        assert tr.used_mask[:, 63:].any()  # feedback of the 64th arm or later was used
        out_mask = res.graph.out_mask
        assert not (tr.used_mask & ~out_mask[tr.arms]).any()
        for er in tr.epochs:
            assert isinstance(er.diag, EpochDiag) == (er.epoch >= 2)

    def test_requires_diagnostics_trace(self):
        trace = run(diag_config(diagnostics=False)).traces[0]
        assert len(trace.epochs) == 8
        assert all(er.diag is er.s_cur is er.s_next is None for er in trace.epochs)


def reference_ratio_extremes(p_tilde, snapshot):
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(snapshot > 0, p_tilde / snapshot,
                          np.where(p_tilde > 0, np.inf, 1.0))
    return float(ratios.min()), float(ratios.max())


def replay_diagnostics(trace, config, graph):
    """Reference for the run's reports: rebuild the replicate's oracle from its
    seed, replay every loss round that used an arm, and tilt once per round
    pair."""
    params = resolve_schedule(config, graph)
    L, gamma, eta, iota = params.epoch_len, params.gamma, params.eta, params.iota
    M = trace.num_contexts
    nu = np.full(M, 1.0 / M) if config.nu is None else np.asarray(config.nu)
    oracle_seed, _ = _replicate_seeds(config.seed, trace.replicate)
    oracle = oracle_source(config.oracle, trace.horizon, M, graph.num_arms)(oracle_seed)
    any_used = trace.used_mask.any(axis=1)
    reports, all_ok = [], True
    for er in trace.epochs:
        if er.epoch < 2:
            continue
        w_exact = (nu @ graph.in_mass_rows(er.s_cur)) / 2.0
        thresh = 2.0 * np.maximum(np.sqrt(w_exact * iota / L), iota / L)
        importance_ok = bool((np.abs(er.w_hat - w_exact) <= thresh).all())
        beta = (w_exact + gamma) / (er.w_hat + 1.5 * gamma)
        tilde_sums = np.zeros((trace.num_contexts, graph.num_arms))
        scale = 2.0 / (w_exact + gamma)
        ratio_min, ratio_max = math.inf, -math.inf
        end_t = min(er.start_t + L, trace.horizon)
        for t in range(er.start_t, end_t):
            if (t - er.start_t) % 2 == 0:
                lo, hi = reference_ratio_extremes(tilt(er.s_next, tilde_sums, eta), er.s_cur)
                ratio_min, ratio_max = min(ratio_min, lo), max(ratio_max, hi)
            if any_used[t]:
                used = trace.used_mask[t]
                tilde_sums[:, used] += oracle.loss_slice(t)[:, used] * scale[used]
        lo, hi = reference_ratio_extremes(tilt(er.s_next, tilde_sums, eta), er.s_cur)
        ratio_min, ratio_max = min(ratio_min, lo), max(ratio_max, hi)
        tilde_max = float(tilde_sums.max())
        bounded_ok = bool(tilde_max <= L + iota / gamma)
        all_ok = all_ok and importance_ok and bounded_ok
        lhs, rhs = graph_inverse_bound(nu @ er.s_next, graph,
                                       eps=float((w_exact + gamma).min()))
        reports.append(EpochDiag(
            epoch=er.epoch, w_exact=w_exact,
            importance_ok=importance_ok, bounded_ok=bounded_ok, all_ok_so_far=all_ok,
            beta_min=float(beta.min()), beta_max=float(beta.max()),
            tilde_max=tilde_max, ptilde_ratio_min=ratio_min, ptilde_ratio_max=ratio_max,
            snapshot_rounds=int((~trace.p_branch[er.start_t:end_t]).sum()),
            graph_inv_lhs=lhs, graph_inv_rhs=rhs,
        ))
    return reports


def assert_reports_match_replay(res):
    assert res.traces
    for trace in res.traces:
        got = epoch_reports(trace)
        want = replay_diagnostics(trace, res.config, res.graph)
        assert len(got) == len(want) == sum(er.epoch >= 2 for er in trace.epochs) > 0
        for g, w in zip(got, want):
            for f in fields(EpochDiag):
                a, b = getattr(g, f.name), getattr(w, f.name)
                if isinstance(b, np.ndarray):
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), f.name
                else:
                    assert type(a) is type(b) and repr(a) == repr(b), (f.name, a, b)


def _er48_adjacency(path):
    graph = build_graph(GraphSpec(kind="erdos_renyi", num_arms=48, edge_prob=0.1))
    path.write_text("".join(" ".join(map(str, ns)) + "\n" for ns in graph.out_neighbors))
    return str(path)


class TestRunReportsMatchReplay:
    """The reports the run computes are bitwise those of a full oracle replay."""

    def test_gap_oracle(self):
        assert_reports_match_replay(run(diag_config()))

    @pytest.mark.parametrize("fill", ["zeros", "random"])
    def test_table_oracle(self, tmp_path, fill):
        path = tmp_path / "losses.npy"
        table = (np.zeros((512, 4, 8)) if fill == "zeros"
                 else np.random.default_rng(7).random((512, 4, 8)))
        np.save(path, table)
        assert_reports_match_replay(
            run(diag_config(oracle=OracleSpec(kind="table", table_path=str(path)))))

    @pytest.mark.parametrize("kind", ["adversarial_shift", "auction"])
    def test_shift_and_auction_oracles(self, kind):
        assert_reports_match_replay(
            run(diag_config(oracle=OracleSpec(kind=kind),
                            graph=GraphSpec(kind="ordered_triangular", num_arms=8))))

    def test_seventy_arms(self):
        assert_reports_match_replay(run(diag_config(
            graph=GraphSpec(kind="disjoint_cliques", clique_sizes=(7,) * 10),
            horizon=2048, epoch_len=256)))

    def test_erdos_renyi_48_with_auto_schedule(self, tmp_path):
        spec = GraphSpec(kind="custom", path=_er48_adjacency(tmp_path / "graph.txt"))
        assert_reports_match_replay(run(diag_config(
            graph=spec, num_contexts=16, nu=None, horizon=2048,
            param_mode="auto", tuned_scale=0.02, eta=None, gamma=None,
            epoch_len=None, iota=None)))

    def test_two_replicates(self):
        res = run(diag_config(replicates=2))
        assert [tr.replicate for tr in res.traces] == [0, 1]
        assert_reports_match_replay(res)


class TestRunFeedsDiagnostics:
    def test_one_oracle_per_replicate(self, monkeypatch):
        built = []

        def counting(*args):
            source = oracle_source(*args)

            def build(seed):
                built.append(seed)
                return source(seed)
            return build

        monkeypatch.setattr(harness, "oracle_source", counting)
        res = run(diag_config(replicates=3))
        assert len(built) == 3
        assert all(epoch_reports(tr) for tr in res.traces)

    @pytest.mark.parametrize("mode", ["auto", "manual"])
    def test_zero_horizon_runs_with_no_reports(self, mode):
        res = run(diag_config(horizon=0, param_mode=mode))
        trace = res.traces[0]
        assert trace.epochs == []
        with pytest.raises((ValueError, ConfigError)):
            resolve_schedule(res.config, res.graph)  # T = 0 has no schedule
        assert validate_config(res.config).schedule is None

    def test_non_epoch_learner_has_empty_reports(self):
        res = run(diag_config(algo="known"))
        assert res.traces[0].epochs == []
