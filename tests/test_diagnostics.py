import math

import numpy as np
import pytest

from crossbandit.diagnostics import epoch_diagnostics, graph_inverse_bound
from crossbandit.graph import GraphSpec, build_graph
from crossbandit.harness import OracleSpec, RunConfig, run

NU = (0.4, 0.3, 0.2, 0.1)


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


class TestEpochDiagnostics:
    def test_uniform_snapshots_have_exact_importance(self):
        res = run(diag_config(oracle=OracleSpec(kind="stochastic_gap", gap=0.0,
                                                base=0.5, best_stride=1)))
        reports = epoch_diagnostics(res.traces[0], res.config, res.graph)
        # early epochs keep uniform snapshots: w_e(a) = 1/(2K) exactly
        first = reports[0]
        assert np.allclose(first.w_exact, 1 / 16)

    def test_zero_losses_give_trivial_epochs(self, tmp_path):
        path = tmp_path / "zeros.npy"
        np.save(path, np.zeros((512, 4, 8)))
        cfg = diag_config(oracle=OracleSpec(kind="table", table_path=str(path)))
        res = run(cfg)
        reports = epoch_diagnostics(res.traces[0], cfg, res.graph)
        for r in reports:
            assert r.bounded_ok and r.importance_ok
            assert r.tilde_max == 0.0
            assert r.ptilde_ratio_min == pytest.approx(1.0)
            assert r.ptilde_ratio_max == pytest.approx(1.0)
            assert r.beta_min == pytest.approx(r.beta_max)

    def test_flags_attached_to_trace(self):
        res = run(diag_config())
        er = res.traces[0].epochs[3]
        assert set(er.diag) >= {"F", "L", "Q", "beta_min", "beta_max",
                                "snapshot_rounds", "graph_inv_lhs"}

    def test_graph_inverse_lhs_below_bound_on_run(self):
        res = run(diag_config())
        reports = epoch_diagnostics(res.traces[0], res.config, res.graph)
        for r in reports:
            assert r.graph_inv_lhs <= r.graph_inv_rhs

    def test_beta_within_lemma_range_when_importance_event_holds(self):
        # gamma = 4 iota / L here, the smallest value the ratio lemma needs
        L, iota = 64, 1.0
        res = run(diag_config(epoch_len=L, iota=iota, gamma=4 * iota / L,
                              horizon=64 * 30))
        reports = epoch_diagnostics(res.traces[0], res.config, res.graph)
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
            assert ("F" in er.diag) == (er.epoch >= 2)
            if er.epoch >= 2:
                assert set(er.diag) >= {"F", "L", "Q", "beta_min", "beta_max",
                                        "tilde_max", "ptilde_min", "ptilde_max",
                                        "snapshot_rounds", "graph_inv_lhs",
                                        "graph_inv_rhs"}

    def test_requires_diagnostics_trace(self):
        res = run(diag_config(diagnostics=False))
        with pytest.raises(ValueError, match="diagnostics"):
            epoch_diagnostics(res.traces[0], res.config, res.graph)
