"""Acceptance suite: every graded check at full scale, one test per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
pass/fail lines as they complete (several minutes total; the horizon-scaling
sweep dominates). The same checks back `crossbandit verify --level full`.
"""

import numpy as np
import pytest

from crossbandit import acceptance


def _report(result):
    print(result.line(), flush=True)
    assert result.passed, result.detail


def test_criterion_01_estimator_unbiasedness():
    _report(acceptance.check_estimator_unbiasedness(n_replays=100_000))


def test_criterion_02_used_feedback_marginal():
    _report(acceptance.check_used_feedback_marginal(n_pairs=100_000))


def test_criterion_03_importance_estimate_unbiased():
    _report(acceptance.check_importance_estimate_unbiased(n_epochs=10_000))


def test_criterion_04_concentration_events():
    _report(acceptance.check_concentration_events(n_epochs=205))


def test_criterion_05_rejection_inactivity():
    _report(acceptance.check_rejection_inactivity(replicates=20))


def test_criterion_06_horizon_scaling():
    _report(acceptance.check_t_scaling(replicates=20))


def test_criterion_07_context_independence():
    _report(acceptance.check_context_independence(replicates=20))


def test_criterion_08_alpha_scaling():
    _report(acceptance.check_alpha_scaling(replicates=20))


def test_criterion_09_graph_inverse_bound():
    _report(acceptance.check_graph_inverse_bound(n_graphs=100))


def test_criterion_10_independence_oracle():
    _report(acceptance.check_independence_oracle(n_graphs=500))


def test_criterion_11_determinism(tmp_path):
    _report(acceptance.check_determinism(workdir=tmp_path))


class TestCheckSensitivity:
    """The Monte-Carlo checkers flag wrong targets: a corrupted estimator
    denominator must trip the unbiasedness tests rather than pass silently."""

    def test_used_feedback_checker_detects_skew(self):
        res = acceptance.check_used_feedback_marginal(n_pairs=4_000)
        assert res.passed
        # re-run the same statistic against a target inflated by a factor
        # large enough that 3 SE cannot absorb it
        from crossbandit.environment import TableOracle, reveal, sample_context
        from crossbandit.acceptance import _warm_epoch_learner
        graph, nu, _, learner, rng = _warm_epoch_learner(12, epoch_len=32,
                                                         stop_epoch=3, stop_pos=4)
        w_exact = (nu @ graph.in_mass_rows(learner.s_cur)) / 2.0
        wrong = 1.5 * w_exact
        M, K = learner.num_contexts, learner.num_arms
        dense = TableOracle(0.5 * np.ones((2, M, K)))
        s0, t0 = learner.state(), learner.t
        n = 4_000
        used = np.zeros(K)
        for _ in range(n):
            learner.restore(s0)
            for off in range(2):
                c = sample_context(nu, rng.random())
                a = learner.act(t0 + off, c, rng).arm
                pair = learner.update(reveal(dense, graph, off, a), rng)
            used += pair.used
        rate = used / n
        se = np.sqrt(rate * (1 - rate) / n)
        assert not np.all(np.abs(rate - wrong) <= 3 * se)
