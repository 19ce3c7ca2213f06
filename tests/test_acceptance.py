"""Acceptance suite: every graded check at full scale, one test per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
pass/fail lines as they complete (several minutes total; the horizon-scaling
sweep dominates). The same checks back `crossbandit verify --level full`.
"""

import inspect
import tempfile

import numpy as np
import pytest

from crossbandit import acceptance


def _report(result):
    print(result.line(), flush=True)
    assert result.passed, result.detail


def _graded(entry):
    def test():
        _report(entry.fn())
    test.__name__ = "test_criterion_" + entry.label.replace(" ", "_").replace("-", "_")
    return test


# One test per registered check, at its graded scale, named after its printed
# label: test_criterion_01_estimator_unbiasedness, ...
for _entry in acceptance.CHECKS:
    _test = _graded(_entry)
    globals()[_test.__name__] = _test


def test_registry_numbers_every_check_once_with_binding_quick_scales():
    assert [entry.label for entry in acceptance.CHECKS] == [
        "01 estimator-unbiasedness", "02 used-feedback-marginal",
        "03 importance-estimate-unbiased", "04 concentration-events",
        "05 rejection-inactivity", "06 horizon-scaling", "07 context-independence",
        "08 independence-number-scaling", "09 graph-inverse-bound",
        "10 independence-oracle-equivalence", "11 determinism",
    ]
    names = acceptance.check_names()
    assert len(set(names)) == len(names)
    for entry in acceptance.CHECKS:
        inspect.signature(entry.fn).bind(**entry.quick)  # a misspelt keyword raises


REPLAY_DETAILS = {
    "used-feedback-marginal": "max dev 0.98 SE, w range [0.062, 0.312], n=20000",
    "importance-estimate-unbiased": "max dev 2.07 SE over 8 arms, n=1500",
}


@pytest.mark.parametrize("name", sorted(REPLAY_DETAILS))
def test_replays_keep_their_quick_scale_details(name):
    """Checks 02 and 03 read their replays' uniforms from the stream in the
    order a round-by-round replay reads them, so their statistics keep every
    digit."""
    entry = next(e for e in acceptance.CHECKS if e.name == name)
    result = entry.fn(**entry.quick)
    assert result.passed and result.detail == REPLAY_DETAILS[name]


def test_determinism_check_leaves_no_files_behind(tmp_path, monkeypatch):
    configs = acceptance._determinism_configs
    monkeypatch.setattr(acceptance, "_determinism_configs",
                        lambda seed: configs(seed)[4:])  # the two cheapest families
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    assert acceptance.check_determinism().passed
    assert list(tmp_path.iterdir()) == []


class TestCheckSensitivity:
    """The Monte-Carlo checkers flag wrong targets: a corrupted estimator
    denominator must trip the unbiasedness tests rather than pass silently."""

    def test_used_feedback_checker_detects_skew(self):
        res = acceptance.check_used_feedback_marginal(n_pairs=4_000)
        assert res.passed
        # re-run the same statistic against a target inflated by a factor
        # large enough that 3 SE cannot absorb it
        from crossbandit.acceptance import _play_pairs, _warm_epoch_learner
        from crossbandit.environment import TableOracle
        from crossbandit.harness import pair_tape
        graph, nu, _, learner, rng = _warm_epoch_learner(12, epoch_len=32,
                                                         stop_epoch=3, stop_pos=4)
        w_exact = (nu @ graph.in_mass_rows(learner.s_cur)) / 2.0
        wrong = 1.5 * w_exact
        M, K = learner.num_contexts, learner.num_arms
        dense = TableOracle(0.5 * np.ones((2, M, K)))
        s0 = learner.state()
        n = 4_000
        used = np.zeros(K)
        for _ in range(n):
            learner.restore(s0)
            tape = pair_tape(rng, nu, 1, learner.closing_draws)
            pair = _play_pairs(learner, graph, dense, *tape)
            used += pair.used
        rate = used / n
        se = np.sqrt(rate * (1 - rate) / n)
        assert not np.all(np.abs(rate - wrong) <= 3 * se)
