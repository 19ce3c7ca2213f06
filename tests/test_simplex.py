import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossbandit.simplex import check_simplex, exp_weights, sample_arm, tilt

finite_totals = st.lists(
    st.floats(min_value=0.0, max_value=1e8, allow_nan=False, allow_infinity=False),
    min_size=2, max_size=12,
).map(np.array)


class TestExpWeights:
    def test_zero_totals_give_uniform(self):
        p = exp_weights(np.zeros(5), 0.3)
        assert np.allclose(p, 0.2)

    def test_two_arm_closed_form(self):
        eta = 0.7
        p = exp_weights(np.array([0.0, math.log(2) / eta]), eta)
        assert np.allclose(p, [2 / 3, 1 / 3], atol=1e-12)

    def test_huge_totals_stay_finite(self):
        p = exp_weights(np.array([0.0, 1e6]), 1.0)
        assert np.isfinite(p).all()
        assert p[0] == pytest.approx(1.0)
        assert p[1] == pytest.approx(0.0, abs=1e-12)

    def test_rowwise_operation(self):
        cum = np.array([[0.0, 1.0], [1.0, 0.0]])
        p = exp_weights(cum, 2.0)
        assert p.shape == (2, 2)
        assert np.allclose(p[0], p[1][::-1])

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            exp_weights(np.array([0.0, np.inf]), 1.0)
        with pytest.raises(ValueError):
            exp_weights(np.zeros(3), 0.0)

    @settings(max_examples=60, deadline=None)
    @given(finite_totals, st.floats(min_value=1e-6, max_value=10.0))
    def test_output_is_simplex(self, totals, eta):
        p = exp_weights(totals, eta)
        check_simplex(p)

    @settings(max_examples=60, deadline=None)
    @given(finite_totals,
           st.floats(min_value=1e-4, max_value=1.0),
           st.floats(min_value=-50.0, max_value=50.0))
    def test_shift_invariance(self, totals, eta, shift):
        base = exp_weights(totals, eta)
        shifted = exp_weights(totals + shift, eta)
        assert np.allclose(base, shifted, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(finite_totals, st.floats(min_value=1e-4, max_value=1.0))
    def test_smallest_total_gets_largest_mass(self, totals, eta):
        p = exp_weights(totals, eta)
        assert p[np.argmin(totals)] == pytest.approx(p.max())

    # The learners take a context's playing row from one (M, K) table, and
    # their traces must keep the bits of the row computed on its own.
    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=300), st.integers(min_value=2, max_value=64),
           st.sampled_from([1.0, 1e3, 1e8]), st.sampled_from([1e-4, 0.05, 1.0, 20.0]),
           st.integers(0, 2 ** 32 - 1))
    def test_table_rows_have_the_bits_of_single_rows(self, M, K, scale, eta, seed):
        rng = np.random.default_rng(seed)
        totals = scale * rng.random((M, K))
        totals[rng.random((M, K)) < 0.3] = 0.0  # ties and exact zeros, as early in a run
        table = exp_weights(totals, eta)
        for c in range(M):
            assert np.array_equal(table[c], exp_weights(totals[c], eta))


class TestTilt:
    def test_zero_deltas_identity(self):
        base = np.array([0.1, 0.2, 0.7])
        assert np.allclose(tilt(base, np.zeros(3), 0.5), base, atol=1e-15)

    def test_two_arm_closed_form(self):
        eta = 0.9
        out = tilt(np.full(2, 0.5), np.array([math.log(2) / eta, 0.0]), eta)
        assert np.allclose(out, [1 / 3, 2 / 3], atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.tuples(st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
                           st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)),
                 min_size=2, max_size=8),
        st.floats(min_value=1e-3, max_value=2.0),
    )
    def test_tilt_matches_exp_weights(self, pairs, eta):
        cum = np.array([c for c, _ in pairs])
        deltas = np.array([d for _, d in pairs])
        direct = exp_weights(cum + deltas, eta)
        tilted = tilt(exp_weights(cum, eta), deltas, eta)
        assert np.allclose(direct, tilted, atol=1e-12)

    def test_handles_zero_base_entries(self):
        out = tilt(np.array([0.0, 0.5, 0.5]), np.array([0.0, 0.0, 1.0]), 1.0)
        assert out[0] == 0.0
        check_simplex(out)


class TestSampleArm:
    def test_point_mass(self):
        rng = np.random.default_rng(0)
        p = np.zeros(6)
        p[3] = 1.0
        assert all(sample_arm(p, rng) == 3 for _ in range(50))

    def test_uniform_frequencies(self):
        rng = np.random.default_rng(1)
        n = 100_000
        counts = np.zeros(4)
        p = np.full(4, 0.25)
        for _ in range(n):
            counts[sample_arm(p, rng)] += 1
        freq = counts / n
        bound = 3 * math.sqrt(0.25 * 0.75 / n)
        assert np.all(np.abs(freq - 0.25) <= bound)

    def test_deterministic_given_seed(self):
        rng_a = np.random.default_rng(9)
        rng_b = np.random.default_rng(9)
        p = np.array([0.2, 0.5, 0.3])
        assert [sample_arm(p, rng_a) for _ in range(100)] == \
               [sample_arm(p, rng_b) for _ in range(100)]

    def test_zero_probability_arm_never_sampled(self):
        rng = np.random.default_rng(3)
        p = np.array([0.5, 0.0, 0.5])
        assert all(sample_arm(p, rng) != 1 for _ in range(1000))


class TestCheckSimplex:
    def test_accepts_valid(self):
        check_simplex(np.array([0.25, 0.75]))

    def test_rejects_negative_and_unnormalized(self):
        with pytest.raises(ValueError):
            check_simplex(np.array([-0.1, 1.1]))
        with pytest.raises(ValueError):
            check_simplex(np.array([0.5, 0.6]))
        with pytest.raises(ValueError):
            check_simplex(np.array([0.5, np.nan]))

    def test_reports_the_sum_as_a_plain_float(self):
        with pytest.raises(ValueError) as info:
            check_simplex([1.0, 1.0])
        assert str(info.value) == "probabilities sum to 2.0, not 1 within 1e-09"
