"""Unit tests for the estimator math and error metrics."""
import numpy as np
import pytest

from repro.core.estimators import (
    graybill_deal,
    local_nrmse,
    nrmse,
    rept_estimate,
    var_parallel_mascot,
    var_rept,
    var_rept_groups,
)


class TestVarianceFormulas:
    def test_rept_c_equals_m_kills_covariance(self):
        # Var = τ(m−1): no η term at c = m.
        assert var_rept(tau=100, eta=10_000, m=10, c=10) == 100 * 9

    def test_rept_groups(self):
        assert var_rept_groups(tau=100, m=10, c1=4) == 100 * 9 / 4

    def test_rept_less_than_mascot(self):
        for c in (2, 5, 10):
            assert var_rept(1000, 50_000, 10, c) < var_parallel_mascot(1000, 50_000, 10, c)

    def test_mascot_formula(self):
        tau, eta, m, c = 7.0, 3.0, 10, 4
        assert var_parallel_mascot(tau, eta, m, c) == (tau * 99 + 2 * eta * 9) / 4

    @pytest.mark.parametrize("c", [1, 2, 5, 9, 10])
    def test_rept_decreases_in_c(self, c):
        if c < 10:
            assert var_rept(100, 1000, 10, c + 1) < var_rept(100, 1000, 10, c)

    def test_covariance_term_dominates_when_eta_large(self):
        tau, eta, m = 100, 100_000, 10
        v = var_parallel_mascot(tau, eta, m, 1)
        assert 2 * eta * (m - 1) / v > 0.9


class TestGraybillDeal:
    def test_prefers_low_variance(self):
        est = graybill_deal(10.0, 1.0, 100.0, 1e9)
        assert abs(est - 10.0) < 0.01

    def test_symmetric_weights(self):
        assert graybill_deal(10.0, 2.0, 20.0, 2.0) == pytest.approx(15.0)

    def test_degenerate_trusts_first_estimate(self):
        # 0/0 weights: the zero-variance claim on est1 wins (the limit
        # of the formula as var1 → 0 with var2 > 0).
        assert graybill_deal(10.0, 0.0, 20.0, 0.0) == pytest.approx(10.0)

    def test_zero_variance_trusts_estimate(self):
        assert graybill_deal(10.0, 0.0, 99.0, 5.0) == pytest.approx(10.0)

    def test_vectorized(self):
        out = graybill_deal([10.0, 0.0], [1.0, 0.0], [20.0, 4.0], [1.0, 0.0])
        assert out[0] == pytest.approx(15.0)
        assert out[1] == pytest.approx(0.0)

    def test_variance_of_combination(self):
        # combined variance v1 v2/(v1+v2) is below both
        v1, v2 = 4.0, 6.0
        comb = v1 * v2 / (v1 + v2)
        assert comb < min(v1, v2)


class TestReptEstimate:
    """The paper's estimators at m = 3, written out with hand numbers."""

    def test_c_lt_m_is_algorithm1(self):
        # τ̂ = (m²/c) Σ τ^(i) = (9/2)(5 + 7)
        assert rept_estimate([5, 7], 0, 3, 2) == {"tau_hat": 54.0}

    def test_c_eq_m_is_algorithm1(self):
        # τ̂ = (m²/c) Σ τ^(i) = (9/3)(5 + 7 + 4)
        assert rept_estimate([5, 7, 4], 0, 3, 3) == {"tau_hat": 48.0}

    def test_c_multiple_of_m_averages_the_groups(self):
        # c1 = 2 full groups, no leftover: τ̂ = (m/c1) Σ τ^(i) = (3/2)·21
        assert rept_estimate([1, 2, 3, 4, 5, 6], 99, 3, 6) == {"tau_hat": 31.5}

    def test_leftover_group_combined_by_graybill_deal(self):
        # c = 2m + 1: c1 = 2, c2 = 1, Σ η^(i) = 10.
        got = rept_estimate([1, 2, 3, 4, 5, 6, 8], 10, 3, 7)
        tau1 = 3 / 2 * 21  # (m/c1) Σ over the full groups = 31.5
        tau2 = 9 / 1 * 8  # (m²/c2) τ of the leftover processor = 72
        eta_hat = 27 / 7 * 10  # (m³/c) Σ η^(i)
        w1 = tau1 * 2 / 2  # τ̂(1)(m − 1)/c1 = 31.5
        # (τ̂(1)(m² − c2) + 2η̂(m − c2))/c2 = 2844/7
        w2 = (tau1 * 8 + 2 * eta_hat * 2) / 1
        assert got["tau1"] == 31.5 and got["tau2"] == 72.0
        assert got["eta_hat"] == pytest.approx(270 / 7)
        assert w2 == pytest.approx(2844 / 7)
        # (w2 τ̂(1) + w1 τ̂(2)) / (w1 + w2) = (12798 + 2268) / (3064.5 / 7)
        assert got["tau_hat"] == pytest.approx((w2 * tau1 + w1 * tau2) / (w1 + w2))
        assert got["tau_hat"] == pytest.approx(105462 / 3064.5)

    def test_further_axes_carry_through(self):
        # Two runs (or nodes) on the second axis, each estimated alone.
        tau = np.array([[1, 8], [2, 7], [3, 6], [4, 5], [5, 4], [6, 3], [8, 2]])
        got = rept_estimate(tau, np.array([10, 3]), 3, 7)
        for j in range(2):
            one = rept_estimate(tau[:, j].tolist(), [10, 3][j], 3, 7)
            assert {k: x[j] for k, x in got.items()} == one


class TestNRMSE:
    def test_exact_is_zero(self):
        assert nrmse([10, 10, 10], 10) == 0.0

    def test_known_value(self):
        assert nrmse([8, 12], 10) == pytest.approx(0.2)

    def test_bias_included(self):
        assert nrmse([12, 12], 10) == pytest.approx(0.2)

    def test_zero_truth_raises(self):
        with pytest.raises(ValueError):
            nrmse([1.0], 0)


class TestLocalNRMSE:
    TAU_V = np.array([10, 4])

    def test_perfect(self):
        est = np.array([[10.0, 4.0], [10.0, 4.0]])
        assert local_nrmse(est, self.TAU_V) == 0.0

    def test_missing_runs_count_as_zero(self):
        est = np.array([[10.0, 0.0], [0.0, 0.0]])
        # node 1: runs (10, 0) → rmse sqrt(50)/10; node 2: always 0 → 1.0
        got = local_nrmse(est, self.TAU_V)
        assert got == pytest.approx((np.sqrt(50) / 10 + 1.0) / 2)

    def test_empty_estimates(self):
        assert local_nrmse(np.zeros((3, 2)), self.TAU_V) == pytest.approx(1.0)

    def test_single_node(self):
        est = np.array([[1.0], [3.0]])
        assert local_nrmse(est, np.array([2])) == pytest.approx(0.5)

    def test_nodes_without_triangles_ignored(self):
        # the middle node has τ_v = 0: its estimates do not enter the mean
        est = np.array([[10.0, 7.0, 4.0], [10.0, -3.0, 4.0]])
        assert local_nrmse(est, np.array([10, 0, 4])) == 0.0


@pytest.mark.parametrize(
    "call",
    [
        lambda: nrmse([], 10),
        lambda: local_nrmse(np.zeros((2, 0)), np.zeros(0, dtype=np.int64)),
        lambda: local_nrmse(np.zeros((0, 1)), np.array([3])),
        lambda: local_nrmse(np.zeros((2, 2)), np.array([0, 0])),
        lambda: local_nrmse(np.zeros(2), np.array([1, 2])),
        lambda: local_nrmse(np.zeros((2, 2, 1)), np.array([1, 2])),
        lambda: local_nrmse(np.zeros((2, 1)), np.array([1, 2])),
        lambda: local_nrmse(np.zeros((2, 3)), np.array([1, 2])),
    ],
    ids=[
        "nrmse-no-estimates", "local-no-nodes", "local-zero-runs", "local-all-tau-v-zero",
        "local-1d-estimates", "local-3d-estimates", "local-one-column-for-two-nodes",
        "local-node-axis-mismatch",
    ],
)
def test_undefined_input_raises_instead_of_nan(call):
    with pytest.raises(ValueError):
        call()
