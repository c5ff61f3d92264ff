"""Unit tests for the estimator math and error metrics."""
import numpy as np
import pandas as pd
import pytest

from repro.core.estimators import (
    graybill_deal,
    local_nrmse,
    nrmse,
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
    def _exact(self):
        return pd.DataFrame({"v": [1, 2], "tau_v": [10, 4]})

    def test_perfect(self):
        est = pd.DataFrame(
            {"run": [0, 0, 1, 1], "v": [1, 2, 1, 2], "est": [10.0, 4.0, 10.0, 4.0]}
        )
        assert local_nrmse(est, self._exact(), n_runs=2) == 0.0

    def test_missing_runs_count_as_zero(self):
        est = pd.DataFrame({"run": [0], "v": [1], "est": [10.0]})
        # node 1: runs (10, 0) → rmse sqrt(50)/10; node 2: always 0 → 1.0
        got = local_nrmse(est, self._exact(), n_runs=2)
        assert got == pytest.approx((np.sqrt(50) / 10 + 1.0) / 2)

    def test_empty_estimates(self):
        est = pd.DataFrame(columns=["run", "v", "est"])
        assert local_nrmse(est, self._exact(), n_runs=3) == pytest.approx(1.0)

    def test_single_node(self):
        exact = pd.DataFrame({"v": [5], "tau_v": [2]})
        est = pd.DataFrame({"run": [0, 1], "v": [5, 5], "est": [1.0, 3.0]})
        assert local_nrmse(est, exact, n_runs=2) == pytest.approx(0.5)


@pytest.mark.parametrize(
    "call",
    [
        lambda: nrmse([], 10),
        lambda: local_nrmse(
            pd.DataFrame(columns=["run", "v", "est"]),
            pd.DataFrame(columns=["v", "tau_v"]),
            n_runs=2,
        ),
        lambda: local_nrmse(
            pd.DataFrame(columns=["run", "v", "est"]),
            pd.DataFrame({"v": [1], "tau_v": [3]}),
            n_runs=0,
        ),
    ],
    ids=["nrmse-no-estimates", "local-no-nodes", "local-zero-runs"],
)
def test_undefined_input_raises_instead_of_nan(call):
    with pytest.raises(ValueError):
        call()
