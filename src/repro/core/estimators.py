"""Estimator math from the paper plus the evaluation error metric.

Variance formulas (paper §III), REPT's estimate from its processor
counts (Algorithm 1, and the Graybill–Deal combination of Algorithm 2),
and NRMSE (paper §IV-C) — including the local-count variant over a
runs × nodes array, where a run that sampled nothing at a node holds 0.
"""
from __future__ import annotations

import numpy as np


def var_rept(tau: float, eta: float, m: int, c: int) -> float:
    """Var(τ̂) of REPT(1/m, c ≤ m): (τ(m²−c) + 2η(m−c)) / c."""
    return (tau * (m * m - c) + 2.0 * eta * (m - c)) / c


def var_rept_groups(tau: float, m: int, c1: int) -> float:
    """Var(τ̂) of REPT with c = c1·m full groups: τ(m−1)/c1."""
    return tau * (m - 1) / c1


def var_parallel_mascot(tau: float, eta: float, m: int, c: int) -> float:
    """Var of c-way parallel MASCOT at p = 1/m:
    (τ(m²−1) + 2η(m−1)) / c — the covariance term 2η(m−1) dominates."""
    return (tau * (m * m - 1) + 2.0 * eta * (m - 1)) / c


def graybill_deal(est1, var1, est2, var2):
    """Optimal inverse-variance combination of two unbiased estimates.

    When both plugin variances are zero (0/0 in the paper's formula —
    reached at nodes whose full-group counts are all zero) the
    combination degenerates; var1 = 0 means the plugin claims est1 is
    exact, so we return est1 — the same limit the formula takes for
    var1 → 0 with var2 > 0. Vectorized over numpy arrays.
    """
    est1 = np.asarray(est1, dtype=np.float64)
    est2 = np.asarray(est2, dtype=np.float64)
    var1 = np.asarray(var1, dtype=np.float64)
    var2 = np.asarray(var2, dtype=np.float64)
    tot = var1 + var2
    with np.errstate(invalid="ignore", divide="ignore"):
        comb = (var2 * est1 + var1 * est2) / tot
    return np.where(tot > 0, comb, est1)


def rept_estimate(tau, eta_sum, m: int, c: int) -> dict[str, np.ndarray]:
    """REPT's estimate τ̂ from τ^(i) of the c processors on the first axis
    of ``tau`` (further axes over runs or nodes carry through), in the
    order of :func:`repro.core.hashing.rept_groups`, and Σ η^(i).

    The c1 = ⌊c/m⌋ full groups give τ̂(1) = (m/c1)·Σ τ^(i), the leftover
    group of c2 = c mod m gives τ̂(2) = (m²/c2)·Σ τ^(i); Algorithm 1 is
    the one-group case. When both exist, τ̂ is their Graybill–Deal
    combination, with the diagnostics ``tau1``, ``tau2`` and ``eta_hat``.
    """
    c1, c2 = divmod(c, m)
    tau = np.asarray(tau)
    if c2 == 0:
        return {"tau_hat": tau.sum(axis=0) * (m / c1)}
    tau2 = tau[c1 * m :].sum(axis=0) * (m * m / c2)
    if c1 == 0:
        return {"tau_hat": tau2}
    tau1 = tau[: c1 * m].sum(axis=0) * (m / c1)
    eta_hat = np.asarray(eta_sum) * (m**3 / c)
    w1 = tau1 * (m - 1) / c1
    w2 = (tau1 * (m * m - c2) + 2.0 * eta_hat * (m - c2)) / c2
    tau_hat = graybill_deal(tau1, w1, tau2, w2)
    return {"tau_hat": tau_hat, "tau1": tau1, "tau2": tau2, "eta_hat": eta_hat}


def nrmse(estimates, truth: float) -> float:
    """sqrt(mean((μ̂ − μ)²)) / μ over independent runs."""
    est = np.asarray(estimates, dtype=np.float64)
    if truth == 0:
        raise ValueError("NRMSE undefined for zero truth")
    if est.size == 0:
        raise ValueError("NRMSE undefined without estimates")
    return float(np.sqrt(np.mean((est - truth) ** 2)) / truth)


def local_nrmse(estimates, tau_v) -> float:
    """Mean NRMSE of local triangle counts over the nodes with τ_v > 0.

    ``estimates``: runs × nodes, 0 where a run sampled nothing at a
    node; ``tau_v``: the exact counts of the same nodes. Nodes with
    τ_v = 0 are ignored. Raises ``ValueError`` unless ``estimates`` is
    2-D over ``tau_v``'s nodes, with a run and a node with τ_v > 0.
    """
    est = np.asarray(estimates, dtype=np.float64)
    tau_v = np.asarray(tau_v)
    if est.ndim != 2 or tau_v.ndim != 1 or est.shape[1] != len(tau_v):
        raise ValueError(
            f"local NRMSE needs runs x nodes estimates over the 1-D tau_v, "
            f"got shapes {est.shape} and {tau_v.shape}"
        )
    if len(est) == 0:
        raise ValueError("local NRMSE undefined without a run")
    hit = tau_v > 0
    if not hit.any():
        raise ValueError("local NRMSE undefined without a node with tau_v > 0")
    truth = tau_v[hit].astype(np.float64)
    per_node_mse = ((est[:, hit] - truth) ** 2).mean(axis=0)
    return float((np.sqrt(per_node_mse) / truth).mean())
