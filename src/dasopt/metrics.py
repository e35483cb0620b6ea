"""Merit functions, rate fitting, and the closed-form theory constants."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def merit_Msc(x, x_star) -> float:
    """Euclidean norm of the stacked deviation from the reference solution."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    return float(np.linalg.norm(x - np.asarray(x_star, dtype=float)))


def merit_MF(x, objective) -> float:
    """Max of squared stationarity gap at the average iterate and squared
    consensus disagreement; zero exactly at consensual stationary points."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    x_bar = x.mean(axis=0)
    g = objective.grad_fused(x_bar)
    return max(float(g @ g), float(np.sum((x - x_bar) ** 2)))


def optimality_gap(x, x_star) -> float:
    """Per-agent RMS distance to the reference solution (the J metric)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    return merit_Msc(x, x_star) / x.shape[0]


def fit_linear_rate(ks, values) -> tuple:
    """Least-squares slope and R^2 of log(value) against k.

    exp(slope) estimates the per-iteration geometric ratio. Values must be
    strictly positive.
    """
    ks = np.asarray(ks, dtype=float)
    values = np.asarray(values, dtype=float)
    if ks.size != values.size or ks.size < 2:
        raise ValueError("need at least two (k, value) pairs")
    if np.any(values <= 0):
        raise ValueError("values must be strictly positive to fit a log-linear rate")
    logs = np.log(values)
    kc = ks - ks.mean()
    denom = float(kc @ kc)
    if denom == 0.0:
        raise ValueError("k values must not all coincide")
    slope = float(kc @ (logs - logs.mean())) / denom
    intercept = float(logs.mean()) - slope * float(ks.mean())
    resid = logs - (slope * ks + intercept)
    ss_res = float(resid @ resid)
    ss_tot = float(np.sum((logs - logs.mean()) ** 2))
    if ss_tot <= 1e-28 * max(1.0, float(logs @ logs)):  # degenerate: constant values
        return 0.0, 1.0
    return slope, 1.0 - ss_res / ss_tot


def polynomial_stability(coefficients) -> bool:
    """Root test for z^m - a_1 z^{m-1} - ... - a_m with nonnegative a_i:
    all roots lie strictly inside the unit circle iff 1 - sum(a_i) > 0."""
    a = np.asarray(coefficients, dtype=float)
    if np.any(a < 0):
        raise ValueError("coefficients must be nonnegative")
    return bool(1.0 - float(a.sum()) > 0.0)


@dataclass(frozen=True)
class TheoryConstants:
    """Closed-form constants driving the geometric-decay guarantees.

    All quantities follow from the network floor m_bar, the window/delay
    certificates (T, D), and the objective's smoothness and convexity
    parameters. They are conservative by construction and are reported next
    to empirical fits, never used to gate acceptance.
    """

    m_bar: float
    I: int
    n_edges: int
    T: int
    D: int
    C_L: float
    L: float
    tau: float
    K1: int
    S: int
    eta: float
    rho: float
    C: float
    C0: float
    C1: float
    C2: float
    b1: float
    b2: float
    J1: float
    gamma_hat1: float
    gamma_hat2: float
    gamma_bar1: float
    gamma_bar2: float
    rho_c: float
    rho_t: float
    alpha_star: float
    beta_star: float

    def report(self) -> str:
        keys = ("K1", "S", "eta", "rho", "C", "C0", "C1", "C2", "b1", "b2",
                "J1", "gamma_hat1", "gamma_hat2", "gamma_bar1", "gamma_bar2",
                "rho_c", "rho_t", "alpha_star", "beta_star")
        lines = [f"{k} = {getattr(self, k):.12g}" for k in keys]
        return "\n".join(lines)


def theory_constants(m_bar: float, I: int, n_edges: int, T: int, D: int,
                     C_L: float, L: float, tau: float) -> TheoryConstants:
    """Evaluate every closed-form constant; raises when m_bar^K1 underflows."""
    if not (0.0 < m_bar <= 1.0):
        raise ValueError("m_bar must be in (0, 1]")
    if min(I, T) < 1 or D < 0 or n_edges < 0 or min(C_L, L) <= 0 or tau <= 0:
        raise ValueError("invalid theory-constant inputs")
    K1 = (2 * I - 1) * T + I * D
    S = I + (D + 1) * n_edges
    if m_bar == 1.0:
        raise ValueError("m_bar must be < 1 for a nontrivial contraction")
    eta = m_bar ** K1
    if 1.0 - eta == 1.0:
        raise ValueError(
            f"m_bar^K1 = {eta:.3e} is below double resolution for m_bar={m_bar}, "
            f"K1={K1}; the constants are representable only for milder "
            f"network/delay regimes")
    inv_eta = 1.0 / eta
    rho = (1.0 - eta) ** (1.0 / K1)
    C = 2.0 * (1.0 + inv_eta) / (1.0 - eta)
    C0 = C * math.sqrt(2.0 * S) / rho
    C1 = 2.0 * C0 / (I * eta)
    # sign-corrected denominator (1 - m_bar^K1); the raw (1 - m_bar^-K1) is negative
    C2 = 2.0 * math.sqrt((D + 2) * I) * (1.0 + inv_eta) / (1.0 - eta)
    b1 = C_L * math.sqrt(I)
    b2 = 3.0 * C0 * C_L
    te2 = tau * eta * eta
    J1 = b1 * C2 + 2.0 * L * b2 * C2 / te2 + (1.0 + 2.0 * L / te2) * b2 * (1.0 + C2)
    gamma_hat2 = (1.0 - rho) ** 2 / J1
    # stable form of ((sqrt(J1 + a) - sqrt(J1)) / te2)^2 with a = 2 te2 (1 - rho)
    a = 2.0 * te2 * (1.0 - rho)
    gamma_hat1 = (a / (te2 * (math.sqrt(J1 + a) + math.sqrt(J1)))) ** 2
    gamma_bar1 = (te2 * (1.0 - rho) ** 2
                  / ((te2 + L) * b2 * (C2 + 1.0 - rho)
                     + (b1 * te2 + L * b2) * C2 * (1.0 - rho)))
    rho_c = 2.0 * C2 ** 2 / (1.0 - rho) ** 2
    rho_t = 36.0 * (C0 * C_L) ** 2 * (2.0 * C2 ** 2 + (1.0 - rho) ** 2) / (1.0 - rho) ** 4
    alpha_star = 1.0 / (C_L * math.sqrt(I * rho_c))
    beta_star = eta / math.sqrt(rho_t)
    gamma_bar2 = 2.0 * eta / (L + 2.0 * C_L * math.sqrt(I * rho_c)
                              + 2.0 * math.sqrt(rho_t) / eta)
    return TheoryConstants(
        m_bar=m_bar, I=I, n_edges=n_edges, T=T, D=D, C_L=C_L, L=L, tau=tau,
        K1=K1, S=S, eta=eta, rho=rho, C=C, C0=C0, C1=C1, C2=C2, b1=b1, b2=b2,
        J1=J1, gamma_hat1=gamma_hat1, gamma_hat2=gamma_hat2,
        gamma_bar1=gamma_bar1, gamma_bar2=gamma_bar2,
        rho_c=rho_c, rho_t=rho_t, alpha_star=alpha_star, beta_star=beta_star)


def stability_bound(tc: TheoryConstants, lam: float, gamma: float) -> float:
    """Gain-product criterion: the error system contracts at rate lam when
    this evaluates below 1.

    The gap to the descent modulus is formed as (lam - 1) + tau eta^2 gamma
    rather than lam - (1 - tau eta^2 gamma): near lam = 1 the latter rounds
    to zero while the former stays exact.
    """
    gap_r = lam - tc.rho
    gap_l = (lam - 1.0) + tc.tau * tc.eta ** 2 * gamma
    if gap_r <= 0 or gap_l <= 0:
        raise ValueError("lam must exceed both rho and the descent modulus")
    inner = 1.0 + tc.L * gamma / gap_l
    return ((inner * tc.b2 / gap_r + tc.b1 + tc.L * tc.b2 * gamma / gap_l)
            * tc.C2 * gamma / gap_r
            + inner * tc.b2 * gamma / gap_r)


def rate_lambda(tc: TheoryConstants, gamma: float) -> float:
    """Two-branch geometric rate for constant steps below the threshold."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if gamma <= tc.gamma_hat1:
        return 1.0 - tc.tau * tc.eta ** 2 * gamma / 2.0
    if gamma < tc.gamma_hat2:
        return tc.rho + math.sqrt(tc.J1 * gamma)
    raise ValueError(f"the closed-form rate is defined for gamma < {tc.gamma_hat2:.3e}")


def spectral_radius_certificate(tc: TheoryConstants, gamma: float) -> bool:
    """True when the four-state error system is certified contractive at the
    unit boundary, via the nonnegative-polynomial root criterion."""
    return stability_bound(tc, 1.0, gamma) < 1.0
