"""Stationary renormalization flow to vanishing bare rest mass.

Units: hbar = m_e = c = 1 and e^2 = alpha, so masses are in m_e,
lengths in the Compton radius R_C = hbar / m_e c, spins in hbar and
omega R is the equatorial speed over c.

Matching charge, total mass and magnetic moment of the shell particle to
electron data leaves a one-parameter curve in (R, omega, m_b) space:

    omega(R)  = 3 mu_e / (e R^2)               (moment matching)
    m_b(R)    = x [1 - (e^2/2R)(1 + 2 mu_e^2/e^2 R^2)] / artanh(x),
                x = 3 mu_e / (e R) = omega R,

well-defined on R > R0 = 3 mu_e / e, monotone increasing, with
m_b -> 1 as R -> infinity and m_b -> 0 as R -> R0 (where the
equatorial speed reaches 1 exactly).

Near the endpoint the (R, m_b) relation is logarithmic: artanh(x)
diverges only like log(1/(1-x)), so m_b decreases slowly along R while
R(m_b) - R0 ~ exp(-2 NUM / m_b) collapses below double-precision
resolution already for m_b < 5e-2.  The flow is therefore
parametrized internally by eta = artanh(x) in (0, inf), in which both
directions are smooth and the inversion m_b -> eta is well conditioned
for every m_b in (0, 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .bare_particle import SERIES_BELOW, _kernel
from .roots import bracketed_root


@dataclass(frozen=True)
class PhysicalConstants:
    """Electron data for the flow: e = sqrt(alpha) and the Bohr magneton
    e / 2.  The one field toggles the magnetic-moment anomaly; with it off
    mu_e equals the Bohr magneton exactly.
    """

    include_anomaly: bool = True

    alpha = 1.0 / 137.036
    anomaly = 0.001159652

    @cached_property
    def e(self) -> float:
        return float(np.sqrt(self.alpha))

    @cached_property
    def mu_bohr(self) -> float:
        return 0.5 * self.e

    @cached_property
    def a_eff(self) -> float:
        return self.anomaly if self.include_anomaly else 0.0

    @cached_property
    def mu_e(self) -> float:
        return (1.0 + self.a_eff) * self.mu_bohr

    @cached_property
    def R_endpoint(self) -> float:
        """Flow endpoint 3 mu_e / e = (3/2)(1 + a)."""
        return 3.0 * self.mu_e / self.e


NATURAL = PhysicalConstants()


@dataclass(frozen=True)
class RenormPoint:
    """One point of the flow curve with its derived observables."""

    R: float
    omegaE: float
    m_b: float
    W_b: float
    W_f: float
    s_b: float
    s_f: float
    s: float
    g: float

    def as_row(self) -> dict:
        """The flow.csv row; the names give the units of the module docstring."""
        return {
            "mb_over_me": self.m_b,
            "R_over_RC": self.R,
            "omegaR_over_c": self.omegaE * self.R,
            "W_b": self.W_b,
            "W_f": self.W_f,
            "sb_over_hbar": self.s_b,
            "sf_over_hbar": self.s_f,
            "s_over_hbar": self.s,
            "g": self.g,
        }


def omega_of_R(R: float, k: PhysicalConstants = NATURAL) -> float:
    """Angular speed matching the electron magnetic moment: 3 mu_e/(e R^2).

    Subluminal (omega R < 1) exactly when R exceeds the endpoint radius."""
    if R <= 0:
        raise ValueError("R must be positive")
    return 3.0 * k.mu_e / (k.e * R**2)


def _num_factor(R: float, k: PhysicalConstants) -> float:
    """1 - (e^2 / 2R)(1 + 2 mu_e^2 / e^2 R^2)."""
    return 1.0 - (k.e**2 / (2.0 * R)) * (
        1.0 + 2.0 * k.mu_e**2 / (k.e**2 * R**2))


def mb_of_R(R: float, k: PhysicalConstants = NATURAL) -> float:
    """Bare rest mass along the flow as a function of the radius."""
    x = k.R_endpoint / R
    if x >= 1.0:
        raise ValueError(
            f"R = {R:g} is outside the flow domain (R must exceed {k.R_endpoint:g})")
    return x * _num_factor(R, k) / np.arctanh(x)


def flow_point(eta: float, k: PhysicalConstants = NATURAL) -> RenormPoint:
    """Evaluate all observables at the flow parameter eta = artanh(omega R).

    Uniformly stable from eta -> 0 (R -> infinity) to arbitrarily large
    eta (m_b -> 0, R -> endpoint); no intermediate quantity degrades even
    when x = tanh(eta) rounds to 1.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    x = float(np.tanh(eta))
    R = k.R_endpoint / x
    num = _num_factor(R, k)
    m_b = x * num / eta
    omega = x / R
    w_f = 0.5 * (k.e**2 / R) * (1.0 + (2.0 / 9.0) * x**2)
    w_b = m_b * eta / x
    # bare spin m_b R x K(x) = m_b R [ (1 + 1/x^2)/2 eta - 1/(2x) ]: the
    # closed form's terms of size 1/x cancel to a difference of size x, so
    # below SERIES_BELOW K comes from its series; above it the product
    # m_b * eta stays finite as eta -> inf
    if x < SERIES_BELOW:
        s_b = m_b * R * x * _kernel(x)
    else:
        s_b = 0.5 * R * (m_b * eta * (1.0 + 1.0 / x**2) - m_b / x)
    s_f = (2.0 / 9.0) * k.e**2 * x
    s = s_b + s_f
    g = 2.0 * k.mu_e / (k.e * s)
    return RenormPoint(R=R, omegaE=omega, m_b=m_b, W_b=w_b, W_f=w_f,
                       s_b=s_b, s_f=s_f, s=s, g=g)


def eta_of_mb(m_b: float, k: PhysicalConstants = NATURAL) -> float:
    """Invert m_b(eta), smooth and well conditioned on (0, 1); ValueError
    refuses any other m_b, NaN included."""
    if not (0.0 < m_b < 1.0):
        raise ValueError(f"m_b must lie strictly between 0 and m_e = 1, got {m_b:g}")

    def f(eta):   # flow_point's m_b, in its float operations
        x = float(np.tanh(eta))
        return x * _num_factor(k.R_endpoint / x, k) / eta - m_b

    # eta ~ NUM(R0)/m_b for small m_b, eta ~ x for m_b near 1
    guess = max(_num_factor(k.R_endpoint, k) / m_b, 1e-8)
    lo, hi = guess / 16.0, guess * 16.0
    if not np.isfinite(hi):
        raise ValueError(f"m_b = {m_b:g} is too small to invert: the bracket "
                         f"16 NUM/m_b overflows")
    while f(lo) < 0:  # m_b(eta) decreases with eta
        lo /= 16.0
        if lo < 1e-300:
            raise RuntimeError("bracketing failed")
    while f(hi) > 0:
        hi *= 16.0
        if hi > 1e300:
            raise RuntimeError("bracketing failed")
    return bracketed_root(f, lo, hi, xtol=1e-300, rtol=1e-15)


def flow_sweep(mb_grid, k: PhysicalConstants = NATURAL) -> list:
    """Table of RenormPoint rows over a bare-mass grid within (0, 1)."""
    return [flow_point(eta_of_mb(float(mb), k), k) for mb in np.asarray(mb_grid, dtype=float)]


# ---------------------------------------------------------------------------
# limit constants
# ---------------------------------------------------------------------------

def limit_constants(k: PhysicalConstants = NATURAL) -> dict:
    """Closed-form constants of the vanishing-bare-mass endpoint.

    The published alpha-series of the g factor is exact with the anomaly
    off, where s_ren = (3/2)(1 - 7 alpha / 27) and therefore
    g = (2/3) / (1 - 7 alpha / 27) = (2/3)(1 + q + q^2 + ...) with
    q = 7 alpha / 27.
    """
    a = k.a_eff
    alpha = k.alpha
    r0 = k.R_endpoint
    w_f_lim = 0.5 * (k.e**2 / r0) * (11.0 / 9.0)
    m_ph = 1.0 - w_f_lim
    s_b_lim = r0 * _num_factor(r0, k)
    s_f_lim = (2.0 / 9.0) * k.e**2
    s_ren = s_b_lim + s_f_lim
    g = 2.0 * k.mu_e / (k.e * s_ren)
    q = 7.0 * alpha / 27.0
    return {
        "R_lim": r0,
        "R_lim_over_RC": r0,
        "m_ph": m_ph,
        "m_ph_over_me": m_ph,
        "s_b_lim": s_b_lim,
        "s_f_lim": s_f_lim,
        "s_ren": s_ren,
        "s_ren_over_hbar": s_ren,
        "g": g,
        "g0": 2.0 / 3.0,
        "g_series_ratio": q,
        "g_series": [2.0 / 3.0, (2.0 / 3.0) * q, (2.0 / 3.0) * q * q],
        "photonic_spin": 1.5 * (1.0 - 11.0 * alpha / 27.0),
        "kappa": 1.0 / (1.0 - 11.0 * alpha / 27.0),
        "euler_frequency": 1.0,
        "anomaly": a,
    }


def spin_decomposition_identity() -> bool:
    """Exact rational check (3/2)(1 - 11q/27) + (2/9)q = (3/2)(1 - 7q/27)."""
    lhs = Fraction(3, 2) * (1 - Fraction(11, 27)) + Fraction(2, 9)
    rhs = Fraction(3, 2) * (1 - Fraction(7, 27))
    return lhs == rhs
