"""Bare-particle inertial functionals of a rigidly gyrating extended body.

A spherical rest-frame density f(|x|) (mass or charge) is reduced to its
radial measure; every slice integral of the rigid rotation then factors
into a radial integral against closed-form angular kernels:

    <gamma>_sphere(beta)              = artanh(beta)/beta
    K(beta) = <gamma sin^2 theta>_sphere
            = ((1+beta^2)/(2 beta^3)) artanh(beta) - 1/(2 beta^2)

with beta = omega r the equatorial speed at radius r, in units with
c = 1.  The gyrational mass, bare spin and the spin -> angular-velocity
inversion are built from these, in closed form for both profiles (the
gyration curve).  With B = omega R, A = artanh B = (2 B^3 K + B) / (1 + B^2),
u = (1 - B)(1 + B) and m the total mass:

    shell  sigma = m R^2 omega K,  sigma' = 2 m R^2 (1 - K u) / (u (1 + B^2)),
           M = m A / B = m (1 + 2 B^2 K) / (1 + B^2);
    ball   sigma = 3 m R J / B^4 = 3 m R^2 omega j,  sigma' = 3 m R^2 (K - 4 j),
           J = int_0^B b^4 K db = [(B^2 + 3)(B^2 - 1) A + 3 B - B^3] / 8 = B^5 j,
           M = (3 m / B^3) [(B^2 - 1) A + B] / 2 = 3 m (1 + 4 B^2 j) / (3 + B^2).

Three forms cancel.  K's closed form does below SERIES_BELOW = 0.5, where
its even series takes over, with coefficients a_k = 2k/(4k^2 - 1) of
B^(2k-2), k >= 1; j = [2 - K u (3 + B^2)] / (4 B^2 (1 + B^2)) does below
BALL_SERIES_BELOW = 0.75, where its series, coefficients a_k / (2k + 3),
takes over; K - 4 j cancels at most fivefold.  Each series is summed only
up to the term where its geometric tail bound falls below an eighth of an
ulp: 26 of its 28 and 56 of its 58 terms below the switch points, 15 of
each at B = 0.3.  So one spin_kernel pass
gives sigma and sigma' of either profile.  All a_k are positive, so B K
is increasing and convex on [0, 1), and so is the ball's sigma, a sum of
shells of radius x R and mass 3 m x^2 dx; K >= K(0) = 2/3 gives
sigma(omega) >= I omega with I = (2/3) int r^2 dm.  Newton's first
iterate for sigma(omega) = s therefore lies at or above the root: cold it
is min(s/I, omega_cap), warm the tangent step from any guess in
[0, omega_cap], which convexity puts at or above the root, clamped to
omega_cap.  Each later tangent step of an increasing convex function
lands between the root and the previous iterate: the iterates decrease
monotonically onto the root, with no bracket.  GyrationCurve does this
on Python floats, once per mass profile: the package's one spin map.
"""

from __future__ import annotations

import math
from bisect import bisect
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache

import numpy as np

from .roots import bracketed_root


# ---------------------------------------------------------------------------
# density profiles
# ---------------------------------------------------------------------------

@cache
def _gauss(order: int) -> tuple:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per order
    and read-only, since every caller shares them."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = w.flags.writeable = False
    return x, w


# node counts of the support rule: radial (a ball's; a shell has one node),
# polar and azimuthal
ORDER_R = 24
ORDER_THETA = 48
ORDER_PHI = 24


@dataclass(frozen=True)
class DensityProfile:
    """Spherically symmetric radial measure with compact support [0, R]:
    a uniform shell of radius R or a uniform ball (kind 'volume'), with its
    quadrature rules and moments; the fields a charge profile sources, with
    a shell's surface jump, are the radial model of `fields`.

    kind   'shell' | 'volume'
    total  integral of the measure (m_b for mass, -e for charge)
    R      support radius
    """

    kind: str
    total: float
    R: float

    def __post_init__(self):
        if self.kind not in ("shell", "volume"):
            raise ValueError(f"unknown profile kind {self.kind!r}")
        if not 0 < self.R < math.inf:
            raise ValueError(f"R must be positive and finite, got {self.R:g}")
        if not math.isfinite(self.total):
            raise ValueError(f"total must be finite, got {self.total:g}")

    # -- constructors ---------------------------------------------------
    @staticmethod
    def shell(total: float, R: float) -> "DensityProfile":
        return DensityProfile("shell", total, R)

    @staticmethod
    def volume(total: float, R: float) -> "DensityProfile":
        return DensityProfile("volume", total, R)

    # -- radial integrals -------------------------------------------------
    def radial_rule(self):
        """Nodes and weights with sum_k w_k g(r_k) ~ int g(r) f(r) 4 pi r^2 dr:
        the one node R for a shell, ORDER_R Gauss-Legendre nodes on [0, R]
        for a ball."""
        if self.kind == "shell":
            return np.array([self.R]), np.array([self.total])
        x, w = _gauss(ORDER_R)
        r = 0.5 * self.R * (x + 1.0)
        wr = 0.5 * self.R * w
        dens = self.total * 3.0 / (4.0 * np.pi * self.R**3)
        return r, wr * dens * 4.0 * np.pi * r**2

    def moment(self, n: int) -> float:
        """int r^n f(r) 4 pi r^2 dr."""
        if self.kind == "shell":
            return self.total * self.R**n
        return self.total * 3.0 / (n + 3.0) * self.R**n

    def support_rule(self):
        """3-d product rule: points (N,3) and weights with
        sum w_k g(x_k) ~ int g(x) f(|x|) d^3x, of ORDER_R radial, ORDER_THETA
        polar and ORDER_PHI azimuthal nodes, built once per profile and
        orders and read-only, like `_gauss` (the key keeps the sign of a zero
        total, since -0.0 == 0.0)."""
        return _support_rule(self, math.copysign(1.0, self.total), ORDER_R, ORDER_THETA, ORDER_PHI)


@lru_cache(maxsize=4)   # a ball's rule holds 0.9 MB: a sweep over R cannot grow the cache
def _support_rule(profile, sign, order_r, order_theta, order_phi):
    """`sign` and `order_r` only key the cache: radial_rule reads ORDER_R."""
    r, wr = profile.radial_rule()
    mu, wmu = _gauss(order_theta)
    phi = 2.0 * np.pi * np.arange(order_phi) / order_phi
    wphi = np.full(order_phi, 1.0 / order_phi)
    # radial weights carry f(r) 4 pi r^2 dr; the angular rule averages
    # over the sphere, so combined weights reproduce the 3-d measure
    st = np.sqrt(1.0 - mu**2)
    pts = np.empty((len(r), len(mu), len(phi), 3))
    pts[..., 0] = r[:, None, None] * st[None, :, None] * np.cos(phi)[None, None, :]
    pts[..., 1] = r[:, None, None] * st[None, :, None] * np.sin(phi)[None, None, :]
    pts[..., 2] = r[:, None, None] * mu[None, :, None]
    w = (wr[:, None, None] * (0.5 * wmu)[None, :, None] * wphi[None, None, :])
    pts, w = pts.reshape(-1, 3), w.reshape(-1)
    pts.flags.writeable = w.flags.writeable = False
    return pts, w


# ---------------------------------------------------------------------------
# the angular kernel of rigid relativistic rotation
# ---------------------------------------------------------------------------

# below these beta K and the ball's moment j come from their series: there
# the closed forms' rounding would reach the residual floor of `invert`
SERIES_BELOW = 0.5
BALL_SERIES_BELOW = 0.75
# Horner coefficients, highest power of beta^2 first: K = sum a_k beta^(2k-2)
# with a_k = 2k/(4k^2 - 1), and j = sum a_k beta^(2k-2)/(2k + 3); 28 and 58
# terms cover the two switch points, of which a beta reads its _series_cuts
_K_SERIES = tuple(2.0 * k / (4.0 * k * k - 1.0) for k in range(28, 0, -1))
_J_SERIES = tuple(2.0 * k / ((4.0 * k * k - 1.0) * (2 * k + 3)) for k in range(58, 0, -1))


def _series_cuts(coefs: tuple, switch: float) -> tuple:
    """Where the leading terms of a series reach round-off: x_1 < ... <
    x_(N-1), so that the leading bisect(cuts, x) + 1 terms suffice at
    x = beta^2 below the switch point.

    The coefficients c_k decrease, so the terms after the first n sum to at
    most c_(n+1) x^n / (1 - x) <= c_(n+1) x^n / (1 - switch^2).  That bound
    lies below 2^-56 c_1, at most an eighth of an ulp of the sum, for
    x < x_n = (2^-56 c_1 (1 - switch^2) / c_(n+1))^(1/n)."""
    c = coefs[::-1]
    tol = 2.0**-56 * c[0] * (1.0 - switch * switch)
    return tuple((tol / c[n]) ** (1.0 / n) for n in range(1, len(c)))


# the series' leading 1, 2, ... terms, and the cut points that choose them
_K_TERMS = tuple(_K_SERIES[-n:] for n in range(1, len(_K_SERIES) + 1))
_J_TERMS = tuple(_J_SERIES[-n:] for n in range(1, len(_J_SERIES) + 1))
_K_CUTS = _series_cuts(_K_SERIES, SERIES_BELOW)
_J_CUTS = _series_cuts(_J_SERIES, BALL_SERIES_BELOW)


def _horner(coefs, x: float) -> float:
    out = 0.0
    for a in coefs:
        out = out * x + a
    return out


def _kernel(beta: float) -> float:
    b2 = beta * beta
    if b2 < SERIES_BELOW * SERIES_BELOW:
        return _horner(_K_TERMS[bisect(_K_CUTS, b2)], b2)
    return ((1.0 + b2) / (2.0 * b2 * beta)) * math.atanh(beta) - 1.0 / (2.0 * b2)


def spin_kernel(beta: float) -> np.float64:
    """Spherical average K(beta) of gamma sin^2(theta) at one float beta.

    Closed form ((1+b^2)/(2 b^3)) artanh b - 1/(2 b^2); evaluated by its
    even power series 2/3 + (4/15) b^2 + ... below SERIES_BELOW, where the
    closed form cancels, to the term where its tail reaches round-off
    (_series_cuts).  Every sigma pass of a
    GyrationCurve makes one call, so a count of calls is a count of passes.
    """
    return np.float64(_kernel(beta))


def _ball_moment(beta: float, k: float = None) -> float:
    """j = J/beta^5 of the ball: its series below BALL_SERIES_BELOW, else
    from K(beta), given as k or evaluated here."""
    b2 = beta * beta
    if b2 < BALL_SERIES_BELOW * BALL_SERIES_BELOW:
        return _horner(_J_TERMS[bisect(_J_CUTS, b2)], b2)
    if k is None:
        k = _kernel(beta)
    u = (1.0 - beta) * (1.0 + beta)
    return (2.0 - k * u * (3.0 + b2)) / (4.0 * b2 * (1.0 + b2))


# ---------------------------------------------------------------------------
# the gyration curve of a mass profile
# ---------------------------------------------------------------------------

NEWTON_MAX = 100
_EPS = np.finfo(float).eps


class GyrationCurve:
    """sigma = |s_b|, d sigma/d omega and M as functions of one float
    |omega|, and the inverse |s_b| -> |omega|, for one mass profile, in
    the closed forms of the module docstring.

    `omega_cap` (units of 1/R) bounds the inverse: |s| >= sigma(cap) is
    rejected.  The default cap is the double-precision edge of the light
    cone.  A profile whose mass is not positive is refused (ValueError).
    """

    def __init__(self, fm: DensityProfile, omega_cap: float = 1.0 - 1e-14):
        if not fm.total > 0:
            raise ValueError(f"mass must be positive, got {fm.total:g}")
        self.fm = fm
        self._ball = fm.kind == "volume"
        self._mR2 = fm.total * fm.R**2
        self.inertia = (2.0 / 3.0) * fm.moment(2)
        self.omega_cap = omega_cap / fm.R

    @cached_property
    def sigma_cap(self) -> float:
        return self.sigma(self.omega_cap)

    def sigma_slope(self, omega: float) -> tuple:
        """(sigma, d sigma/d omega) from one spin_kernel pass; sigma is odd
        here, so Newton returns from an iterate rounded below zero."""
        b = omega * self.fm.R
        k = float(spin_kernel(b))
        if self._ball:
            j = _ball_moment(b, k)
            return 3.0 * self._mR2 * omega * j, 3.0 * self._mR2 * (k - 4.0 * j)
        u = (1.0 - b) * (1.0 + b)
        return self._mR2 * omega * k, self._mR2 * 2.0 * (1.0 - k * u) / (u * (1.0 + b * b))

    def sigma(self, omega: float) -> float:
        """|s_b|(|omega|)."""
        return self.sigma_slope(omega)[0]

    def mass(self, omega: float) -> float:
        """Gyrational mass M(|omega|); not a sigma pass, so no spin_kernel
        call."""
        b = omega * self.fm.R
        b2 = b * b
        if self._ball:
            return 3.0 * self.fm.total * (1.0 + 4.0 * b2 * _ball_moment(b)) / (3.0 + b2)
        return self.fm.total * (1.0 + 2.0 * b2 * _kernel(b)) / (1.0 + b2)

    @staticmethod
    def _accepts(f, s, w, df):
        """|residual| <= 1e-9 |s| plus the rounding floor eps |omega| sigma';
        after the first, iterates only descend, so the last residual bounds
        the returned one."""
        return abs(f) <= 1e-9 * s + 16.0 * _EPS * w * df

    def invert(self, s: float, start: float = None) -> float:
        """|omega| with sigma(|omega|) = s for one float s: Newton on floats,
        cold or from `start`, any guess in [0, cap] (module docstring), with
        each iterate clamped to the cap and `bracketed_root` on [0, cap] if
        `_accepts` fails.  s >= sigma_cap raises ValueError, a NaN
        FloatingPointError."""
        if not s < self.sigma_cap:
            if s != s:
                raise FloatingPointError("spin magnitude is not finite")
            raise ValueError(
                f"|s| = {s:g} reaches the gyrational bound {self.sigma_cap:g} "
                f"at omega R / c = {self.omega_cap * self.fm.R:g}")
        cap = self.omega_cap
        w = min(s / self.inertia, cap) if start is None else float(start)
        for _ in range(NEWTON_MAX):
            sig, df = self.sigma_slope(w)
            f = sig - s
            step = f / df
            w = min(w - step, cap)
            if abs(step) <= 1e-13 * w:
                break
        if not self._accepts(f, s, w, df):
            w = bracketed_root(lambda x: self.sigma(x) - s, 0.0, cap,
                               xtol=4.0 * _EPS * cap, rtol=4.0 * _EPS)
        return w


# ---------------------------------------------------------------------------
# inertial functionals
# ---------------------------------------------------------------------------

def _check_subluminal(profile: DensityProfile, omega: float) -> None:
    """The model's domain, an equator slower than light: |omega| R < c = 1,
    which NaN and +-inf fail."""
    b = abs(omega) * profile.R
    if not b < 1.0:
        raise ValueError(f"omega R must be finite and lie strictly between -1 and 1 (equatorial "
                         f"speed below c = 1), got |omega| R = {b:g}")


def gyrational_mass(fm: DensityProfile, omega: float) -> float:
    """Bare gyrational mass: rest mass dressed with rigid-rotation energy.

    int artanh(omega r)/(omega r) f(r) 4 pi r^2 dr; equals
    m_b artanh(omega R) / (omega R) for a shell.
    """
    omega = abs(float(omega))
    _check_subluminal(fm, omega)
    return GyrationCurve(fm).mass(omega)
