"""Bare-particle inertial functionals of a rigidly gyrating extended body.

A spherical rest-frame density f(|x|) (mass or charge) is reduced to its
radial measure; every slice integral of the rigid rotation then factors
into a radial integral against closed-form angular kernels:

    <gamma>_sphere(beta)              = artanh(beta)/beta
    K(beta) = <gamma sin^2 theta>_sphere
            = ((1+beta^2)/(2 beta^3)) artanh(beta) - 1/(2 beta^2)

with beta = omega r / c the equatorial speed at radius r.  The gyrational
mass, bare spin and the spin -> angular-velocity inversion are built from
these.  For a surface (shell) density the radial
integral collapses to the closed forms used by the renormalization flow.

Gyration curve.  On a radial rule (r_k, w_k) the bare spin magnitude and
its slope are

    sigma(omega)    = sum_k w_k r_k^2 omega K(beta_k),
    d sigma/d omega = sum_k w_k r_k^2 (beta K)'(beta_k),
    (beta K)'(beta) = 2 (1 - K u) / (u (1 + beta^2)),  u = (1 - beta)(1 + beta),

an identity with no cancellation on [0, 1), so one kernel pass gives both.
Below beta = 0.3, where the closed form of K cancels catastrophically, K
is summed from its even series, whose coefficients of beta^(2k-2), k >= 1,
are 2k/(4k^2 - 1); those of (beta K)' are 2k/(2k + 1).  All are positive,
so beta K is increasing and convex on [0, 1); for a density w_k >= 0 so is
sigma on [0, c/R), and K >= K(0) = 2/3 gives sigma(omega) >= I omega with
I = (2/3) sum_k w_k r_k^2.  Newton's first iterate for sigma(omega) = s
therefore lies at or above the root: cold it is min(s/I, omega_cap), warm
the tangent step from any guess in [0, omega_cap], which convexity puts at
or above the root, clamped to omega_cap.  Each later tangent step of an
increasing convex function lands between the root and the previous
iterate: the iterates decrease monotonically onto the root, with no
bracket.  GyrationCurve does this once per mass profile; every spin map
here calls it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


# ---------------------------------------------------------------------------
# density profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DensityProfile:
    """Spherically symmetric radial measure with compact support [0, R]:
    a uniform shell of radius R or a uniform ball (kind 'volume').

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
        if self.R <= 0:
            raise ValueError("R must be positive")

    # -- constructors ---------------------------------------------------
    @staticmethod
    def shell(total: float, R: float) -> "DensityProfile":
        return DensityProfile("shell", total, R)

    @staticmethod
    def volume(total: float, R: float) -> "DensityProfile":
        return DensityProfile("volume", total, R)

    # -- radial integrals -------------------------------------------------
    def radial_rule(self, order: int = 64):
        """Nodes and weights with sum_k w_k g(r_k) ~ int g(r) f(r) 4 pi r^2 dr:
        the one node R for a shell, Gauss-Legendre on [0, R] for a ball."""
        if self.kind == "shell":
            return np.array([self.R]), np.array([self.total])
        x, w = np.polynomial.legendre.leggauss(order)
        r = 0.5 * self.R * (x + 1.0)
        wr = 0.5 * self.R * w
        dens = self.total * 3.0 / (4.0 * np.pi * self.R**3)
        return r, wr * dens * 4.0 * np.pi * r**2

    def radial_integral(self, kernel) -> float:
        """int kernel(r) f(r) 4 pi r^2 dr on the radial rule."""
        r, w = self.radial_rule()
        return float(w @ kernel(r))

    def moment(self, n: int) -> float:
        """int r^n f(r) 4 pi r^2 dr."""
        if self.kind == "shell":
            return self.total * self.R**n
        return self.total * 3.0 / (n + 3.0) * self.R**n

    def surface_step(self, r, inside, outside) -> np.ndarray:
        """`inside` below R and `outside` above it.  Points within rounding
        distance 1e-12 R of the surface take the midpoint value, the
        distributional value of a shell's jump on its support."""
        band = 1e-12 * self.R
        return np.where(r < self.R - band, inside,
                        np.where(r > self.R + band, outside, 0.5 * (inside + outside)))

    def enclosed(self, r) -> np.ndarray:
        """Cumulative integral of the measure up to radius r, midpoint-valued
        on a shell (surface_step)."""
        r = np.atleast_1d(np.asarray(r, dtype=float))
        if self.kind == "shell":
            return self.surface_step(r, 0.0, self.total)
        return self.total * np.clip(r / self.R, 0.0, 1.0) ** 3

    def support_rule(self, order_r: int = 24, order_theta: int = 48, order_phi: int = 24):
        """3-d product rule: points (N,3) and weights with
        sum w_k g(x_k) ~ int g(x) f(|x|) d^3x."""
        r, wr = self.radial_rule(order_r)
        mu, wmu = np.polynomial.legendre.leggauss(order_theta)
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
        return pts.reshape(-1, 3), w.reshape(-1)


# ---------------------------------------------------------------------------
# angular kernels of rigid relativistic rotation
# ---------------------------------------------------------------------------

SERIES_BELOW = 0.3   # below this beta the kernel is summed from its series
_K = np.arange(1, 18)
_EXPONENTS = (_K - 1).astype(float)
_SPIN_SERIES = 2.0 * _K / (4.0 * _K**2 - 1.0)    # K(beta)


def gamma_kernel(beta):
    """Spherical average of the Lorentz factor: artanh(beta)/beta."""
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    out = np.ones_like(beta)
    nz = beta > 0
    out[nz] = np.arctanh(beta[nz]) / beta[nz]
    return out


def _spin_closed(b):
    return ((1.0 + b**2) / (2.0 * b**3)) * np.arctanh(b) - 1.0 / (2.0 * b**2)


def spin_kernel(beta):
    """Spherical average K(beta) of gamma sin^2(theta).

    Closed form ((1+b^2)/(2 b^3)) artanh b - 1/(2 b^2); evaluated by its
    even power series 2/3 + (4/15) b^2 + ... below SERIES_BELOW, where the
    closed form cancels catastrophically.
    """
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    small = beta < SERIES_BELOW
    if not small.any():
        return _spin_closed(beta)
    if small.all():
        return np.power.outer(beta * beta, _EXPONENTS) @ _SPIN_SERIES
    out = _spin_closed(np.where(small, SERIES_BELOW, beta))
    out[small] = np.power.outer(beta[small] ** 2, _EXPONENTS) @ _SPIN_SERIES
    return out


# ---------------------------------------------------------------------------
# the gyration curve of a mass profile
# ---------------------------------------------------------------------------

NEWTON_MAX = 100
_EPS = np.finfo(float).eps


class GyrationCurve:
    """sigma = |s_b|, d sigma/d omega and M as functions of |omega|, and
    the inverse |s_b| -> |omega|, for one mass profile.

    Built once per profile on its radial rule.  `omega_cap` (units of
    c/R) bounds the inverse: |s| >= sigma(cap) is rejected, or clipped
    to the cap with saturate=True.  The default cap is the
    double-precision edge of the light cone.
    """

    def __init__(self, fm: DensityProfile, c: float = 1.0,
                 omega_cap: float = 1.0 - 1e-14):
        r, w = fm.radial_rule()
        if np.any(w < 0):
            raise ValueError("a gyration curve needs a nonnegative mass density")
        self.fm = fm
        self.c = c
        self._r_c = r / c
        self._w = w
        self._wr2 = w * r**2
        self.inertia = (2.0 / 3.0) * float(np.sum(self._wr2))
        self.omega_cap = omega_cap * c / fm.R

    @cached_property
    def sigma_cap(self) -> float:
        return float(self.sigma(self.omega_cap))

    def _beta(self, omega):
        return np.multiply.outer(np.abs(omega), self._r_c)

    def spin_moment(self, omega):
        """Axial moment sum_k w_k r_k^2 K(beta_k) = sigma / |omega|."""
        beta = self._beta(omega)
        return spin_kernel(beta.ravel()).reshape(beta.shape) @ self._wr2

    def sigma(self, omega):
        """|s_b|(|omega|), with the shape of omega."""
        return np.abs(omega) * self.spin_moment(omega)

    def sigma_slope(self, omega):
        """(sigma, d sigma/d omega) from one spin_kernel pass, the slope
        sum_k w_k r_k^2 (beta K)'(beta_k); sigma is odd here, so Newton
        returns from an iterate rounded below zero."""
        beta = self._beta(omega)
        k = spin_kernel(beta.ravel()).reshape(beta.shape)
        u = (1.0 - beta) * (1.0 + beta)
        dk = 2.0 * (1.0 - k * u) / (u * (1.0 + beta * beta))
        return omega * (k @ self._wr2), dk @ self._wr2

    def mass(self, omega):
        """Gyrational mass sum_k w_k artanh(beta_k)/beta_k."""
        beta = self._beta(omega)
        return gamma_kernel(beta.ravel()).reshape(beta.shape) @ self._w

    def _admit(self, s, saturate=False):
        """(s, mask of s >= sigma_cap): such s raise ValueError, or are clipped
        with saturate=True; a NaN raises FloatingPointError."""
        over = s >= self.sigma_cap
        if over.any():
            if not saturate:
                raise ValueError(
                    f"|s| = {s.max():g} reaches the gyrational bound "
                    f"{self.sigma_cap:g} at omega R / c = {self.omega_cap * self.fm.R / self.c:g}")
            s = np.minimum(s, self.sigma_cap)
        if np.isnan(s).any():
            raise FloatingPointError("spin magnitude is not finite")
        return s, over

    @staticmethod
    def _accepts(f, s, w, df):
        """|residual| <= 1e-9 |s| plus the rounding floor eps |omega| sigma';
        after the first, iterates only descend, so the last residual bounds
        the returned one."""
        return abs(f) <= 1e-9 * s + 16.0 * _EPS * w * df

    def invert(self, s: float, start: float = None) -> float:
        """|omega| with sigma(|omega|) = s for one float s: Newton on floats,
        cold or from `start`, any guess in [0, cap] (module docstring), with
        each iterate clamped to the cap and bisection if `_accepts` fails."""
        if not s < self.sigma_cap:      # at the cap, or NaN: _admit raises
            self._admit(np.array([s]))
        cap = self.omega_cap
        w = min(s / self.inertia, cap) if start is None else float(start)
        for _ in range(NEWTON_MAX):
            sig, df = map(float, self.sigma_slope(w))
            f = sig - s
            step = f / df
            w = min(w - step, cap)
            if abs(step) <= 1e-13 * w:
                break
        if not self._accepts(f, s, w, df):
            w = float(self._bisect(s))
        return w

    def omega(self, smag, saturate: bool = False) -> np.ndarray:
        """|omega| with sigma(|omega|) = smag, elementwise (1-d result): `invert`
        from a cold start; saturate=True gives the cap for |s| >= sigma_cap."""
        s, over = self._admit(np.atleast_1d(np.asarray(smag, dtype=float)), saturate)
        w = np.minimum(s / self.inertia, self.omega_cap)
        for _ in range(NEWTON_MAX):
            sig, df = self.sigma_slope(w)
            f = sig - s
            step = f / df
            w = np.minimum(w - step, self.omega_cap)
            if (np.abs(step) <= 1e-13 * w).all():
                break
        bad = ~self._accepts(f, s, w, df)
        if bad.any():
            w[bad] = self._bisect(s[bad])
        if saturate:
            w[over] = self.omega_cap
        return w

    def _bisect(self, s):
        lo = np.zeros_like(s)
        hi = np.full_like(s, self.omega_cap)
        for _ in range(1100):   # enough halvings for any double root
            mid = 0.5 * (lo + hi)
            high = self.sigma(mid) > s
            hi = np.where(high, mid, hi)
            lo = np.where(high, lo, mid)
            if np.all(hi - lo <= 2.0 * _EPS * hi):
                break
        return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# inertial functionals
# ---------------------------------------------------------------------------

def _check_subluminal(fm: DensityProfile, omega_mag: float, c: float) -> None:
    if omega_mag * fm.R >= c:
        raise ValueError(
            f"equatorial speed omega R = {omega_mag * fm.R:g} >= c = {c:g}")


def gyrational_mass(fm: DensityProfile, omega: float, c: float = 1.0) -> float:
    """Bare gyrational mass: rest mass dressed with rigid-rotation energy.

    int artanh(omega r / c)/(omega r / c) f(r) 4 pi r^2 dr; equals
    m_b (c / omega R) artanh(omega R / c) for a shell.
    """
    omega = abs(float(omega))
    _check_subluminal(fm, omega, c)
    return float(GyrationCurve(fm, c).mass(omega))


def spin_magnitude(fm: DensityProfile, omega: float, c: float = 1.0) -> float:
    """|s_b|(|omega|): int r^2 <gamma sin^2> f 4 pi r^2 dr * omega."""
    omega = abs(float(omega))
    _check_subluminal(fm, omega, c)
    return float(GyrationCurve(fm, c).sigma(omega))


def bare_spin(fm: DensityProfile, omega3, c: float = 1.0) -> np.ndarray:
    """Bare spin three-vector int x cross (w cross x) gamma f d^3x.

    Parallel to omega by isotropy; for a shell equals
    m_b c R [ (1 + c^2/w^2R^2)/2 artanh(wR/c) - c/(2wR) ] unit(omega).
    """
    omega3 = np.asarray(omega3, dtype=float)
    mag = float(np.linalg.norm(omega3))
    if mag == 0.0:
        return np.zeros(3)
    return spin_magnitude(fm, mag, c) * omega3 / mag


def omega_from_spin(fm: DensityProfile, s3, c: float = 1.0) -> np.ndarray:
    """Unique omega parallel to s with bare_spin(fm, omega) = s.

    For a surface profile any finite s up to the double-precision edge
    omega R -> c is reachable; for a volume profile |s| beyond the finite
    supremum is rejected.
    """
    s3 = np.asarray(s3, dtype=float)
    smag = float(np.linalg.norm(s3))
    if smag == 0.0:
        return np.zeros(3)
    return GyrationCurve(fm, c).invert(smag) * s3 / smag

