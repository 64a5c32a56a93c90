"""Bare-particle inertial functionals of a rigidly gyrating extended body.

A spherical rest-frame density f(|x|) (mass or charge) is reduced to its
radial measure; every slice integral of the rigid rotation then factors
into a radial integral against closed-form angular kernels:

    <gamma>_sphere(beta)              = artanh(beta)/beta
    K(beta) = <gamma sin^2 theta>_sphere
            = ((1+beta^2)/(2 beta^3)) artanh(beta) - 1/(2 beta^2)

with beta = omega r / c the equatorial speed at radius r.  The gyrational
mass, bare spin, Minkowski inertia tensor and the spin -> angular-velocity
inversion are built from these.  For a surface (shell) density the radial
integral collapses to the closed forms used by the renormalization flow.

Gyration curve.  On a radial rule (r_k, w_k) the bare spin magnitude is

    sigma(omega)    = sum_k w_k r_k^2 omega K(beta_k),
    d sigma/d omega = sum_k w_k r_k^2 (beta K)'(beta_k),
    (beta K)'(beta) = 1/(beta^2 (1 - beta^2)) - artanh(beta)/beta^3.

Below beta = 0.3, where the closed forms cancel catastrophically, K and
(beta K)' are summed from their even series, whose coefficients of
beta^(2k-2), k >= 1, are 2k/(4k^2 - 1) and 2k/(2k + 1).  All of them are
positive, so beta K is increasing and convex on [0, 1); for a density
w_k >= 0 so is sigma on [0, c/R), and K >= K(0) = 2/3 gives
sigma(omega) >= I omega with I = (2/3) sum_k w_k r_k^2.  Newton's
iteration for sigma(omega) = s started at min(s/I, omega_cap) therefore
starts at or above the root, and each tangent step of an increasing
convex function lands between the root and the previous iterate: the
iterates decrease monotonically onto the root, with no bracket.
GyrationCurve does this once per mass profile; every spin map here
calls it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .minkowski import Rank2Tensor


# ---------------------------------------------------------------------------
# density profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DensityProfile:
    """Spherically symmetric radial measure with compact support [0, R].

    kind            'shell' | 'volume' | 'custom'
    total           integral of the measure (m_b for mass, -e for charge)
    R               support radius
    point_fraction  fraction of `total` sitting as a point at the origin
                    (mass profiles only; must be < 1 so the moment of
                    inertia stays strictly positive)
    table           (r, f(r)) arrays for kind='custom', trapezoid-integrated
    """

    kind: str
    total: float
    R: float
    point_fraction: float = 0.0
    table: tuple = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in ("shell", "volume", "custom"):
            raise ValueError(f"unknown profile kind {self.kind!r}")
        if self.R <= 0:
            raise ValueError("R must be positive")
        if not (0.0 <= self.point_fraction < 1.0):
            raise ValueError("point_fraction must lie in [0, 1): a complete "
                             "point mass has no moment of inertia")
        if self.kind == "custom" and self.table is None:
            raise ValueError("custom profile needs a radial table")

    # -- constructors ---------------------------------------------------
    @staticmethod
    def shell(total: float, R: float, point_fraction: float = 0.0) -> "DensityProfile":
        return DensityProfile("shell", total, R, point_fraction)

    @staticmethod
    def volume(total: float, R: float, point_fraction: float = 0.0) -> "DensityProfile":
        return DensityProfile("volume", total, R, point_fraction)

    @staticmethod
    def from_table(r, f, point_fraction: float = 0.0) -> "DensityProfile":
        """Radial table (r, f(r)); the total is its trapezoid integral."""
        r = np.asarray(r, dtype=float)
        f = np.asarray(f, dtype=float)
        if r.ndim != 1 or r.shape != f.shape or len(r) < 2:
            raise ValueError("table needs matching 1-d r and f arrays")
        if r[0] < 0 or np.any(np.diff(r) <= 0):
            raise ValueError("table radii must be increasing and nonnegative")
        spread = float(np.trapezoid(f * 4.0 * np.pi * r**2, r))
        total = spread / (1.0 - point_fraction)
        rr = r.copy(); rr.flags.writeable = False
        ff = f.copy(); ff.flags.writeable = False
        return DensityProfile("custom", total, float(r[-1]), point_fraction,
                              table=(rr, ff))

    @staticmethod
    def load_table(path, point_fraction: float = 0.0) -> "DensityProfile":
        """Two-column text table (r, density)."""
        data = np.loadtxt(path)
        return DensityProfile.from_table(data[:, 0], data[:, 1], point_fraction)

    # -- radial quadrature -----------------------------------------------
    @property
    def spread_total(self) -> float:
        """Mass/charge carried by the extended (non-point) part."""
        return self.total * (1.0 - self.point_fraction)

    def radial_rule(self, order: int = 64):
        """Nodes and weights with sum_k w_k g(r_k) ~ int g(r) f(r) 4 pi r^2 dr.

        The point-mass fraction is not included (its r = 0 location
        contributes nothing to any r-weighted kernel with kernel(0)
        finite handled separately by the callers that need it).
        """
        if self.kind == "shell":
            return np.array([self.R]), np.array([self.spread_total])
        if self.kind == "volume":
            x, w = np.polynomial.legendre.leggauss(order)
            r = 0.5 * self.R * (x + 1.0)
            wr = 0.5 * self.R * w
            dens = self.spread_total * 3.0 / (4.0 * np.pi * self.R**3)
            return r, wr * dens * 4.0 * np.pi * r**2
        r, f = self.table
        scale = self.spread_total / max(
            float(np.trapezoid(f * 4.0 * np.pi * r**2, r)), np.finfo(float).tiny)
        w = np.zeros_like(r)
        dr = np.diff(r)
        w[:-1] += 0.5 * dr
        w[1:] += 0.5 * dr
        return r.copy(), w * f * 4.0 * np.pi * r**2 * scale

    def radial_integral(self, kernel, order: int = 64, include_point: bool = True) -> float:
        """int kernel(r) f(r) 4 pi r^2 d r, plus the point part kernel(0)."""
        r, w = self.radial_rule(order)
        out = float(w @ kernel(r))
        if include_point and self.point_fraction:
            out += self.total * self.point_fraction * float(kernel(np.zeros(1))[0])
        return out

    def moment(self, n: int, order: int = 64) -> float:
        """int r^n f(r) 4 pi r^2 dr (point part contributes only to n=0)."""
        if self.kind == "shell":
            base = self.spread_total * self.R**n
        elif self.kind == "volume":
            base = self.spread_total * 3.0 / (n + 3.0) * self.R**n
        else:
            base = self.radial_integral(lambda r: r**n, order, include_point=False)
        if n == 0:
            base += self.total * self.point_fraction
        return base

    def moment_of_inertia(self) -> float:
        """Non-relativistic principal moment (2/3) int r^2 f d^3x."""
        return (2.0 / 3.0) * self.moment(2)

    def enclosed(self, r) -> np.ndarray:
        """Cumulative integral of the measure up to radius r.

        At a surface jump the midpoint convention is used: enclosed(R) for
        a shell is the point part plus half the shell (the distributional
        value relevant for fields evaluated on the support).
        """
        r = np.atleast_1d(np.asarray(r, dtype=float))
        pt = self.total * self.point_fraction
        s = self.spread_total
        if self.kind == "shell":
            # points within rounding distance of the surface take the
            # midpoint (distributional) value
            band = 1e-12 * self.R
            out = np.where(r < self.R - band, 0.0,
                           np.where(r > self.R + band, s, 0.5 * s))
        elif self.kind == "volume":
            out = s * np.clip(r / self.R, 0.0, 1.0) ** 3
        else:
            rt, f = self.table
            integrand = f * 4.0 * np.pi * rt**2
            cum = np.concatenate([[0.0], np.cumsum(
                0.5 * (integrand[1:] + integrand[:-1]) * np.diff(rt))])
            cum *= s / cum[-1] if cum[-1] != 0 else 1.0
            out = np.interp(r, rt, cum, left=0.0, right=s)
        return out + pt

    def support_rule(self, order_r: int = 32, order_theta: int = 64, order_phi: int = 32):
        """3-d product rule: points (N,3) and weights with
        sum w_k g(x_k) ~ int g(x) f(|x|) d^3x  (extended part only)."""
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

SERIES_BELOW = 0.3   # below this beta the kernels are summed from their series
_K = np.arange(1, 18)
_EXPONENTS = (_K - 1).astype(float)
_SPIN_SERIES = 2.0 * _K / (4.0 * _K**2 - 1.0)    # K(beta)
_SLOPE_SERIES = 2.0 * _K / (2.0 * _K + 1.0)      # (beta K)'(beta)


def gamma_kernel(beta):
    """Spherical average of the Lorentz factor: artanh(beta)/beta."""
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    out = np.ones_like(beta)
    nz = beta > 0
    out[nz] = np.arctanh(beta[nz]) / beta[nz]
    return out


def _even_kernel(beta, closed, coef):
    """closed(beta), or sum_k coef[k] beta^(2k) where beta < SERIES_BELOW."""
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    small = beta < SERIES_BELOW
    if not small.any():
        return closed(beta)
    if small.all():
        return np.power.outer(beta * beta, _EXPONENTS) @ coef
    out = closed(np.where(small, SERIES_BELOW, beta))
    out[small] = np.power.outer(beta[small] ** 2, _EXPONENTS) @ coef
    return out


def _spin_closed(b):
    return ((1.0 + b**2) / (2.0 * b**3)) * np.arctanh(b) - 1.0 / (2.0 * b**2)


def _slope_closed(b):
    # (1 - b)(1 + b) keeps 1 - b^2 exact to rounding as b -> 1
    b2 = b * b
    return 1.0 / (b2 * (1.0 - b) * (1.0 + b)) - np.arctanh(b) / (b2 * b)


def spin_kernel(beta):
    """Spherical average K(beta) of gamma sin^2(theta).

    Closed form ((1+b^2)/(2 b^3)) artanh b - 1/(2 b^2); evaluated by its
    even power series 2/3 + (4/15) b^2 + ... below SERIES_BELOW, where the
    closed form cancels catastrophically.
    """
    return _even_kernel(beta, _spin_closed, _SPIN_SERIES)


def spin_kernel_slope(beta):
    """d(beta K)/d beta = 1/(b^2 (1 - b^2)) - artanh(b)/b^3.

    Below SERIES_BELOW, the even series 2/3 + (4/5) b^2 + ... with
    coefficients 2k/(2k+1).
    """
    return _even_kernel(beta, _slope_closed, _SLOPE_SERIES)


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
        self._point = fm.total * fm.point_fraction
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

    def slope(self, omega):
        """d sigma/d|omega| = sum_k w_k r_k^2 (beta K)'(beta_k)."""
        beta = self._beta(omega)
        return spin_kernel_slope(beta.ravel()).reshape(beta.shape) @ self._wr2

    def mass(self, omega):
        """Gyrational mass sum_k w_k artanh(beta_k)/beta_k plus the point part."""
        beta = self._beta(omega)
        return gamma_kernel(beta.ravel()).reshape(beta.shape) @ self._w + self._point

    def omega(self, smag, saturate: bool = False) -> np.ndarray:
        """|omega| with sigma(|omega|) = smag, elementwise (1-d result).

        Newton from min(s / inertia, cap) decreases monotonically onto the
        root (module docstring).  A residual above 1e-9 |s| plus the
        rounding floor eps |omega| sigma' falls back to bisection.
        """
        s = np.atleast_1d(np.asarray(smag, dtype=float))
        over = s >= self.sigma_cap
        if over.any():
            if not saturate:
                raise ValueError(
                    f"|s| = {s.max():g} reaches the gyrational bound "
                    f"{self.sigma_cap:g} at omega R / c = {self.omega_cap * self.fm.R / self.c:g}")
            s = np.minimum(s, self.sigma_cap)
        w = np.minimum(s / self.inertia, self.omega_cap)
        for _ in range(NEWTON_MAX):
            f = self.sigma(w) - s
            df = self.slope(w)
            step = f / df
            w = w - step
            if (np.abs(step) <= 1e-13 * w).all():
                break
        # the last residual bounds the returned one: iterates only descend
        bad = ~(np.abs(f) <= 1e-9 * s + 16.0 * _EPS * w * df)
        if bad.any():
            if not np.isfinite(s[bad]).all():
                raise FloatingPointError("spin magnitude is not finite")
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


class GyroMassCurve(GyrationCurve):
    """A gyration curve with its mass and spin sampled on [0, edge c/R]."""

    def __init__(self, fm: DensityProfile, c: float = 1.0, n: int = 400,
                 edge: float = 0.999):
        super().__init__(fm, c)
        self.omega_grid = np.linspace(0.0, edge * c / fm.R, n)
        self.mass_grid = self.mass(self.omega_grid)
        self.spin_grid = self.sigma(self.omega_grid)
        self.spin_max = self.spin_grid[-1]

    def omega_of_spin_mag(self, smag):
        """Inverse clipped to the sampled range, in the shape of smag."""
        return self.omega(np.clip(smag, 0.0, self.spin_max)).reshape(np.shape(smag))

    def omega_of_spin_exact(self, smag: float) -> float:
        return float(self.omega(smag)[0])


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


def maclaurin_check(fm: DensityProfile, c: float = 1.0, eps: float = 1e-3):
    """Fit M(omega) ~ m0 + (1/2) I omega^2 at small omega by differences.

    Returns the fitted (m0, I); for consistency m0 should reproduce the
    profile total and I the non-relativistic moment of inertia.
    """
    w1 = eps * c / fm.R
    w2 = 2.0 * w1
    m1 = gyrational_mass(fm, w1, c)
    m2 = gyrational_mass(fm, w2, c)
    # solve m(w) = m0 + I/2 w^2 through both samples (quartic term cancels
    # to leading order in the Richardson combination for m0)
    ib = 2.0 * (m2 - m1) / (w2**2 - w1**2)
    m0 = (4.0 * m1 - m2) / 3.0
    return m0, ib


def spin_magnitude(fm: DensityProfile, omega: float, c: float = 1.0) -> float:
    """|s_b|(|omega|): int r^2 <gamma sin^2> f 4 pi r^2 dr * omega."""
    omega = abs(float(omega))
    _check_subluminal(fm, omega, c)
    return float(GyrationCurve(fm, c).sigma(omega))


def spin_magnitude_many(fm: DensityProfile, omegas, c: float = 1.0) -> np.ndarray:
    """|s_b| over an array of angular speeds."""
    return GyrationCurve(fm, c).sigma(np.atleast_1d(np.asarray(omegas, dtype=float)))


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
    return GyrationCurve(fm, c).omega(smag)[0] * s3 / smag


def invert_spin_many(fm: DensityProfile, smags, c: float = 1.0) -> np.ndarray:
    """|omega| for an array of spin magnitudes (see omega_from_spin)."""
    return GyrationCurve(fm, c).omega(smags)


def minkowski_inertia(fm: DensityProfile, omega3, c: float = 1.0) -> Rank2Tensor:
    """Rest-frame Minkowski inertia tensor of the gyrating bare particle.

    Contravariant components of int (||x||^2 g - x (x) x) gamma f delta(u.x);
    the operator (contraction with the metric) has time-time entry
    + int r^2 gamma f and space block I_perp (1 - w w) + I_par w w.
    Contracting with the gyration dual vector reproduces the bare spin.
    """
    omega3 = np.asarray(omega3, dtype=float)
    mag = float(np.linalg.norm(omega3))
    _check_subluminal(fm, mag, c)

    r2gam = fm.radial_integral(lambda r: r**2 * gamma_kernel(mag * r / c))
    i_par = float(GyrationCurve(fm, c).spin_moment(mag))
    i_perp = r2gam - 0.5 * i_par

    if mag > 0:
        n = omega3 / mag
    else:
        n = np.array([0.0, 0.0, 1.0])
    space = i_perp * (np.eye(3) - np.outer(n, n)) + i_par * np.outer(n, n)
    m = np.zeros((4, 4))
    m[0, 0] = -r2gam   # r^2 g^{00}; the operator entry is +r2gam
    m[1:, 1:] = space
    return Rank2Tensor(m, symmetry="symmetric")
