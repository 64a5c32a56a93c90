"""Stationary bound-state electromagnetic fields and field functionals.

A rigidly gyrating spherical charge at rest sources a static Coulomb
potential plus a purely l=1 toroidal vector potential

    A(x) = alpha(r) (omega x x),
    alpha(r) = (4 pi / 3) [ r^-3 int_0^r f s^4 ds + int_r^R f s ds ],

so every stationary functional (energy, magnetic moment, field spin in
both its potential and Poynting representations) reduces to radial
integrals.  For the two profiles, a shell and a uniform ball, the
enclosed charge and the inner integrals int f s^4 and int f s are closed
forms, and so are the field energy and the potential form of the field
spin, which a Poynting grid integral checks.  StationaryState holds this
radial model, its only home, with a shell's jumps midpoint-valued on its
surface.  Outside the support the fields are exactly point charge plus
point dipole.  Gaussian units with c = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bare_particle import DensityProfile, _check_subluminal


class NumericalFailure(RuntimeError):
    """Two evaluations of one quantity disagree, or a result is not finite."""


# the Poynting-grid field spin: radial nodes over [0, POYNTING_R_MAX R],
# and the largest relative gap to the closed form that field_spin accepts
POYNTING_NODES = 2000
POYNTING_R_MAX = 12.0
SPIN_CHECK_TOL = 1e-4


# ---------------------------------------------------------------------------
# the stationary bound state
# ---------------------------------------------------------------------------

def _surface_step(fe: DensityProfile, r, inside, outside) -> np.ndarray:
    """`inside` below R and `outside` above it.  Points within rounding
    distance 1e-12 R of the surface take the midpoint value, the
    distributional value of a shell's jump on its support."""
    band = 1e-12 * fe.R
    return np.where(r < fe.R - band, inside,
                    np.where(r > fe.R + band, outside, 0.5 * (inside + outside)))


@dataclass(frozen=True)
class StationaryState:
    """Stationary gyrating charge: radial field model plus derived moments.

    The electric field is the static Coulomb field of the profile; the
    magnetic field derives from the l=1 toroidal potential.  Outside the
    support both take the universal point charge + point dipole form.
    """

    fe: DensityProfile
    omega3: np.ndarray

    def __post_init__(self):
        om = np.asarray(self.omega3, dtype=float)
        _check_subluminal(self.fe, np.linalg.norm(om))
        object.__setattr__(self, "omega3", om)

    # the radial model ------------------------------------------------------
    def e_radial(self, r):
        """E_r = Q / r^2 with Q the charge within r; 0 at the origin."""
        fe = self.fe
        r = np.atleast_1d(np.asarray(r, dtype=float))
        if fe.kind == "shell":
            q = _surface_step(fe, r, 0.0, fe.total)
        else:
            q = fe.total * np.clip(r / fe.R, 0.0, 1.0) ** 3
        return np.divide(q, r**2, out=np.zeros_like(r), where=r > 0)

    def alpha_slope(self, r):
        """(alpha, d alpha/dr) of the potential A = alpha (w x x) from one
        evaluation of P = int_0^r f s^4 ds and S = int_r^R f s ds:
        alpha = (4 pi / 3)(P / r^3 + S) and alpha' = -4 pi P / r^4, which
        are (4 pi / 3) S and 0 at the origin."""
        fe = self.fe
        r = np.atleast_1d(np.asarray(r, dtype=float))
        if fe.kind == "shell":
            dens = fe.total / (4.0 * np.pi * fe.R**2)
            p = _surface_step(fe, r, 0.0, dens * fe.R**4)
            s = _surface_step(fe, r, dens * fe.R, 0.0)
        else:
            rho = fe.total * 3.0 / (4.0 * np.pi * fe.R**3)
            rc = np.minimum(r, fe.R)
            p, s = rho * rc**5 / 5.0, rho * (fe.R**2 - rc**2) / 2.0
        pos = r > 0
        # -0.0 is the identity of +, so the origin keeps S's sign of zero
        a = (4.0 * np.pi / 3.0) * (np.divide(p, r**3, out=np.full_like(r, -0.0), where=pos) + s)
        return a, np.divide(-4.0 * np.pi * p, r**4, out=np.zeros_like(r), where=pos)

    # vector fields --------------------------------------------------------
    def A(self, x) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        r = np.linalg.norm(x, axis=-1)
        return self.alpha_slope(r)[0][:, None] * np.cross(self.omega3, x)

    def E(self, x) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        r = np.sqrt(x[:, 0] * x[:, 0] + x[:, 1] * x[:, 1] + x[:, 2] * x[:, 2])
        coef = np.divide(self.e_radial(r), r, out=np.zeros_like(r), where=r > 0)
        return np.multiply(coef[:, None], x, out=np.zeros_like(x), where=(r > 0)[:, None])

    def B(self, x) -> np.ndarray:
        """curl A for A = alpha(r) (w x x):
        B = (2 alpha + r alpha') w - alpha' r (w.x^) x^, each row summed in
        one fixed order, so that a point's B does not depend on its batch."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        r = np.sqrt(x[:, 0] * x[:, 0] + x[:, 1] * x[:, 1] + x[:, 2] * x[:, 2])
        a, ap = self.alpha_slope(r)
        xhat = np.divide(x, r[:, None], out=np.zeros_like(x), where=(r > 0)[:, None])
        w = self.omega3
        w_xhat = xhat[:, 0] * w[0] + xhat[:, 1] * w[1] + xhat[:, 2] * w[2]
        return (2.0 * a + r * ap)[:, None] * w - (ap * r * w_xhat)[:, None] * xhat

    def profile_table(self, r) -> dict:
        """Radial field profiles for export: E_r and the l=1 mode data."""
        r = np.asarray(r, dtype=float)
        wmag = np.linalg.norm(self.omega3)
        a, ap = self.alpha_slope(r)
        return {"r": r, "E_r": self.e_radial(r), "alpha": a, "B_axial": 2.0 * a * wmag,
                "B_equatorial": (2.0 * a + r * ap) * wmag}

    def summary(self) -> dict:
        return {
            "R": self.fe.R,
            "omega": list(self.omega3),
            "mu": list(magnetic_moment(self.fe, self.omega3)),
            "W_f": field_energy(self),
            "s_f": list(field_spin(self)),
        }


def stationary_state(fe: DensityProfile, omega3) -> StationaryState:
    return StationaryState(fe, np.asarray(omega3, dtype=float))


def magnetic_moment(fe: DensityProfile, omega3) -> np.ndarray:
    """(1/2) int x cross (omega cross x) f d^3x = (1/3) int r^2 f d^3x omega."""
    return np.asarray(omega3, dtype=float) * fe.moment(2) / 3.0


def field_energy(st: StationaryState) -> float:
    """(1/8 pi) int (|E|^2 + |B|^2), in closed form with beta = |omega| R:
    (1/2)(e^2/R)(1 + (2/9) beta^2) for a shell, (3/5)(e^2/R)(1 + (2/21) beta^2)
    for a uniform ball (its inner integrands are polynomials in r)."""
    e2 = st.fe.total**2
    R = st.fe.R
    beta = np.linalg.norm(st.omega3) * R
    if st.fe.kind == "shell":
        return 0.5 * (e2 / R) * (1.0 + (2.0 / 9.0) * beta**2)
    return 0.6 * (e2 / R) * (1.0 + (2.0 / 21.0) * beta**2)


def field_spin_potential(st: StationaryState) -> np.ndarray:
    """int x cross A f d^3x = (2/3) int alpha r^2 f d^3x omega, in closed
    form: (2/9) q^2 R omega for a shell, (4/35) q^2 R omega for a uniform
    ball (alpha r^2 f is a polynomial in r on its support)."""
    coeff = 2.0 / 9.0 if st.fe.kind == "shell" else 4.0 / 35.0
    return coeff * st.fe.total**2 * st.fe.R * st.omega3


def field_spin_poynting(st: StationaryState) -> np.ndarray:
    """(1/4 pi) int x cross (E cross B) d^3x on POYNTING_NODES radial nodes.

    Piecewise Simpson integration of -(2/3) E_r (2 alpha + r alpha') r^3
    over [0, R] and [R, r_max] (one-sided limits at the support edge where
    shell fields jump), plus the analytic exterior tail of the universal
    monopole + dipole fields.  Refining the grid improves agreement with
    the potential representation.  At omega = 0 it is zero, with no grid.
    """
    if not st.omega3.any():
        return np.zeros(3)
    R = st.fe.R
    rb = POYNTING_R_MAX * R

    def integrand(r):
        a, ap = st.alpha_slope(r)
        return st.e_radial(r) * (2.0 * a + r * ap) * r**3

    def simpson(r):
        """Composite Simpson rule of the integrand on an odd number of
        equally spaced nodes r."""
        y = integrand(r)
        return (r[1] - r[0]) / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum()
                                      + 2.0 * y[2:-1:2].sum())

    # each piece on an odd node count, stopped 1e-10 R short of the support
    # edge, outside the rounding band where shell fields jump
    nudge = 1e-10
    n_half = max(POYNTING_NODES // 2, 8) | 1
    r1 = np.linspace(0.0, R * (1.0 - nudge), n_half)
    r2 = np.linspace(R * (1.0 + nudge), rb, n_half)
    radial = simpson(r1) + simpson(r2)
    inner = -(2.0 / 3.0) * radial
    # exterior tail: E_r = q/r^2, (2a + r a') = -kappa/r^3 with mu = kappa w
    q = st.fe.total
    kappa = st.fe.moment(2) / 3.0
    tail = -(2.0 / 3.0) * q * (-kappa) * (1.0 / rb)
    return (inner + tail) * st.omega3


def field_spin(st: StationaryState) -> np.ndarray:
    """Stationary field spin; both representations evaluated and compared.

    Returns the potential form (closed form); raises NumericalFailure when
    the Poynting-grid form disagrees beyond SPIN_CHECK_TOL relative (max-abs
    norms: a 2-norm squares the gap of an omega below 1e-154 to 0).
    """
    s_pot = field_spin_potential(st)
    rel = np.abs(s_pot - field_spin_poynting(st)).max() / max(np.abs(s_pot).max(), 5e-324)
    if rel > SPIN_CHECK_TOL:
        raise NumericalFailure(
            f"field spin representations disagree: relative gap {rel:.3e}")
    return s_pot
