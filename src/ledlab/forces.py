"""Minkowski force, torque and mass-tensor assembly from a field snapshot.

All simultaneity-slice integrals delta(u.x) reduce to 3-d integrals over
the charge support in the instantaneous rest frame; a product quadrature
rule over the profile supplies nodes and weights.  Field snapshots are
pairs of callables (E, B) over space points in the frame of evaluation;
a static lab field may be evaluated on a tilted slice for general u.

The pseudo-inertia tensor multiplying u_dot in the quasi-explicit
worldline equation is assembled term by term:

    M~ = M_b g
         - int [x(x)x, [F, Om]_+]_+ f_e                  (term 2)
         - int x(x)x (x.Om.F.u) f_e  u.grad delta(u.x)   (term 3)
         - int (F.u)(x)x f_e                             (term 4)

Term 3 turns into slice derivatives of the integrand (the supplied field
time derivative enters here); it vanishes identically for a stationary
self-field with radial E.  Terms 2 and 4 are small against M_b g for
electron-matched stationary data, which is what makes the worldline
equation invertible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bare_particle import DensityProfile
from .minkowski import METRIC, FourVector, Rank2Tensor, boost_matrix, inner
from .kinematics import gyration_tensor

_E0 = FourVector.basis(0)


@dataclass(frozen=True)
class FieldSnapshot:
    """E and B as vectorized callables over (N, 3) space points.

    For time-dependent assemblies the Lorentz-time derivatives dE/dt and
    dB/dt may be supplied; omitted derivatives are treated as zero
    (stationary snapshot).
    """

    e_fn: callable
    b_fn: callable
    e_dot_fn: callable = None
    b_dot_fn: callable = None

    def eb(self, pts):
        return np.asarray(self.e_fn(pts), dtype=float), np.asarray(self.b_fn(pts), dtype=float)

    def eb_dot(self, pts):
        n = len(pts)
        e = np.zeros((n, 3)) if self.e_dot_fn is None else np.asarray(self.e_dot_fn(pts), dtype=float)
        b = np.zeros((n, 3)) if self.b_dot_fn is None else np.asarray(self.b_dot_fn(pts), dtype=float)
        return e, b


def stationary_snapshot(st) -> FieldSnapshot:
    """Snapshot of a fields.StationaryState (static: zero derivatives)."""
    return FieldSnapshot(st.E, st.B)


# ---------------------------------------------------------------------------
# slice geometry
# ---------------------------------------------------------------------------

def _slice_nodes(fe: DensityProfile, u: FourVector, z3, orders):
    """Quadrature nodes on the simultaneity slice of u through z.

    Returns (xi, w, x4, lab_pts): body coordinates xi (N,3) with weights w
    carrying the measure f_e d^3 xi, the slice four-vectors x4 = x - z,
    and the lab-frame spatial evaluation points.
    """
    xi, w = fe.support_rule(*orders)
    z3 = np.asarray(z3, dtype=float)
    if np.allclose(u.c, _E0.c):
        x4 = np.concatenate([np.zeros((len(xi), 1)), xi], axis=1)
        return xi, w, x4, xi + z3
    v3 = u.space / u.time
    lam = boost_matrix(v3)
    x4 = (lam @ np.concatenate([np.zeros((len(xi), 1)), xi], axis=1).T).T
    return xi, w, x4, x4[:, 1:] + z3


def _f_dot_vec(e, b, v4):
    """(F . v)^mu per node: time part E.v_space, space part v0 E + v_space x B."""
    out = np.empty((len(e), 4))
    out[:, 0] = np.einsum("ki,ki->k", e, v4[:, 1:])
    out[:, 1:] = v4[:, :1] * e + np.cross(v4[:, 1:], b)
    return out


def _element_velocity(u: FourVector, omega_t: Rank2Tensor, x4: np.ndarray):
    """U = u - Om . x per node."""
    om_op = omega_t.operator
    return u.c[None, :] - np.einsum("ab,kb->ka", om_op, x4)


def _resolve_omega(u: FourVector, omega3, omega_tensor, c):
    if omega_tensor is not None:
        return omega_tensor
    return gyration_tensor(np.zeros(3) if omega3 is None else omega3, u, c)


# ---------------------------------------------------------------------------
# force and torque
# ---------------------------------------------------------------------------

def minkowski_force(snapshot: FieldSnapshot, fe: DensityProfile,
                    u: FourVector = _E0, omega3=None, omega_tensor=None,
                    z3=(0.0, 0.0, 0.0), c: float = 1.0,
                    orders=(24, 48, 24)) -> FourVector:
    """Abraham-Lorentz type Minkowski force int F.U f_e over the slice."""
    om = _resolve_omega(u, omega3, omega_tensor, c)
    xi, w, x4, pts = _slice_nodes(fe, u, z3, orders)
    e, b = snapshot.eb(pts)
    uu = _element_velocity(u, om, x4)
    fu = _f_dot_vec(e, b, uu)
    return FourVector(np.einsum("k,ka->a", w, fu))


def force_dot_u(snapshot: FieldSnapshot, fe: DensityProfile,
                u: FourVector = _E0, omega3=None, omega_tensor=None,
                z3=(0.0, 0.0, 0.0), c: float = 1.0, orders=(24, 48, 24)):
    """f.u evaluated two ways: directly and from the gyration coupling.

    Both vanish identically for a particle without spin; for Omega != 0
    they agree to quadrature tolerance.  Returns (direct, coupling).
    """
    om = _resolve_omega(u, omega3, omega_tensor, c)
    f = minkowski_force(snapshot, fe, u, omega3, omega_tensor, z3, c, orders)
    direct = inner(f, u)

    xi, w, x4, pts = _slice_nodes(fe, u, z3, orders)
    e, b = snapshot.eb(pts)
    fu = _f_dot_vec(e, b, np.tile(u.c, (len(xi), 1)))
    s = np.einsum("kb,ba->ka", x4 @ METRIC, om.m)  # x . Omega per node
    coupling = -float(np.einsum("k,ka,ab,kb->", w, s, METRIC, fu))
    return direct, coupling


def minkowski_torque(snapshot: FieldSnapshot, fe: DensityProfile,
                     u: FourVector = _E0, omega3=None, omega_tensor=None,
                     z3=(0.0, 0.0, 0.0), c: float = 1.0,
                     orders=(24, 48, 24)) -> Rank2Tensor:
    """Minkowski torque int x ^ (F.U)_perp f_e; antisymmetric, t.u = 0."""
    om = _resolve_omega(u, omega3, omega_tensor, c)
    xi, w, x4, pts = _slice_nodes(fe, u, z3, orders)
    e, b = snapshot.eb(pts)
    uu = _element_velocity(u, om, x4)
    fu = _f_dot_vec(e, b, uu)
    proj = METRIC + np.outer(u.c, u.c)  # space projector, then act through g
    fperp = np.einsum("ab,bc,kc->ka", proj, METRIC, fu)
    m = np.einsum("k,ka,kb->ab", w, x4, fperp)
    return Rank2Tensor(m - m.T, symmetry="antisymmetric")


# ---------------------------------------------------------------------------
# Nodvik spin-orbit mass and the pseudo-inertia tensor
# ---------------------------------------------------------------------------

def _field_tensors(e, b):
    """F^{mu nu} per node, shape (N, 4, 4)."""
    n = len(e)
    f = np.zeros((n, 4, 4))
    f[:, 0, 1:] = e
    f[:, 1:, 0] = -e
    f[:, 1, 2] = b[:, 2]
    f[:, 2, 1] = -b[:, 2]
    f[:, 2, 3] = b[:, 0]
    f[:, 3, 2] = -b[:, 0]
    f[:, 3, 1] = b[:, 1]
    f[:, 1, 3] = -b[:, 1]
    return f


def _anticommute_field(f_nodes, om: Rank2Tensor):
    """[F, Om]_+ per node."""
    return (np.einsum("kab,bc,cd->kad", f_nodes, METRIC, om.m)
            + np.einsum("ab,bc,kcd->kad", om.m, METRIC, f_nodes))


def _xx_anticommute(x4, s_nodes, w):
    """sum_k w_k [x(x)x, S_k]_+ with [A, B]_+ = A.B + B.A."""
    xx_s = np.einsum("k,ka,kb,bc,kcd->ad", w, x4, x4, METRIC, s_nodes)
    s_xx = np.einsum("k,kab,bc,kc,kd->ad", w, s_nodes, METRIC, x4, x4)
    return xx_s + s_xx


def nodvik_mass(snapshot: FieldSnapshot, fe: DensityProfile,
                u: FourVector = _E0, omega3=None, omega_tensor=None,
                z3=(0.0, 0.0, 0.0), c: float = 1.0,
                orders=(24, 48, 24)) -> Rank2Tensor:
    """Symmetric Nodvik spin-orbit mass tensor.

    - int [x(x)x, [F_red, Om]_+]_+ f_e over the slice; the snapshot is
    expected to carry the reduced field (total minus the co-moving
    Coulomb + dipole self-field).
    """
    om = _resolve_omega(u, omega3, omega_tensor, c)
    xi, w, x4, pts = _slice_nodes(fe, u, z3, orders)
    e, b = snapshot.eb(pts)
    f = _field_tensors(e, b)
    s = _anticommute_field(f, om)
    m = _xx_anticommute(x4, s, w)
    return Rank2Tensor(-m, symmetry="symmetric")


@dataclass(frozen=True)
class PseudoInertia:
    """Assembled pseudo-inertia tensor and effective force, term by term."""

    m_tilde: Rank2Tensor
    f_tilde: FourVector
    bare_term: Rank2Tensor
    field_term_1: Rank2Tensor   # spin-orbit anticommutator integral
    field_term_2: Rank2Tensor   # slice-derivative integral (term 3)
    field_term_3: Rank2Tensor   # (F.u) (x) x integral (term 4, non-symmetric)


def pseudo_inertia(snapshot: FieldSnapshot, fe: DensityProfile,
                   omega3, m_gyro: float, omega_dot3=(0.0, 0.0, 0.0),
                   m_gyro_dot: float = 0.0, z3=(0.0, 0.0, 0.0),
                   c: float = 1.0, orders=(24, 48, 24)) -> PseudoInertia:
    """Assemble M~ and f~ in the instantaneous rest frame (u = e0).

    m_gyro is the bare gyrational mass at the current gyration speed;
    the snapshot must carry the field and (if nonzero) its Lorentz-time
    derivative.  omega_dot3 and m_gyro_dot feed the effective-force terms
    that involve the gyration rate of change.
    """
    u = _E0
    om = gyration_tensor(omega3, u, c)
    om_dot = gyration_tensor(omega_dot3, u, c)
    xi, w, x4, pts = _slice_nodes(fe, u, z3, orders)
    e, b = snapshot.eb(pts)
    e_dot, b_dot = snapshot.eb_dot(pts)
    f = _field_tensors(e, b)
    f_dot = _field_tensors(e_dot, b_dot)

    bare = Rank2Tensor(m_gyro * METRIC, symmetry="symmetric")

    # term 2: -int [x(x)x, [F, Om]_+]_+ f_e
    t2 = Rank2Tensor(-_xx_anticommute(x4, _anticommute_field(f, om), w),
                     symmetry="symmetric")

    # term 3: slice derivative of x(x)x (x.Om.F.u) f_e;
    # scalar s = inner(x.Om, F.u) per node
    fu = _f_dot_vec(e, b, np.tile(u.c, (len(xi), 1)))
    fu_dot = _f_dot_vec(e_dot, b_dot, np.tile(u.c, (len(xi), 1)))
    x_om = np.einsum("ka,ab,bc->kc", x4, METRIC, om.m)
    s_static = np.einsum("ka,ab,kb->k", x_om, METRIC, fu)
    s_dot = np.einsum("ka,ab,kb->k", x_om, METRIC, fu_dot)
    e0c = u.c
    sym_part = (np.einsum("k,ka->a", w * s_static, x4)[None, :] * e0c[:, None]
                + np.einsum("k,ka->a", w * s_static, x4)[:, None] * e0c[None, :])
    xx_part = np.einsum("k,ka,kb->ab", w * s_dot, x4, x4)
    t3 = Rank2Tensor(sym_part + xx_part, symmetry="symmetric")

    # term 4: -int (F.u) (x) x f_e  (not symmetrizable)
    t4 = Rank2Tensor(-np.einsum("k,ka,kb->ab", w, fu, x4), symmetry="general")

    m_tilde = Rank2Tensor(bare.m + t2.m + t3.m + t4.m, symmetry="general")

    # effective force f~
    g2 = minkowski_force(snapshot, fe, u, omega3, None, z3, c, orders)
    g3 = FourVector(np.einsum("k,ka->a", w * s_dot, x4))
    f_omdot = _anticommute_field(f, om_dot)
    s4 = np.einsum("ka,ab,kbc,cd,d->k", x4, METRIC, f_omdot, METRIC, u.c)
    g4 = FourVector(np.einsum("k,ka->a", w * s4, x4))
    f_tilde = FourVector(-m_gyro_dot * u.c + g2.c + g3.c + g4.c)

    return PseudoInertia(m_tilde, f_tilde, bare, t2, t3, t4)


@dataclass(frozen=True)
class InvertibilityReport:
    perturbation_ratio: float
    condition_estimate: float
    invertible: bool


def invertibility_report(m_tilde: Rank2Tensor, m_gyro: float) -> InvertibilityReport:
    """Operator-norm ratio ||M~ - M_b g|| / M_b and a condition estimate.

    The worldline equation is solvable for u_dot when the field terms are
    a small perturbation of the diagonal gyrational term (ratio < 1).
    """
    dev = (m_tilde.m - m_gyro * METRIC) @ METRIC
    ratio = float(np.linalg.norm(dev, 2)) / m_gyro
    cond = float(np.linalg.cond(m_tilde.operator))
    return InvertibilityReport(ratio, cond, ratio < 1.0)
