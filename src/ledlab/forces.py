"""Minkowski force, torque and mass-tensor assembly from a field snapshot.

Every slice is the rest-frame slice.  The assemblies work in the
particle's instantaneous rest frame, u = e0, where the simultaneity slice
delta(u.x) through the centre is x^0 = 0 and its integrals are 3-d
integrals over the charge support; a product quadrature rule over the
profile supplies nodes and weights.  Field snapshots are pairs of
callables (E, B) over space points of that frame.

The pseudo-inertia tensor multiplying u_dot in the quasi-explicit
worldline equation is assembled term by term:

    M~ = M_b g
         - int [x(x)x, [F, Om]_+]_+ f_e                  (term 2)
         - int x(x)x (x.Om.F.u) f_e  u.grad delta(u.x)   (term 3)
         - int (F.u)(x)x f_e                             (term 4)

with contravariant components, signature (-,+,+,+) and c = 1.  Om is the
gyration tensor of the angular velocity omega; the element velocity of a
rigidly gyrating charge is U = e0 - Om.x = (1, omega cross x).  Term 3
turns into slice derivatives of the integrand (the supplied field time
derivative enters here); it vanishes identically for a stationary
self-field with radial E.  Terms 2 and 4 are small against M_b g for
electron-matched stationary data, which is what makes the worldline
equation invertible.

At u = e0 a slice point is x = (0, x) and F.(v0, v) = (E.v, v0 E + v cross B),
so every integrand is linear in (E, B) and of degree <= 2 in x: the nodes
enter only through the field moments S = sum_k w_k G_k, X_i = sum_k w_k x_i G_k
and Q_ij = sum_k w_k x_i x_j G_k of G = E, B, one matmul of ten monomials
against E and B.  With v(omega)_i = sum_k w_k x_i E.(omega cross x):

    force     f^0 = omega . sum_k w_k x cross E,
              f = S_E + X_B omega - omega tr X_B
    torque    T - T^T with T = X_E + Q_B.omega - (sum_l Q_B[., l, l]) (x) omega
    term 2    -(M + M^T), where column 0 of space row i of M is -v(omega)_i
              and its space block is
              sum_k omega_k Q_B[i, k, j] + omega_j sum_l Q_B[i, l, l] - 2 (Q_B.omega)_ij
    term 3    e0 (x) (0, v(omega)) + (0, v(omega)) (x) e0
              + sum_k w_k (omega cross x).(dE/dt) x (x) x
    term 4    space block -X_E^T

and f~ = -(dM_b/dt) e0 + f + (0, v(omega_dot) + sum_k w_k (omega cross x).(dE/dt) x).
The supplied time derivative has degree 3 in x and is summed node by node,
as is force_dot_u's coupling, an independent check of minkowski_force.
The torque is antisymmetric and term 2 symmetric by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bare_particle import DensityProfile

#: metric components g_{mu nu} = g^{mu nu} = diag(-1, +1, +1, +1)
METRIC = np.diag([-1.0, 1.0, 1.0, 1.0])
METRIC.flags.writeable = False

_E0 = np.array([1.0, 0.0, 0.0, 0.0])     # u, the rest-frame four-velocity

# the ten monomials y^m y^n (m <= n) of y = (1, x), and the row of each
# (m, n) among them
_MONOMIALS = ((0, 0), (0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3))
_PAIR = np.array([[0, 1, 2, 3], [1, 4, 5, 6], [2, 5, 7, 8], [3, 6, 8, 9]])


def _frozen(a, shape) -> np.ndarray:
    out = np.array(a, dtype=float)
    if out.shape != shape:
        raise ValueError(f"expected components of shape {shape}, got {out.shape}")
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class FourVector:
    """Contravariant components c^mu, read-only."""

    c: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "c", _frozen(self.c, (4,)))


@dataclass(frozen=True)
class Rank2Tensor:
    """Contravariant components T^{mu nu}, read-only."""

    m: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "m", _frozen(self.m, (4, 4)))


@dataclass(frozen=True)
class FieldSnapshot:
    """E and B as vectorized callables over (N, 3) space points.

    For time-dependent assemblies the Lorentz-time derivative dE/dt may be
    supplied; omitted, it is zero (stationary snapshot).  dB/dt does not
    enter at u = e0, where F_dot.u = (0, dE/dt).
    """

    e_fn: callable
    b_fn: callable
    e_dot_fn: callable = None

    def eb(self, pts):
        return np.asarray(self.e_fn(pts), dtype=float), np.asarray(self.b_fn(pts), dtype=float)


def stationary_snapshot(st) -> FieldSnapshot:
    """Snapshot of a fields.StationaryState (static: zero derivatives)."""
    return FieldSnapshot(st.E, st.B)


# ---------------------------------------------------------------------------
# slice quadrature and field moments
# ---------------------------------------------------------------------------

def _moments(snapshot: FieldSnapshot, fe: DensityProfile):
    """Quadrature on the rest-frame slice through the centre.

    Returns (x, w, s, xm, q): the support nodes x and weights w carrying
    the measure f_e d^3 x, and the moments of G = (E, B), s = sum_k w_k G_k,
    xm[i] = sum_k w_k x_i G_k and q[i, j] = sum_k w_k x_i x_j G_k, each
    with a last axis of 6 (E then B).
    """
    x, w = fe.support_rule()
    e, b = snapshot.eb(x)
    y = np.concatenate([np.ones((1, len(w))), x.T])
    wy = w * y
    p = np.empty((len(_MONOMIALS), len(w)))
    for row, (m, n) in zip(p, _MONOMIALS):   # row by row: no gathered temporaries
        np.multiply(wy[m], y[n], out=row)
    t = np.concatenate([p @ e, p @ b], axis=1)[_PAIR]
    return x, w, t[0, 0], t[0, 1:], t[1:, 1:]


def _cross(m):
    """sum_k w_k ... x_k cross G_k from the moment sum_k w_k ... x_k (x) G_k
    over its last two axes."""
    return np.stack([m[..., 1, 2] - m[..., 2, 1], m[..., 2, 0] - m[..., 0, 2],
                     m[..., 0, 1] - m[..., 1, 0]], axis=-1)


def _omega(omega3):
    return np.zeros(3) if omega3 is None else np.asarray(omega3, dtype=float)


def _force(s, xm, om):
    """sum_k w_k F_k.U_k = (omega . sum_k w_k x cross E, S_E + X_B omega - omega tr X_B)."""
    x_b = xm[:, 3:]
    return np.concatenate([[om @ _cross(xm[:, :3])], s[:3] + x_b @ om - om * np.trace(x_b)])


def _spin_orbit(q, om):
    """sum_k w_k [x(x)x, [F_k, Om]_+]_+ = M + M^T."""
    q_b = q[..., 3:]
    m = np.zeros((4, 4))
    m[1:, 0] = -_cross(q[..., :3]) @ om
    m[1:, 1:] = om @ q_b + np.outer(np.trace(q_b, axis1=1, axis2=2), om) - 2.0 * q_b @ om
    return m + m.T


# ---------------------------------------------------------------------------
# force and torque
# ---------------------------------------------------------------------------

def minkowski_force(snapshot: FieldSnapshot, fe: DensityProfile, omega3=None) -> FourVector:
    """Abraham-Lorentz type Minkowski force int F.U f_e over the slice,
    with element velocity U = (1, omega cross x)."""
    _, _, s, xm, _ = _moments(snapshot, fe)
    return FourVector(_force(s, xm, _omega(omega3)))


def force_dot_u(snapshot: FieldSnapshot, fe: DensityProfile, omega3=None):
    """f.u = -f^0 evaluated two ways: from minkowski_force and from the
    gyration coupling -sum_k w_k (omega cross x_k).E_k, summed node by node.

    Both vanish identically for a particle without spin; for Omega != 0
    they agree to quadrature tolerance.  Returns (direct, coupling).
    """
    direct = -float(minkowski_force(snapshot, fe, omega3).c[0])
    x, w = fe.support_rule()
    e, _ = snapshot.eb(x)
    coupling = -float(w @ np.einsum("ki,ki->k", np.cross(_omega(omega3), x), e))
    return direct, coupling


def minkowski_torque(snapshot: FieldSnapshot, fe: DensityProfile,
                     omega3=None) -> Rank2Tensor:
    """Minkowski torque int x ^ (F.U)_perp f_e; antisymmetric, t.u = 0."""
    _, _, _, xm, q = _moments(snapshot, fe)
    om, q_b = _omega(omega3), q[..., 3:]
    t = xm[:, :3] + q_b @ om - np.outer(np.trace(q_b, axis1=1, axis2=2), om)
    return Rank2Tensor(np.pad(t - t.T, ((1, 0), (1, 0))))


# ---------------------------------------------------------------------------
# Nodvik spin-orbit mass and the pseudo-inertia tensor
# ---------------------------------------------------------------------------

def nodvik_mass(snapshot: FieldSnapshot, fe: DensityProfile, omega3=None) -> Rank2Tensor:
    """Symmetric Nodvik spin-orbit mass tensor.

    - int [x(x)x, [F_red, Om]_+]_+ f_e over the slice; the snapshot is
    expected to carry the reduced field (total minus the co-moving
    Coulomb + dipole self-field).
    """
    *_, q = _moments(snapshot, fe)
    return Rank2Tensor(-_spin_orbit(q, _omega(omega3)))


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
                   m_gyro_dot: float = 0.0) -> PseudoInertia:
    """Assemble M~ and f~.

    m_gyro is the bare gyrational mass at the current gyration speed;
    the snapshot must carry the field and (if nonzero) its Lorentz-time
    derivative.  omega_dot3 and m_gyro_dot feed the effective-force terms
    that involve the gyration rate of change.
    """
    x, w, s, xm, q = _moments(snapshot, fe)
    om, om_dot = _omega(omega3), _omega(omega_dot3)
    cross_e = _cross(q[..., :3])

    bare = Rank2Tensor(m_gyro * METRIC)
    t2 = Rank2Tensor(-_spin_orbit(q, om))

    # term 3 and f~ (module docstring); cross_e @ omega is v(omega)
    m3 = np.zeros((4, 4))
    m3[0, 1:] = m3[1:, 0] = cross_e @ om
    f_tilde = -m_gyro_dot * _E0 + _force(s, xm, om)
    f_tilde[1:] += cross_e @ om_dot
    if snapshot.e_dot_fn is not None:   # degree 3 in x
        ws_dot = w * np.einsum("ki,ki->k", np.cross(om, x),
                               np.asarray(snapshot.e_dot_fn(x), dtype=float))
        m3[1:, 1:] += (ws_dot[:, None] * x).T @ x
        f_tilde[1:] += ws_dot @ x
    t3 = Rank2Tensor(m3)

    # term 4: -int (F.u) (x) x f_e with F.u = (0, E), not symmetrizable
    t4 = Rank2Tensor(np.pad(-xm[:, :3].T, ((1, 0), (1, 0))))

    m_tilde = Rank2Tensor(bare.m + t2.m + t3.m + t4.m)
    return PseudoInertia(m_tilde, FourVector(f_tilde), bare, t2, t3, t4)
