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

Term 3 turns into slice derivatives of the integrand (the supplied field
time derivative enters here); it vanishes identically for a stationary
self-field with radial E.  Terms 2 and 4 are small against M_b g for
electron-matched stationary data, which is what makes the worldline
equation invertible.

Node integrands are built from four-vectors: contravariant components,
signature (-,+,+,+), in units with c = 1.  Dots contract through g and
F is antisymmetric, so v.F = -F.v.  The anticommutator of two
antisymmetric tensors is symmetric, hence term 2 is symmetric by
construction:

    sum_k w_k [x(x)x, [F_k, Om]_+]_+ = M + M^T,
    M = sum_k w_k x_k (x) ((x_k.F_k).Om + (x_k.Om).F_k).

Each integrand is linear in G = (E, B) and of degree <= 2 in x, so the
nodes enter only through the moments t^{mn} = sum_k w_k y_k^m y_k^n G_k
of y = (1, xi) = u + x, one matmul of the ten monomials y^m y^n against
E and B.  For phi linear in y and in G, sum_k w_k y_k^m phi(y_k, G_k) is
the node formula on 16 moment nodes, sum_n phi(e_n, t^{mn}).  The
supplied time derivative has degree 3 in x; it is summed node by node,
as is force_dot_u's coupling, an independent check of minkowski_force.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bare_particle import DensityProfile

#: metric components g_{mu nu} = g^{mu nu} = diag(-1, +1, +1, +1)
METRIC = np.diag([-1.0, 1.0, 1.0, 1.0])
METRIC.flags.writeable = False

_E0 = np.array([1.0, 0.0, 0.0, 0.0])     # u, the rest-frame four-velocity
_SPACE = np.diag([0.0, 1.0, 1.0, 1.0])   # projector onto the space of u, through g

# the ten monomials y^m y^n (m <= n) of the moment block, and the row of
# each (m, n) among them
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

    @property
    def operator(self) -> np.ndarray:
        """Matrix of the left action on contravariant components, T @ g."""
        return self.m @ METRIC


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
# slice quadrature and per-node four-vectors
# ---------------------------------------------------------------------------

def gyration_tensor(omega3) -> Rank2Tensor:
    """Gyration tensor of the angular velocity omega3.

    Its space block is -[omega]x and every other entry is zero, so
    Omega . x = -(0, omega x x); the element four-velocity of a rigidly
    gyrating charge is then U = e0 - Omega . x with space part omega x x.
    """
    wx, wy, wz = np.asarray(omega3, dtype=float)
    return Rank2Tensor(np.array([[0.0, 0.0, 0.0, 0.0],
                                 [0.0, 0.0, wz, -wy],
                                 [0.0, -wz, 0.0, wx],
                                 [0.0, wy, -wx, 0.0]]))


def _slice(snapshot: FieldSnapshot, fe: DensityProfile, omega3):
    """Quadrature on the rest-frame slice through the centre.

    Returns (w, x4, e, b, om, t): weights carrying the measure f_e d^3 xi,
    the slice four-vectors x4 = (0, xi), E and B at the nodes, the
    gyration tensor of omega3, and the moments of G = (E, B),
    t[m, n] = sum_k w_k y_k^m y_k^n G_k with y = (1, xi), shape (4, 4, 6).
    """
    xi, w = fe.support_rule()
    x4 = np.concatenate([np.zeros((len(xi), 1)), xi], axis=1)
    e, b = snapshot.eb(x4[:, 1:])
    om = gyration_tensor(np.zeros(3) if omega3 is None else omega3)
    y = x4.T.copy()
    y[0] = 1.0
    wy = w * y
    p = np.empty((len(_MONOMIALS), len(w)))
    for row, (m, n) in zip(p, _MONOMIALS):   # row by row: no gathered temporaries
        np.multiply(wy[m], y[n], out=row)
    return w, x4, e, b, om, np.concatenate([p @ e, p @ b], axis=1)[_PAIR]


def _f_dot_vec(e, b, v4):
    """(F . v)^mu per node: time part E.v_space, space part v0 E + v_space x B."""
    out = np.empty((len(e), 4))
    out[:, 0] = np.einsum("ki,ki->k", e, v4[:, 1:])
    out[:, 1:] = v4[:, :1] * e + np.cross(v4[:, 1:], b)
    return out


def _row_dot(v4, t: Rank2Tensor):
    """v . T per node (row action through g)."""
    return v4 @ METRIC @ t.m


def _inner_nodes(a4, b4):
    """a . b per node."""
    return np.einsum("ka,ka->k", a4 @ METRIC, b4)


def _x_anticommutator(x4, e, b, om: Rank2Tensor):
    """x . [F, Om]_+ = (x.F).Om + (x.Om).F per node, with v.F = -F.v."""
    return -_row_dot(_f_dot_vec(e, b, x4), om) - _f_dot_vec(e, b, _row_dot(x4, om))


def _moment_sum(t, phi):
    """sum_k w_k y_k^m phi(y_k, G_k) for m = 0..3, for a node formula
    phi(y, e, b) linear in y and in G: phi on the moment nodes
    (e_n, t[m, n]), summed over n."""
    g = t.reshape(16, 6)
    out = phi(np.tile(np.eye(4), (4, 1)), g[:, :3], g[:, 3:])
    return out.reshape(4, 4, *out.shape[1:]).sum(axis=1)


def _force_rows(t, om: Rank2Tensor):
    """sum_k w_k y_k^m F_k.U_k, with U = e0 - Om.x linear in y (Om.u = 0);
    row 0 is the Minkowski force."""
    return _moment_sum(t, lambda y, e, b: _f_dot_vec(e, b, y[:, :1] * _E0 - y @ om.operator.T))


def _spin_orbit(t, om: Rank2Tensor):
    """sum_k w_k [x(x)x, [F_k, Om]_+]_+ = M + M^T."""
    m = _SPACE @ _moment_sum(t, lambda y, e, b: _x_anticommutator(y @ _SPACE, e, b, om))
    return m + m.T


# ---------------------------------------------------------------------------
# force and torque
# ---------------------------------------------------------------------------

def minkowski_force(snapshot: FieldSnapshot, fe: DensityProfile, omega3=None) -> FourVector:
    """Abraham-Lorentz type Minkowski force int F.U f_e over the slice,
    with element velocity U = e0 - Om.x."""
    *_, om, t = _slice(snapshot, fe, omega3)
    return FourVector(_force_rows(t, om)[0])


def force_dot_u(snapshot: FieldSnapshot, fe: DensityProfile, omega3=None):
    """f.u = -f^0 evaluated two ways: from minkowski_force and from the
    gyration coupling, summed node by node.

    Both vanish identically for a particle without spin; for Omega != 0
    they agree to quadrature tolerance.  Returns (direct, coupling).
    """
    direct = -float(minkowski_force(snapshot, fe, omega3).c[0])
    w, x4, e, b, om, _ = _slice(snapshot, fe, omega3)
    fu = _f_dot_vec(e, b, np.broadcast_to(_E0, x4.shape))
    coupling = -float(w @ _inner_nodes(_row_dot(x4, om), fu))
    return direct, coupling


def minkowski_torque(snapshot: FieldSnapshot, fe: DensityProfile,
                     omega3=None) -> Rank2Tensor:
    """Minkowski torque int x ^ (F.U)_perp f_e; antisymmetric, t.u = 0."""
    *_, om, t = _slice(snapshot, fe, omega3)
    m = _SPACE @ _force_rows(t, om) @ _SPACE
    return Rank2Tensor(m - m.T)


# ---------------------------------------------------------------------------
# Nodvik spin-orbit mass and the pseudo-inertia tensor
# ---------------------------------------------------------------------------

def nodvik_mass(snapshot: FieldSnapshot, fe: DensityProfile, omega3=None) -> Rank2Tensor:
    """Symmetric Nodvik spin-orbit mass tensor.

    - int [x(x)x, [F_red, Om]_+]_+ f_e over the slice; the snapshot is
    expected to carry the reduced field (total minus the co-moving
    Coulomb + dipole self-field).
    """
    *_, om, t = _slice(snapshot, fe, omega3)
    return Rank2Tensor(-_spin_orbit(t, om))


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
    w, x4, e, b, om, t = _slice(snapshot, fe, omega3)
    om_dot = gyration_tensor(omega_dot3)

    def f_dot_u(e, b):
        return _f_dot_vec(e, b, np.broadcast_to(_E0, (len(e), 4)))

    bare = Rank2Tensor(m_gyro * METRIC)

    # term 2: -int [x(x)x, [F, Om]_+]_+ f_e
    t2 = Rank2Tensor(-_spin_orbit(t, om))

    # term 3: slice derivative of x(x)x (x.Om.F.u) f_e; and
    # f~ = -m_gyro_dot u + int (F.U + (x.Om.F_dot.u + x.[F, Om_dot]_+.u) x) f_e
    ws = _SPACE @ _moment_sum(t, lambda y, e, b: _inner_nodes(_row_dot(y @ _SPACE, om),
                                                              f_dot_u(e, b)))
    m3 = np.outer(_E0, ws) + np.outer(ws, _E0)
    g34 = _SPACE @ _moment_sum(t, lambda y, e, b: _x_anticommutator(y @ _SPACE, e, b, om_dot)
                               @ METRIC @ _E0)
    if snapshot.e_dot_fn is not None or snapshot.b_dot_fn is not None:   # degree 3 in x
        e_dot, b_dot = snapshot.eb_dot(x4[:, 1:])
        ws_dot = w * _inner_nodes(_row_dot(x4, om), f_dot_u(e_dot, b_dot))
        m3 = m3 + (ws_dot[:, None] * x4).T @ x4
        g34 = g34 + ws_dot @ x4
    t3 = Rank2Tensor(m3)

    # term 4: -int (F.u) (x) x f_e  (not symmetrizable), from t[m, 0] = sum_k w_k y_k^m G_k
    t4 = Rank2Tensor(-(_SPACE @ f_dot_u(t[:, 0, :3], t[:, 0, 3:])).T)

    m_tilde = Rank2Tensor(bare.m + t2.m + t3.m + t4.m)
    f_tilde = FourVector(-m_gyro_dot * _E0 + _force_rows(t, om)[0] + g34)

    return PseudoInertia(m_tilde, f_tilde, bare, t2, t3, t4)
