"""Oracle tests of the rest-frame slice-quadrature force: f.u computed
directly and from the gyration coupling, both against the closed form of
a curl-E field; the Nodvik mass against a node-by-node sum of 4x4
anticommutators, and its exact symmetry; rotation covariance; q E and
mu x B in uniform fields; no force, no power and no term 3 in the
stationary self-field, whose term 4 is the electrostatic virial; no
Nodvik mass without spin; one support rule and one call of each field
callable per assembly, and the torque's exact antisymmetry; every
assembly against the general-frame formulas at u = e0, with the gyration
tensor built as a Levi-Civita dual,
within 64 eps sum|w| max(|E|, |B|) R^2 (the field moments sum in another
order than the nodes), also in a non-polynomial field with non-constant
time derivatives; the read-only value types."""

from itertools import permutations

import numpy as np
import pytest

from ledlab.bare_particle import DensityProfile, gyrational_mass
from ledlab.fields import stationary_state
from ledlab.forces import (
    METRIC,
    FieldSnapshot,
    FourVector,
    Rank2Tensor,
    force_dot_u,
    minkowski_force,
    minkowski_torque,
    nodvik_mass,
    pseudo_inertia,
    stationary_snapshot,
)

E_CURL, B_Z, OMEGA = 0.04, 0.08, 0.3
E_UNIFORM, B_UNIFORM = np.array([0.05, 0.01, -0.02]), np.array([0.0, 0.03, 0.08])
OMEGA3 = np.array([0.1, -0.2, 0.3])
PROFILES = [DensityProfile.shell(-1.0, 1.0), DensityProfile.volume(-1.0, 1.0)]
G = np.diag([-1.0, 1.0, 1.0, 1.0])
E0 = np.array([1.0, 0.0, 0.0, 0.0])


def uniform_snapshot(e3, b3):
    return FieldSnapshot(lambda p: np.tile(e3, (len(p), 1)), lambda p: np.tile(b3, (len(p), 1)))


def self_plus_uniform(fe, omega3=OMEGA3, **derivatives):
    st = stationary_state(fe, omega3)
    return FieldSnapshot(lambda p: st.E(p) + E_UNIFORM, lambda p: st.B(p) + B_UNIFORM,
                         **derivatives)


def assert_rel(got, want, rel):
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


def curl_e_snapshot():
    """E = E_CURL (-y, x, 0) and a uniform B = B_Z z."""
    return FieldSnapshot(
        lambda p: E_CURL * np.stack([-p[:, 1], p[:, 0], np.zeros(len(p))], axis=-1),
        lambda p: np.tile([0.0, 0.0, B_Z], (len(p), 1)))


def cross_matrix(a):
    """[a]x, the matrix of x -> a cross x."""
    return np.cross(a, np.eye(3)).T


@pytest.mark.parametrize("kind, mean_r2", [("shell", 1.0), ("volume", 0.6)])
def test_force_dot_u_direct_equals_coupling_and_closed_form(kind, mean_r2):
    # rest frame: f.u = -f^0 = -int E.(omega x x) f_e = E_CURL omega (2/3) <r^2> |q|
    fe = getattr(DensityProfile, kind)(-1.0, 1.0)
    direct, coupling = force_dot_u(curl_e_snapshot(), fe, omega3=[0.0, 0.0, OMEGA])
    expect = E_CURL * OMEGA * (2.0 / 3.0) * mean_r2 * abs(fe.total)
    assert direct == pytest.approx(coupling, rel=1e-12)
    assert direct == pytest.approx(expect, rel=1e-12)
    assert coupling == pytest.approx(expect, rel=1e-12)


def test_nodvik_mass_matches_node_by_node_anticommutators():
    def faraday(e3, b3):
        """F^{0i} = E_i, F^{ij} = eps_ijk B_k: F.(1, v) = (E.v, E + v x B)."""
        f = np.zeros((4, 4))
        f[0, 1:], f[1:, 0], f[1:, 1:] = e3, -e3, -cross_matrix(b3)
        return f

    def anticommutator(a, b):
        """A.B + B.A, each factor acting through g."""
        return a @ G @ b + b @ G @ a

    fe = PROFILES[0]
    snap = self_plus_uniform(fe)
    om = ref_gyration(OMEGA3)
    pts, w = fe.support_rule()
    assert len(w) == 1152
    e, b = snap.eb(pts)
    want = np.zeros((4, 4))
    for wk, xk, ek, bk in zip(w, pts, e, b):
        x4 = np.array([0.0, *xk])
        want -= wk * anticommutator(np.outer(x4, x4), anticommutator(faraday(ek, bk), om))
    assert_rel(nodvik_mass(snap, fe, omega3=OMEGA3).m, want, 1e-13)


@pytest.mark.parametrize("fe", PROFILES, ids=["shell", "volume"])
def test_nodvik_mass_is_exactly_symmetric(fe):
    for snap in (self_plus_uniform(fe), uniform_snapshot(E_UNIFORM, B_UNIFORM)):
        m = nodvik_mass(snap, fe, omega3=OMEGA3).m
        np.testing.assert_array_equal(m, m.T)


def rotation(axis, angle):
    """3x3 rotation by angle about axis (Rodrigues)."""
    k = cross_matrix(np.asarray(axis, dtype=float) / np.linalg.norm(axis))
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * k @ k


@pytest.mark.parametrize("fe", PROFILES, ids=["shell", "volume"])
def test_force_torque_and_nodvik_mass_are_rotation_covariant(fe):
    # uniform fields keep every integrand a low-degree polynomial, which the
    # product rule integrates exactly in any orientation
    rot = rotation([1.0, 2.0, -0.5], 0.7)
    lam = np.eye(4)
    lam[1:, 1:] = rot
    snap = uniform_snapshot(E_UNIFORM, B_UNIFORM)
    snap_rot = uniform_snapshot(rot @ E_UNIFORM, rot @ B_UNIFORM)
    assert_rel(minkowski_force(snap_rot, fe, omega3=rot @ OMEGA3).c,
               lam @ minkowski_force(snap, fe, omega3=OMEGA3).c, 1e-13)
    for assemble in (minkowski_torque, nodvik_mass):
        assert_rel(assemble(snap_rot, fe, omega3=rot @ OMEGA3).m,
                   lam @ assemble(snap, fe, omega3=OMEGA3).m @ lam.T, 1e-13)


@pytest.mark.parametrize("fe", PROFILES, ids=["shell", "volume"])
def test_uniform_field_force_is_q_e(fe):
    # int (E + (omega x x) x B) f_e = q E: the dipole moment of f_e vanishes
    f = minkowski_force(uniform_snapshot(E_UNIFORM, B_UNIFORM), fe, omega3=OMEGA3).c
    assert abs(f[0]) <= 1e-15 * np.linalg.norm(E_UNIFORM)
    np.testing.assert_allclose(f[1:], fe.total * E_UNIFORM, rtol=1e-13)


@pytest.mark.parametrize("fe, mean_r2", [(PROFILES[0], 1.0), (PROFILES[1], 0.6)],
                         ids=["shell", "volume"])
def test_uniform_field_torque_is_mu_cross_b(fe, mean_r2):
    # space block -[N]x with N = mu x B, mu = q <r^2> omega / 3c
    t = minkowski_torque(uniform_snapshot(E_UNIFORM, B_UNIFORM), fe, omega3=OMEGA3).m
    mu = fe.total * mean_r2 * OMEGA3 / 3.0
    np.testing.assert_allclose(t[1:, 1:], -cross_matrix(np.cross(mu, B_UNIFORM)),
                               rtol=1e-12, atol=1e-16)
    np.testing.assert_array_equal(t[0], 0.0)
    np.testing.assert_array_equal(t[:, 0], 0.0)


@pytest.mark.parametrize("fe", PROFILES, ids=["shell", "volume"])
def test_stationary_self_field_exerts_no_force_and_no_power(fe):
    omega3 = np.array([0.0, 0.0, 0.35])
    snap = stationary_snapshot(stationary_state(fe, omega3))
    scale = abs(fe.total) ** 2 / fe.R**2
    f = minkowski_force(snap, fe, omega3=omega3).c
    np.testing.assert_allclose(f, 0.0, atol=1e-15 * scale)
    np.testing.assert_allclose(force_dot_u(snap, fe, omega3=omega3), 0.0, atol=1e-15 * scale)


@pytest.mark.parametrize("fe", PROFILES, ids=["shell", "volume"])
def test_term_4_is_the_electrostatic_virial(fe):
    # -int E (x) x f_e = -(W_es / 3) 1 on the space block: int x.E f_e is
    # the electrostatic field energy, e^2/2R (shell) or 3e^2/5R (ball)
    omega3 = np.array([0.0, 0.0, 0.35])
    snap = stationary_snapshot(stationary_state(fe, omega3))
    t4 = pseudo_inertia(snap, fe, omega3, 1.0).field_term_3.m
    w_es = (0.5 if fe.kind == "shell" else 0.6) * fe.total**2 / fe.R
    np.testing.assert_allclose(t4[1:, 1:], -(w_es / 3.0) * np.eye(3), rtol=1e-13, atol=1e-15)
    np.testing.assert_array_equal(t4[0], 0.0)
    np.testing.assert_array_equal(t4[:, 0], 0.0)


@pytest.mark.parametrize("fe", PROFILES, ids=["shell", "volume"])
def test_term_3_vanishes_for_the_stationary_self_field(fe):
    # x.Om.F.u = -E.(omega x x) = 0 for radial E
    omega3 = np.array([0.0, 0.0, 0.35])
    snap = stationary_snapshot(stationary_state(fe, omega3))
    t3 = pseudo_inertia(snap, fe, omega3, 1.0).field_term_2.m
    np.testing.assert_allclose(t3, 0.0, atol=1e-15 * fe.total**2 / fe.R)


@pytest.mark.parametrize("fe", PROFILES, ids=["shell", "volume"])
def test_spinless_particle_has_no_nodvik_mass_and_no_power(fe):
    for snap in (self_plus_uniform(fe), uniform_snapshot(E_UNIFORM, B_UNIFORM)):
        np.testing.assert_array_equal(nodvik_mass(snap, fe).m, 0.0)
        assert force_dot_u(snap, fe) == (0.0, 0.0)


ASSEMBLIES = {
    "minkowski_force": lambda snap, fe: minkowski_force(snap, fe, omega3=OMEGA3),
    "minkowski_torque": lambda snap, fe: minkowski_torque(snap, fe, omega3=OMEGA3),
    "nodvik_mass": lambda snap, fe: nodvik_mass(snap, fe, omega3=OMEGA3),
    "pseudo_inertia": lambda snap, fe: pseudo_inertia(snap, fe, OMEGA3, 1.0,
                                                      omega_dot3=(0.0, 0.01, -0.02)),
}


@pytest.mark.parametrize("name", ASSEMBLIES)
def test_an_assembly_makes_one_support_rule_and_one_call_of_each_field(monkeypatch, name):
    fe = PROFILES[1]
    snap = self_plus_uniform(fe, e_dot_fn=lambda p: np.tile([0.01, -0.02, 0.03], (len(p), 1)))
    calls = dict.fromkeys(["support_rule", "e_fn", "b_fn", "e_dot_fn"], 0)

    def counted(key, fn):
        def call(*args):
            calls[key] += 1
            return fn(*args)
        return call

    monkeypatch.setattr(DensityProfile, "support_rule",
                        counted("support_rule", DensityProfile.support_rule))
    snap = FieldSnapshot(*(counted(key, getattr(snap, key)) for key in ("e_fn", "b_fn", "e_dot_fn")))
    ASSEMBLIES[name](snap, fe)
    e_dot_calls = 1 if name == "pseudo_inertia" else 0
    assert calls == {"support_rule": 1, "e_fn": 1, "b_fn": 1, "e_dot_fn": e_dot_calls}


@pytest.mark.parametrize("fe", PROFILES, ids=["shell", "volume"])
def test_torque_is_exactly_antisymmetric_with_no_time_row_or_column(fe):
    m = minkowski_torque(self_plus_uniform(fe), fe, omega3=OMEGA3).m
    assert np.abs(m).max() > 0.0
    np.testing.assert_array_equal(m, -m.T)
    np.testing.assert_array_equal(m[0], 0.0)
    np.testing.assert_array_equal(m[:, 0], 0.0)


class TestValueTypes:
    def test_basis_products(self):
        # e_a . e_b = g_ab, signature (-,+,+,+), through the read-only METRIC
        basis = np.eye(4)
        np.testing.assert_array_equal(basis @ METRIC @ basis.T, G)
        with pytest.raises(ValueError):
            METRIC[0, 0] = 1.0

    def test_components_are_copied(self):
        a, m = np.array([1.0, 2.0, 3.0, 4.0]), np.eye(4)
        v, t = FourVector(a), Rank2Tensor(m)
        a[0], m[0, 0] = 9.0, 9.0
        assert v.c[0] == 1.0 and t.m[0, 0] == 1.0

    def test_components_frozen(self):
        v = FourVector([1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ValueError):
            v.c[0] = 5.0
        t = Rank2Tensor(np.eye(4))
        with pytest.raises(ValueError):
            t.m[0, 0] = 1.0

    def test_shapes_checked(self):
        with pytest.raises(ValueError):
            FourVector([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            Rank2Tensor(np.eye(3))


# ---------------------------------------------------------------------------
# reference: the general-frame assembly at u = e0, on plain arrays, with the
# gyration tensor as the Levi-Civita dual of w = (0, omega) relative to u
# ---------------------------------------------------------------------------

def levi_civita4():
    eps = np.zeros((4, 4, 4, 4))
    for perm in permutations(range(4)):
        inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:])
        eps[perm] = (-1.0) ** inversions
    return eps


EPS = levi_civita4()


def ref_gyration(omega3):
    w_low = G @ np.array([0.0, *np.asarray(omega3, dtype=float)])
    return np.einsum("abcd,c,d->ab", EPS, w_low, G @ E0)


def ref_f_dot(e, b, v4):
    out = np.empty((len(e), 4))
    out[:, 0] = np.einsum("ki,ki->k", e, v4[:, 1:])
    out[:, 1:] = v4[:, :1] * e + np.cross(v4[:, 1:], b)
    return out


def ref_slice(snap, fe, omega3):
    xi, w = fe.support_rule()
    x4 = np.concatenate([np.zeros((len(xi), 1)), xi], axis=1)
    e, b = snap.eb(x4[:, 1:])
    return w, x4, e, b, ref_gyration(np.zeros(3) if omega3 is None else omega3)


def ref_x_anticommutator(x4, e, b, om):
    return -(ref_f_dot(e, b, x4) @ G @ om) - ref_f_dot(e, b, x4 @ G @ om)


def ref_spin_orbit(w, x4, e, b, om):
    m = (w[:, None] * x4).T @ ref_x_anticommutator(x4, e, b, om)
    return m + m.T


def ref_force(snap, fe, omega3):
    w, x4, e, b, om = ref_slice(snap, fe, omega3)
    return w @ ref_f_dot(e, b, E0 - x4 @ (om @ G).T)


def ref_torque(snap, fe, omega3):
    w, x4, e, b, om = ref_slice(snap, fe, omega3)
    fu = ref_f_dot(e, b, E0 - x4 @ (om @ G).T)
    m = (w[:, None] * x4).T @ fu @ ((G + np.outer(E0, E0)) @ G).T
    return m - m.T


def ref_nodvik(snap, fe, omega3):
    return -ref_spin_orbit(*ref_slice(snap, fe, omega3))


def ref_pseudo_inertia(snap, fe, omega3, m_gyro, omega_dot3=(0.0, 0.0, 0.0),
                       m_gyro_dot=0.0):
    """(m_tilde, f_tilde, bare, term 2, term 3, term 4)."""
    w, x4, e, b, om = ref_slice(snap, fe, omega3)
    e_dot = np.zeros((len(w), 3)) if snap.e_dot_fn is None else snap.e_dot_fn(x4[:, 1:])
    b_dot = np.zeros((len(w), 3))   # F_dot.u multiplies it by u's zero space part
    om_dot = ref_gyration(omega_dot3)
    bare = m_gyro * G
    t2 = -ref_spin_orbit(w, x4, e, b, om)
    uu = np.broadcast_to(E0, x4.shape)
    fu = ref_f_dot(e, b, uu)
    x_om = x4 @ G @ om
    s_dot = np.einsum("ka,ka->k", x_om @ G, ref_f_dot(e_dot, b_dot, uu))
    ws = (w * np.einsum("ka,ka->k", x_om @ G, fu)) @ x4
    t3 = np.outer(E0, ws) + np.outer(ws, E0) + ((w * s_dot)[:, None] * x4).T @ x4
    t4 = -(w[:, None] * fu).T @ x4
    g2 = w @ ref_f_dot(e, b, E0 - x4 @ (om @ G).T)
    s4 = ref_x_anticommutator(x4, e, b, om_dot) @ G @ E0
    f_tilde = -m_gyro_dot * E0 + g2 + (w * (s_dot + s4)) @ x4
    return bare + t2 + t3 + t4, f_tilde, bare, t2, t3, t4


def assert_matches_the_reference(snap, fe, omega3, m_gyro):
    """Every public assembly entry within 64 eps sum|w_k| max(|E|, |B|) R^2
    of the general-frame formulas."""
    pts, w = fe.support_rule()
    field = max(np.linalg.norm(f, axis=1).max() for f in snap.eb(pts))
    tol = 64.0 * np.finfo(float).eps * np.abs(w).sum() * field * fe.R**2
    pairs = []
    for extra in ({}, dict(omega_dot3=(0.0, 0.01, -0.02), m_gyro_dot=0.3)):
        p = pseudo_inertia(snap, fe, omega3, m_gyro, **extra)
        pairs += zip([p.m_tilde.m, p.f_tilde.c, p.bare_term.m, p.field_term_1.m,
                      p.field_term_2.m, p.field_term_3.m],
                     ref_pseudo_inertia(snap, fe, omega3, m_gyro, **extra))
    for o3 in (omega3, OMEGA3, None):
        pairs += zip([minkowski_torque(snap, fe, omega3=o3).m, nodvik_mass(snap, fe, omega3=o3).m,
                      minkowski_force(snap, fe, omega3=o3).c],
                     [ref_torque(snap, fe, o3), ref_nodvik(snap, fe, o3), ref_force(snap, fe, o3)])
    for got, want in pairs:
        np.testing.assert_allclose(got, want, rtol=0.0, atol=tol)


@pytest.mark.parametrize("field", ["self", "self+uniform"])
@pytest.mark.parametrize("omega_r_over_c", [0.1, 0.35, 0.6])
@pytest.mark.parametrize("kind", ["shell", "volume"])
def test_rest_frame_assembly_matches_the_general_frame_formulas_to_64_eps(
        kind, omega_r_over_c, field):
    fe, fm = (getattr(DensityProfile, kind)(q, 1.0) for q in (-1.0, 2.0))
    omega3 = np.array([0.0, 0.0, omega_r_over_c])
    if field == "self":
        snap = stationary_snapshot(stationary_state(fe, omega3))
    else:
        snap = self_plus_uniform(fe, omega3,
                                 e_dot_fn=lambda p: np.tile([0.01, -0.02, 0.03], (len(p), 1)))
    assert_matches_the_reference(snap, fe, omega3, gyrational_mass(fm, omega_r_over_c))


@pytest.mark.parametrize("omega_r_over_c", [0.1, 0.6])
def test_rest_frame_assembly_matches_the_general_frame_formulas_in_a_non_polynomial_field(
        omega_r_over_c):
    # on the ball every node integrand is then a non-polynomial function of
    # the node, the time derivatives included
    fe, fm = DensityProfile.volume(-1.0, 1.0), DensityProfile.volume(2.0, 1.0)
    omega3 = np.array([0.1, -0.2, omega_r_over_c])
    st = stationary_state(fe, omega3)

    def wave(p, a, b, c):
        return np.stack([np.sin(a * p[:, 1]), np.cos(b * p[:, 2]), np.sin(c * p[:, 0])], axis=-1)

    snap = FieldSnapshot(lambda p: st.E(p) + 0.05 * wave(p, 1.0, 1.0, 1.0),
                         lambda p: st.B(p) + 0.03 * wave(p, 2.0, -1.5, 0.5),
                         e_dot_fn=lambda p: 0.02 * wave(p, -1.0, 3.0, 2.0))
    assert_matches_the_reference(snap, fe, omega3, gyrational_mass(fm, np.linalg.norm(omega3)))
