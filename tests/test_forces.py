"""Oracle tests of the slice-quadrature force: f.u computed directly and
from the gyration coupling, both against the closed form of a curl-E
field; boost covariance of the force, torque and Nodvik mass in a uniform
field; the Nodvik mass against a node-by-node sum of 4x4 anticommutators,
and its exact symmetry; the gyration tensor's duality and element-velocity
conventions."""

import numpy as np
import pytest

from ledlab.bare_particle import DensityProfile
from ledlab.fields import field_tensor, stationary_state
from ledlab.forces import (
    FieldSnapshot,
    force_dot_u,
    gyration_tensor,
    minkowski_force,
    minkowski_torque,
    nodvik_mass,
)
from ledlab.minkowski import (
    FourVector,
    Rank2Tensor,
    anticommutator,
    boost_matrix,
    dual_vector,
    outer,
)

E_CURL, B_Z, OMEGA = 0.04, 0.08, 0.3
E_UNIFORM, B_UNIFORM = np.array([0.05, 0.01, -0.02]), np.array([0.0, 0.03, 0.08])
OMEGA3, V3 = np.array([0.1, -0.2, 0.3]), np.array([0.3, -0.2, 0.4])
PROFILES = [DensityProfile.shell(-1.0, 1.0), DensityProfile.volume(-1.0, 1.0)]


def uniform_snapshot(e3, b3):
    return FieldSnapshot(lambda p: np.tile(e3, (len(p), 1)), lambda p: np.tile(b3, (len(p), 1)))


def self_plus_uniform(fe):
    st = stationary_state(fe, OMEGA3)
    return FieldSnapshot(lambda p: st.E(p) + E_UNIFORM, lambda p: st.B(p) + B_UNIFORM)


def lab_frame():
    """u and Om of the rest-frame gyration seen from a frame where the
    charge moves with V3: u = L e0, Om_lab = L Om L^T."""
    lam = boost_matrix(V3)
    om = gyration_tensor(OMEGA3, FourVector.basis(0))
    return dict(u=FourVector(lam[:, 0]), omega_tensor=Rank2Tensor(lam @ om.m @ lam.T))


def assert_rel(got, want, rel):
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


def curl_e_snapshot():
    """E = E_CURL (-y, x, 0) and a uniform B = B_Z z."""
    return FieldSnapshot(
        lambda p: E_CURL * np.stack([-p[:, 1], p[:, 0], np.zeros(len(p))], axis=-1),
        lambda p: np.tile([0.0, 0.0, B_Z], (len(p), 1)))


@pytest.mark.parametrize("kind, mean_r2", [("shell", 1.0), ("volume", 0.6)])
def test_force_dot_u_direct_equals_coupling_and_closed_form(kind, mean_r2):
    # rest frame: f.u = -f^0 = -int E.(omega x x) f_e = E_CURL omega (2/3) <r^2> |q|
    fe = getattr(DensityProfile, kind)(-1.0, 1.0)
    direct, coupling = force_dot_u(curl_e_snapshot(), fe, omega3=[0.0, 0.0, OMEGA])
    expect = E_CURL * OMEGA * (2.0 / 3.0) * mean_r2 * abs(fe.total)
    assert direct == pytest.approx(coupling, rel=1e-12)
    assert direct == pytest.approx(expect, rel=1e-12)
    assert coupling == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("fe", PROFILES, ids=["shell", "volume"])
def test_force_torque_and_nodvik_mass_are_boost_covariant(fe):
    # F_lab = L F L^T is again uniform
    lam = boost_matrix(V3)
    f_lab = lam @ field_tensor(E_UNIFORM, B_UNIFORM).m @ lam.T
    e_lab = f_lab[0, 1:]
    b_lab = np.array([f_lab[2, 3], f_lab[3, 1], f_lab[1, 2]])
    rest, lab = dict(omega3=OMEGA3), lab_frame()
    snap_rest = uniform_snapshot(E_UNIFORM, B_UNIFORM)
    snap_lab = uniform_snapshot(e_lab, b_lab)
    assert_rel(minkowski_force(snap_lab, fe, **lab).c,
               lam @ minkowski_force(snap_rest, fe, **rest).c, 1e-13)
    for assemble in (minkowski_torque, nodvik_mass):
        assert_rel(assemble(snap_lab, fe, **lab).m,
                   lam @ assemble(snap_rest, fe, **rest).m @ lam.T, 1e-13)


def test_nodvik_mass_matches_node_by_node_anticommutators():
    fe = PROFILES[0]
    snap = self_plus_uniform(fe)
    om = gyration_tensor(OMEGA3, FourVector.basis(0))
    pts, w = fe.support_rule()
    assert len(w) == 1152
    e, b = snap.eb(pts)
    want = np.zeros((4, 4))
    for wk, xk, ek, bk in zip(w, pts, e, b):
        x4 = FourVector(0.0, *xk)
        want -= wk * anticommutator(outer(x4, x4),
                                    anticommutator(field_tensor(ek, bk), om)).m
    assert_rel(nodvik_mass(snap, fe, omega3=OMEGA3).m, want, 1e-13)


@pytest.mark.parametrize("fe", PROFILES, ids=["shell", "volume"])
def test_nodvik_mass_is_exactly_symmetric(fe):
    m = nodvik_mass(self_plus_uniform(fe), fe, omega3=OMEGA3).m
    np.testing.assert_array_equal(m, m.T)
    m = nodvik_mass(uniform_snapshot(E_UNIFORM, B_UNIFORM), fe, **lab_frame()).m
    np.testing.assert_array_equal(m, m.T)


class TestGyrationTensor:
    def test_round_trip(self):
        w3 = np.array([0.2, -0.1, 0.4])
        e0 = FourVector.basis(0)
        om = gyration_tensor(w3, e0)
        np.testing.assert_allclose(dual_vector(om, e0).space, w3, atol=1e-13)

    def test_element_velocity_convention(self):
        # U = u - Om.x must have space part (w x x)/c
        w3 = np.array([0.0, 0.0, 0.5])
        c = 2.0
        e0 = FourVector.basis(0)
        om = gyration_tensor(w3, e0, c=c)
        x = FourVector([0.0, 1.0, 0.0, 0.0])
        u_el = e0.c - om.dot(x).c
        np.testing.assert_allclose(u_el, [1.0, *(np.cross(w3, [1, 0, 0]) / c)])
