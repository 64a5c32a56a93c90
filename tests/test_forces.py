"""Oracle tests of the slice-quadrature force and of the invertibility
report: f.u computed directly and from the gyration coupling, both against
the closed form of a curl-E field; boost covariance of the force, torque
and Nodvik mass in a uniform field; the Nodvik mass against a node-by-node
sum of 4x4 anticommutators, and its exact symmetry; the report on tensors
with a known deviation from M_b g."""

import numpy as np
import pytest

from ledlab.bare_particle import DensityProfile
from ledlab.fields import field_tensor, stationary_state
from ledlab.forces import (
    FieldSnapshot,
    force_dot_u,
    invertibility_report,
    minkowski_force,
    minkowski_torque,
    nodvik_mass,
)
from ledlab.kinematics import four_velocity, gyration_tensor
from ledlab.minkowski import (
    METRIC,
    FourVector,
    Rank2Tensor,
    anticommutator,
    boost_matrix,
    boost_tensor,
    boost_vector,
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
    return dict(u=four_velocity(V3),
                omega_tensor=boost_tensor(gyration_tensor(OMEGA3, FourVector.basis(0)), lam))


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


@pytest.mark.parametrize("eps, invertible", [(0.5, True), (3.0, False)])
def test_invertibility_report_on_a_known_deviation(eps, invertible):
    m_gyro = 2.0
    m = m_gyro * METRIC.copy()
    m[1, 2] += eps
    rep = invertibility_report(Rank2Tensor(m), m_gyro)
    assert rep.perturbation_ratio == pytest.approx(eps / m_gyro, rel=1e-14)
    # the operator's 2x2 block [[m, eps], [0, m]] sets the condition number
    root = np.sqrt(4.0 * m_gyro**2 + eps**2)
    assert rep.condition_estimate == pytest.approx((root + eps) / (root - eps), rel=1e-12)
    assert rep.invertible is invertible


def test_invertibility_report_of_the_bare_term():
    rep = invertibility_report(Rank2Tensor(2.0 * METRIC), 2.0)
    assert rep.perturbation_ratio == 0.0
    assert rep.condition_estimate == pytest.approx(1.0, rel=1e-15)
    assert rep.invertible


@pytest.mark.parametrize("fe", PROFILES, ids=["shell", "volume"])
def test_force_torque_and_nodvik_mass_are_boost_covariant(fe):
    # F_lab = L F L^T is again uniform
    lam = boost_matrix(V3)
    f_lab = boost_tensor(field_tensor(E_UNIFORM, B_UNIFORM), lam).m
    e_lab = f_lab[0, 1:]
    b_lab = np.array([f_lab[2, 3], f_lab[3, 1], f_lab[1, 2]])
    rest, lab = dict(omega3=OMEGA3), lab_frame()
    snap_rest = uniform_snapshot(E_UNIFORM, B_UNIFORM)
    snap_lab = uniform_snapshot(e_lab, b_lab)
    assert_rel(minkowski_force(snap_lab, fe, **lab).c,
               boost_vector(minkowski_force(snap_rest, fe, **rest), lam).c, 1e-13)
    for assemble in (minkowski_torque, nodvik_mass):
        assert_rel(assemble(snap_lab, fe, **lab).m,
                   boost_tensor(assemble(snap_rest, fe, **rest), lam).m, 1e-13)


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
