"""Oracle tests of the slice-quadrature force and of the invertibility
report: f.u computed directly and from the gyration coupling, both against
the closed form of a curl-E field, and the report on tensors with a known
deviation from M_b g."""

import numpy as np
import pytest

from ledlab.bare_particle import DensityProfile
from ledlab.forces import FieldSnapshot, force_dot_u, invertibility_report
from ledlab.minkowski import METRIC, Rank2Tensor

E_CURL, B_Z, OMEGA = 0.04, 0.08, 0.3


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
