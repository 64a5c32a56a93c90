"""Oracle tests of the renormalization flow: the exact alpha-series g
factor at the vanishing-bare-mass endpoint, the R <-> m_b round trip, the
moment-matching angular speed and the rejection of the flow's endpoints."""

import numpy as np
import pytest

from ledlab.renormflow import (
    NATURAL,
    PhysicalConstants,
    eta_of_mb,
    flow_point,
    flow_sweep,
    limit_constants,
    mb_of_R,
    omega_of_R,
)

NO_ANOMALY = PhysicalConstants(include_anomaly=False)
G_LIMIT = (2.0 / 3.0) / (1.0 - 7.0 * NO_ANOMALY.alpha / 27.0)


def test_endpoint_g_factor_closed_form():
    assert limit_constants(NO_ANOMALY)["g"] == pytest.approx(G_LIMIT, rel=1e-15)


def test_flow_reaches_the_endpoint_g_factor():
    assert flow_sweep([1e-12], NO_ANOMALY)[0].g == pytest.approx(G_LIMIT, rel=1e-11)


@pytest.mark.parametrize("R", [2.0, 5.0, 50.0])
def test_radius_round_trip(R):
    assert flow_point(eta_of_mb(mb_of_R(R))).R == pytest.approx(R, rel=1e-12)


@pytest.mark.parametrize("R", [2.0, 5.0, 50.0])
def test_omega_of_R_matches_the_flow_point(R):
    eta = np.arctanh(NATURAL.R_endpoint / R)
    assert omega_of_R(R) == pytest.approx(flow_point(eta).omegaE, rel=1e-15)


def test_endpoint_radius_rejected():
    with pytest.raises(ValueError):
        mb_of_R(NATURAL.R_endpoint)


@pytest.mark.parametrize("mb", [0.0, 1.0])
def test_sweep_rejects_grid_outside_the_open_interval(mb):
    with pytest.raises(ValueError):
        flow_sweep(np.array([mb]))
