"""Oracle tests of the renormalization flow: the exact alpha-series g
factor at the vanishing-bare-mass endpoint, the R <-> m_b round trip, the
moment-matching angular speed, the rejection of the flow's endpoints,
every flow-point field against 50-digit mpmath, the flow's bare spin and
gyrational mass against the shell functionals of `bare_particle` and the
limit constants against their closed forms in alpha and the anomaly."""

import mpmath as mp
import numpy as np
import pytest

from ledlab.bare_particle import DensityProfile, GyrationCurve, gyrational_mass
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


SETTINGS = [NATURAL, NO_ANOMALY]
ETAS = np.geomspace(1e-8, 500.0, 400)


def mp_flow_point(eta, k):
    """Every RenormPoint field from the flow formulas in 50-digit mpmath,
    with the closed-form bare spin m_b R [(1 + 1/x^2) eta / 2 - 1/(2x)]."""
    with mp.workdps(50):
        eta = mp.mpf(eta)
        e = mp.sqrt(mp.mpf(k.alpha))
        mu = (1 + mp.mpf(k.a_eff)) * e / 2
        x = mp.tanh(eta)
        R = 3 * mu / (e * x)
        m_b = x * (1 - e**2 / (2 * R) * (1 + 2 * mu**2 / (e**2 * R**2))) / eta
        s_b = m_b * R * ((1 + 1 / x**2) * eta / 2 - 1 / (2 * x))
        s_f = 2 * e**2 * x / 9
        return dict(R=R, omegaE=x / R, m_b=m_b, W_b=m_b * eta / x,
                    W_f=e**2 / (2 * R) * (1 + 2 * x**2 / 9), s_b=s_b, s_f=s_f,
                    s=s_b + s_f, g=2 * mu / (e * (s_b + s_f)))


@pytest.mark.parametrize("k", SETTINGS, ids=["anomaly-on", "anomaly-off"])
def test_flow_point_matches_50_digit_mpmath(k):
    # the bare spin's closed form cancels to a difference of size x below
    # x = 1/2: m_b = 1 - 1e-9 lost 4.8e-4 of s_b before K came from its series
    worst = {}
    for eta in ETAS:
        got, ref = flow_point(float(eta), k), mp_flow_point(eta, k)
        for name, value in ref.items():
            rel = abs(getattr(got, name) / float(value) - 1.0)
            worst[name] = max(worst.get(name, 0.0), rel)
    assert max(worst.values()) <= 1e-14, worst


@pytest.mark.parametrize("eta", [1e-8, 0.3, 0.55, 1.0, 3.0])
def test_flow_bare_terms_match_the_shell(eta):
    # x = tanh(eta) on both sides of the series switch at x = 1/2: the flow's
    # s_b and W_b are the spin and gyrational mass of a shell of mass m_b
    # and radius R turning at omega
    for k in SETTINGS:
        p = flow_point(eta, k)
        shell = DensityProfile.shell(p.m_b, p.R)
        assert GyrationCurve(shell).sigma(p.omegaE) == pytest.approx(p.s_b, rel=1e-14)
        assert gyrational_mass(shell, p.omegaE) == pytest.approx(p.W_b, rel=1e-14)


@pytest.mark.parametrize("k", SETTINGS, ids=["anomaly-on", "anomaly-off"])
def test_limit_constants_closed_forms(k):
    with mp.workdps(50):
        alpha, a = mp.mpf(k.alpha), mp.mpf(k.a_eff)
        r0 = mp.mpf(3) / 2 * (1 + a)
        s_ren = r0 - 7 * alpha / 18
        ref = {"R_lim": r0, "m_ph": 1 - 11 * alpha / (27 * (1 + a)),
               "s_b_lim": r0 - 11 * alpha / 18, "s_f_lim": 2 * alpha / 9,
               "s_ren": s_ren, "g": (1 + a) / s_ren}
    ref.update(R_lim_over_RC=ref["R_lim"], m_ph_over_me=ref["m_ph"],
               s_ren_over_hbar=ref["s_ren"])
    got = limit_constants(k)
    for name, value in ref.items():
        assert abs(got[name] / float(value) - 1.0) <= 1e-15, name


def test_eta_of_mb_inverts_down_to_the_bracket_overflow():
    # every m_b = 10^-k whose bracket 16 NUM/m_b is finite, the last ones
    # taking bisection steps where interpolation underflows
    for k in range(6, 308):
        mb = 10.0 ** -k
        assert abs(flow_point(eta_of_mb(mb)).m_b - mb) <= 2.0 * np.finfo(float).eps * mb, k


@pytest.mark.parametrize("mb", [1e-320, 5e-324])
def test_eta_of_mb_refuses_an_overflowing_bracket(mb):
    with pytest.raises(ValueError, match="too small"):
        eta_of_mb(mb)
