"""Oracle tests of the gyration curve: closed forms evaluated in mpmath,
branch continuity of the kernel and of the slope, inversion round trips,
the warm-started inverse against the cold one, and the inverse's cap and
fallback paths."""

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ledlab import bare_particle
from ledlab.bare_particle import (
    BALL_SERIES_BELOW,
    SERIES_BELOW,
    DensityProfile,
    GyrationCurve,
    spin_kernel,
)
from ledlab.gyrodynamics import OMEGA_CAP

MASS = 2.0
EPS = np.finfo(float).eps
SHELL = DensityProfile.shell(MASS, 1.0)
VOLUME = DensityProfile.volume(MASS, 1.0)
# on a unit shell (m = R = c = 1) sigma' = m R^2 (beta K)' is (beta K)' at beta = omega
UNIT_CURVE = GyrationCurve(DensityProfile.shell(1.0, 1.0))
EDGE_BETAS = [0.01, 0.1, 0.29, np.nextafter(SERIES_BELOW, 0.0), SERIES_BELOW,
              0.3000001, 0.5, 0.9, 0.999, 1.0 - 1e-6, 1.0 - 1e-10]


UNIT_BALL = GyrationCurve(DensityProfile.volume(1.0, 1.0))


def unit_slope(beta):
    return UNIT_CURVE.sigma_slope(beta)[1]


def unit_ball_slope(beta):
    return UNIT_BALL.sigma_slope(beta)[1]


def beta_k(x):
    """beta K(beta) of the shell in closed form (mpmath argument)."""
    return (1 + x**2) / (2 * x**2) * mp.atanh(x) - 1 / (2 * x)


@pytest.fixture(autouse=True)
def precision():
    with mp.workdps(40):
        yield


class TestKernels:
    @pytest.mark.parametrize("beta", EDGE_BETAS)
    def test_spin_kernel_against_mpmath(self, beta):
        x = mp.mpf(float(beta))
        assert spin_kernel(beta) == pytest.approx(float(beta_k(x) / x), rel=1e-14)

    @pytest.mark.parametrize("beta", EDGE_BETAS)
    def test_slope_against_mpmath_derivative(self, beta):
        expect = mp.diff(beta_k, mp.mpf(float(beta)))
        assert unit_slope(beta) == pytest.approx(float(expect), rel=1e-13)

    @pytest.mark.parametrize("kernel, switch", [
        (spin_kernel, SERIES_BELOW), (unit_slope, SERIES_BELOW),
        (UNIT_BALL.sigma, BALL_SERIES_BELOW), (unit_ball_slope, BALL_SERIES_BELOW),
        (UNIT_BALL.mass, BALL_SERIES_BELOW)],
        ids=["spin_kernel", "slope", "ball_sigma", "ball_slope", "ball_mass"])
    def test_continuous_across_series_switch(self, kernel, switch):
        vals = [kernel(b) for b in (np.nextafter(switch, 0.0), switch, np.nextafter(switch, 1.0))]
        assert vals[1] == pytest.approx(vals[0], rel=1e-14)
        assert vals[2] == pytest.approx(vals[1], rel=1e-14)

    def test_even_kernel_odd_sigma(self):
        # Newton may step to an iterate rounded below zero: sigma is odd
        # there and its slope even, so the next step returns; one float
        # beta per kernel call, as a size-1 numpy value
        for b in (0.05, 0.35, 0.0, 0.8, 0.299, 0.65):
            k = spin_kernel(b)
            assert isinstance(k, np.float64) and k.size == 1
            assert spin_kernel(-b) == k
            for curve in (UNIT_CURVE, UNIT_BALL):
                sig, slope = curve.sigma_slope(b)
                assert curve.sigma_slope(-b) == (-sig, slope)
                assert curve.mass(-b) == curve.mass(b)

    def test_series_coefficients(self):
        # the first terms 2/3 + (4/15) b^2 and 2/3 + (4/5) b^2
        b = 1e-4
        assert spin_kernel(b) == pytest.approx(2 / 3 + 4 / 15 * b**2, rel=1e-16)
        assert unit_slope(b) == pytest.approx(2 / 3 + 4 / 5 * b**2, rel=1e-16)

    @pytest.mark.parametrize("series", ["K", "j"])
    def test_cut_series_within_an_ulp_of_mpmath(self, series):
        """The leading terms that _series_cuts picks, against 50-digit
        mpmath, on a dense grid below the switch point and just below each
        cut, where the fewest terms serve: at most 1 eps of relative error
        (0.65 eps for K and 0.55 eps for j, where all 28 and 58 terms give
        0.63 and 0.54)."""
        if series == "K":
            evaluate, cuts, switch = bare_particle._kernel, bare_particle._K_CUTS, SERIES_BELOW
        else:
            evaluate, cuts, switch = (bare_particle._ball_moment, bare_particle._J_CUTS,
                                      BALL_SERIES_BELOW)
        betas = list(np.linspace(0.0, switch, 600, endpoint=False)[1:])
        for x in cuts:
            b = np.sqrt(x)
            while b * b >= x:
                b = np.nextafter(b, 0.0)
            if b < switch:
                betas.append(float(b))
        assert len(betas) > 600 + (20 if series == "K" else 50)
        worst = 0.0
        with mp.workdps(50):
            for b in betas:
                x = mp.mpf(b)
                A = mp.atanh(x)
                k = ((1 + x**2) * A - x) / (2 * x**3)
                ref = k if series == "K" else (
                    ((x**2 + 3) * (x**2 - 1) * A + 3 * x - x**3) / (8 * x**5))
                worst = max(worst, float(abs((evaluate(b) - ref) / ref)) / EPS)
        assert evaluate(0.0) == (2 / 3 if series == "K" else 2 / 15)
        assert worst <= 1.0

    def test_cut_series_read_at_most_16_terms_at_beta_0_3(self, monkeypatch):
        # one sigma_slope pass of the ball at omega R = 0.3 sums each of the
        # two series once; all 28 and 58 terms reached round-off only at the
        # switch points
        lengths = []
        horner = bare_particle._horner
        monkeypatch.setattr(bare_particle, "_horner",
                            lambda coefs, x: lengths.append(len(coefs)) or horner(coefs, x))
        UNIT_BALL.sigma_slope(0.3)
        assert len(lengths) == 2 and max(lengths) <= 16, lengths


class TestCurve:
    @pytest.mark.parametrize("beta", [0.1, 0.3, 0.6, 0.95])
    def test_slope_of_scaled_shell(self, beta):
        # R = 2: sigma = m R beta K(beta) with beta = omega R
        fm = DensityProfile.shell(MASS, 2.0)
        omega = beta / fm.R
        curve = GyrationCurve(fm)
        x = mp.mpf(omega) * fm.R
        sigma = MASS * fm.R * beta_k(x)
        dsigma = MASS * fm.R**2 * mp.diff(beta_k, x)
        assert curve.sigma(omega) == pytest.approx(float(sigma), rel=1e-13)
        assert curve.sigma_slope(omega)[1] == pytest.approx(float(dsigma), rel=1e-13)

    def test_mass_closed_form(self):
        curve = GyrationCurve(SHELL)
        w = [0.0, 0.2, 0.7]
        expect = [MASS, MASS * np.arctanh(0.2) / 0.2, MASS * np.arctanh(0.7) / 0.7]
        np.testing.assert_allclose([curve.mass(x) for x in w], expect, rtol=1e-15)

    def test_slope_matches_difference_quotient_on_volume(self):
        curve = GyrationCurve(VOLUME)
        for w in (0.2, 0.5, 0.9):
            h = 1e-5 * w
            fd = (curve.sigma(w + h) - curve.sigma(w - h)) / (2 * h)
            assert curve.sigma_slope(w)[1] == pytest.approx(fd, rel=1e-8)

    def test_sigma_bounded_below_by_inertia_line(self):
        # convexity start: sigma(w) >= I w, equality at rest
        for fm in (SHELL, VOLUME):
            curve = GyrationCurve(fm)
            assert curve.inertia == pytest.approx((2.0 / 3.0) * fm.moment(2), rel=1e-14)
            w = np.linspace(0.0, 0.99, 40)
            assert all(curve.sigma(x) >= curve.inertia * x for x in w)
            assert np.all(np.diff([curve.sigma_slope(x)[1] for x in w]) > 0)


def closed_forms(kind, B):
    """(sigma, d sigma/d omega, M) of a unit-radius profile of mass MASS at
    c = 1 and omega = B, from artanh in 50-digit mpmath: the shell from K,
    (B K)' and A/B, the ball from J = int_0^B b^4 K db in its own closed
    form, with J' = B^4 K."""
    with mp.workdps(50):
        B = mp.mpf(B)
        if B == 0:
            return 0, MASS * (mp.mpf(2) / 3 if kind == "shell" else mp.mpf(2) / 5), MASS
        A = mp.atanh(B)
        K = ((1 + B**2) * A - B) / (2 * B**3)
        if kind == "shell":
            dBK = ((2 * B * A + (1 + B**2) / (1 - B**2) - 1) * 2 * B**2
                   - ((1 + B**2) * A - B) * 4 * B) / (4 * B**4)
            return MASS * B * K, MASS * dBK, MASS * A / B
        J = ((B**2 + 3) * (B**2 - 1) * A + 3 * B - B**3) / 8
        return (3 * MASS * J / B**4, 3 * MASS * (K - 4 * J / B**5),
                3 * MASS * ((B**2 - 1) * A + B) / (2 * B**3))


ORACLE_BETAS = sorted(
    [float(b) for b in np.linspace(0.0, OMEGA_CAP, 101)]
    + [sw + d for sw in (SERIES_BELOW, BALL_SERIES_BELOW) for d in (-1e-6, 1e-6)]
    + [0.999, 1.0 - 1e-14])


class TestClosedForms:
    @pytest.mark.parametrize("fm", [SHELL, VOLUME], ids=["shell", "volume"])
    def test_against_mpmath(self, fm):
        # sigma, sigma' and M to 1e-13 on [0, OMEGA_CAP], beside each series
        # switch and at the edge of the light cone; M, whose differences the
        # energy audit reads, to 2e-15, below the 64-node Gauss rule's error
        # of up to 3e-15 that the closed forms replaced
        curve = GyrationCurve(fm)
        for b in ORACLE_BETAS:
            got = (*curve.sigma_slope(b), curve.mass(b))
            for name, x, ref, rel in zip(("sigma", "slope", "mass"), got,
                                         closed_forms(fm.kind, b), (1e-13, 1e-13, 2e-15)):
                assert x == pytest.approx(float(ref), rel=rel, abs=0.0), (name, b)

    @pytest.mark.parametrize("fm", [SHELL, VOLUME], ids=["shell", "volume"])
    def test_at_rest(self, fm):
        curve = GyrationCurve(fm)
        sigma, slope = curve.sigma_slope(0.0)
        assert sigma == 0.0
        assert slope == pytest.approx(curve.inertia, rel=1e-15)
        assert curve.mass(0.0) == pytest.approx(MASS, rel=1e-15)


class TestInverse:
    @pytest.mark.parametrize("fm", [SHELL, VOLUME], ids=["shell", "volume"])
    def test_round_trip(self, fm):
        curve = GyrationCurve(fm)
        w = np.array([0.0, 1e-8, 0.05, 0.29, 0.31, 0.6, 0.9, 0.99])
        back = [curve.invert(curve.sigma(x)) for x in w]
        np.testing.assert_allclose(back, w, rtol=1e-13, atol=0.0)

    def test_shell_large_spin(self):
        curve = GyrationCurve(SHELL)
        w = curve.invert(10.0)
        assert 0.99 < w < 1.0
        # sigma is log-steep at the edge: |sigma' w| eps bounds the residual
        assert curve.sigma(w) == pytest.approx(10.0, abs=16 * np.finfo(float).eps
                                               * w * curve.sigma_slope(w)[1])

    def test_volume_supremum_rejected(self):
        curve = GyrationCurve(VOLUME)
        with pytest.raises(ValueError, match="gyrational bound"):
            curve.invert(10.0)

    def test_cap_rejects(self):
        curve = GyrationCurve(SHELL, omega_cap=0.999)
        assert curve.omega_cap == 0.999
        for s in (curve.sigma_cap, 5.0 * curve.sigma_cap):
            with pytest.raises(ValueError):
                curve.invert(s)
        assert curve.sigma(curve.invert(0.2)) == pytest.approx(0.2, rel=1e-14)

    def test_newton_kernel_calls(self, monkeypatch):
        # the start s / I lies a few per cent above the root at beta ~ 0.3,
        # and quadratic convergence needs at most five sigma evaluations
        calls = []
        kernel = bare_particle.spin_kernel
        monkeypatch.setattr(bare_particle, "spin_kernel",
                            lambda b: calls.append(1) or kernel(b))
        curve = GyrationCurve(SHELL, omega_cap=0.999)
        curve.sigma_cap
        for w in np.linspace(0.2, 0.4, 9):
            s = curve.sigma(w)
            calls.clear()
            assert curve.invert(s) == pytest.approx(w, rel=1e-14)
            assert len(calls) <= 5

    @pytest.mark.parametrize("fm", [SHELL, VOLUME], ids=["shell", "volume"])
    @settings(max_examples=300, deadline=None)
    @given(frac=st.floats(1e-300, 1.0, exclude_max=True), guess=st.floats(0.0, 1.0))
    def test_warm_start_matches_cold_root(self, fm, frac, guess):
        # any start in [0, cap]: the first tangent step, clamped to the cap,
        # lies at or above the root, and Newton descends from there.  Below
        # 1e-300 sigma_cap the root nears the subnormals, where a relative
        # bound cannot hold for any method.
        curve = GyrationCurve(fm)
        s = frac * curve.sigma_cap
        cold = curve.invert(s)
        w = curve.invert(s, guess * curve.omega_cap)
        assert w == pytest.approx(cold, rel=1e-14, abs=0.0)
        slope = curve.sigma_slope(w)[1]
        assert abs(curve.sigma(w) - s) <= 16 * np.finfo(float).eps * w * slope

    def test_bisection_fallback(self, monkeypatch):
        # one Newton step cannot reach the residual test; the package's
        # bracketed root can, once per inversion, on either profile
        monkeypatch.setattr(bare_particle, "NEWTON_MAX", 1)
        calls = []
        root = bare_particle.bracketed_root
        monkeypatch.setattr(bare_particle, "bracketed_root",
                            lambda *a, **k: calls.append(1) or root(*a, **k))
        w = np.array([0.1, 0.5, 0.95])
        for fm in (SHELL, VOLUME):
            calls.clear()
            curve = GyrationCurve(fm)
            np.testing.assert_allclose([curve.invert(curve.sigma(x)) for x in w], w, rtol=1e-14)
            assert len(calls) == len(w)

    def test_rejects_what_newton_cannot_invert(self):
        with pytest.raises(FloatingPointError):
            GyrationCurve(SHELL).invert(np.nan)
        with pytest.raises(ValueError, match="mass must be positive"):
            GyrationCurve(DensityProfile.shell(-1.0, 1.0))
