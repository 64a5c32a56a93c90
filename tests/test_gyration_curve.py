"""Oracle tests of the gyration curve: closed forms evaluated in mpmath,
branch continuity of the kernels, inversion round trips and the
inverse's cap, saturation and fallback paths."""

import mpmath as mp
import numpy as np
import pytest

from ledlab import bare_particle
from ledlab.bare_particle import (
    SERIES_BELOW,
    DensityProfile,
    GyrationCurve,
    spin_kernel,
    spin_kernel_slope,
)

MASS = 2.0
SHELL = DensityProfile.shell(MASS, 1.0)
VOLUME = DensityProfile.volume(MASS, 1.0)
EDGE_BETAS = [0.01, 0.1, 0.29, np.nextafter(SERIES_BELOW, 0.0), SERIES_BELOW,
              0.3000001, 0.5, 0.9, 0.999, 1.0 - 1e-6, 1.0 - 1e-10]


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
        assert spin_kernel(beta)[0] == pytest.approx(float(beta_k(x) / x), rel=1e-14)

    @pytest.mark.parametrize("beta", EDGE_BETAS)
    def test_slope_against_mpmath_derivative(self, beta):
        expect = mp.diff(beta_k, mp.mpf(float(beta)))
        assert spin_kernel_slope(beta)[0] == pytest.approx(float(expect), rel=1e-13)

    @pytest.mark.parametrize("kernel", [spin_kernel, spin_kernel_slope])
    def test_continuous_across_series_switch(self, kernel):
        below = np.nextafter(SERIES_BELOW, 0.0)
        above = np.nextafter(SERIES_BELOW, 1.0)
        vals = kernel(np.array([below, SERIES_BELOW, above]))
        assert vals[1] == pytest.approx(vals[0], rel=1e-14)
        assert vals[2] == pytest.approx(vals[1], rel=1e-14)

    def test_mixed_array_matches_elementwise(self):
        betas = np.array([0.05, 0.35, 0.0, 0.8, 0.299])
        for kernel in (spin_kernel, spin_kernel_slope):
            each = np.array([kernel(b)[0] for b in betas])
            np.testing.assert_allclose(kernel(betas), each, rtol=1e-15)

    def test_series_coefficients(self):
        # the first terms 2/3 + (4/15) b^2 and 2/3 + (4/5) b^2
        b = 1e-4
        assert spin_kernel(b)[0] == pytest.approx(2 / 3 + 4 / 15 * b**2, rel=1e-16)
        assert spin_kernel_slope(b)[0] == pytest.approx(2 / 3 + 4 / 5 * b**2, rel=1e-16)


class TestCurve:
    @pytest.mark.parametrize("beta", [0.1, 0.3, 0.6, 0.95])
    def test_slope_of_scaled_shell(self, beta):
        # R = 2, c = 3: sigma = m c R beta K(beta) with beta = omega R / c
        fm, c = DensityProfile.shell(MASS, 2.0), 3.0
        omega = beta * c / fm.R
        curve = GyrationCurve(fm, c)
        x = mp.mpf(omega) * fm.R / c
        sigma = MASS * c * fm.R * beta_k(x)
        dsigma = MASS * fm.R**2 * mp.diff(beta_k, x)
        assert curve.sigma(omega) == pytest.approx(float(sigma), rel=1e-13)
        assert curve.slope(omega) == pytest.approx(float(dsigma), rel=1e-13)

    def test_mass_closed_form(self):
        curve = GyrationCurve(SHELL)
        w = np.array([0.0, 0.2, 0.7])
        expect = [MASS, MASS * np.arctanh(0.2) / 0.2, MASS * np.arctanh(0.7) / 0.7]
        np.testing.assert_allclose(curve.mass(w), expect, rtol=1e-15)

    def test_slope_matches_difference_quotient_on_volume(self):
        curve = GyrationCurve(VOLUME)
        for w in (0.2, 0.5, 0.9):
            h = 1e-5 * w
            fd = (curve.sigma(w + h) - curve.sigma(w - h)) / (2 * h)
            assert curve.slope(w) == pytest.approx(fd, rel=1e-8)

    def test_sigma_bounded_below_by_inertia_line(self):
        # convexity start: sigma(w) >= I w, equality at rest
        for fm in (SHELL, VOLUME):
            curve = GyrationCurve(fm)
            assert curve.inertia == pytest.approx(fm.moment_of_inertia(), rel=1e-14)
            w = np.linspace(0.0, 0.99, 40)
            assert np.all(curve.sigma(w) >= curve.inertia * w)
            assert np.all(np.diff(curve.slope(w)) > 0)


class TestInverse:
    @pytest.mark.parametrize("fm", [SHELL, VOLUME], ids=["shell", "volume"])
    def test_round_trip(self, fm):
        curve = GyrationCurve(fm)
        w = np.array([0.0, 1e-8, 0.05, 0.29, 0.31, 0.6, 0.9, 0.99])
        back = curve.omega(curve.sigma(w))
        np.testing.assert_allclose(back, w, rtol=1e-13, atol=0.0)

    def test_shell_large_spin(self):
        curve = GyrationCurve(SHELL)
        w = curve.omega(10.0)[0]
        assert 0.99 < w < 1.0
        # sigma is log-steep at the edge: |sigma' w| eps bounds the residual
        assert curve.sigma(w) == pytest.approx(10.0, abs=16 * np.finfo(float).eps
                                               * w * curve.slope(w))

    def test_volume_supremum_rejected(self):
        curve = GyrationCurve(VOLUME)
        with pytest.raises(ValueError, match="gyrational bound"):
            curve.omega([0.1, 10.0])

    def test_saturate_clips_to_cap(self):
        curve = GyrationCurve(SHELL, omega_cap=0.999)
        s = np.array([0.2, curve.sigma_cap, 5.0 * curve.sigma_cap])
        with pytest.raises(ValueError):
            curve.omega(s)
        w = curve.omega(s, saturate=True)
        assert w[1] == w[2] == curve.omega_cap == 0.999
        assert curve.sigma(w[0]) == pytest.approx(0.2, rel=1e-14)

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
            assert curve.omega(s)[0] == pytest.approx(w, rel=1e-14)
            assert len(calls) <= 5

    def test_bisection_fallback(self, monkeypatch):
        # one Newton step cannot reach the residual test; bisection can
        monkeypatch.setattr(bare_particle, "NEWTON_MAX", 1)
        curve = GyrationCurve(VOLUME)
        w = np.array([0.1, 0.5, 0.95])
        np.testing.assert_allclose(curve.omega(curve.sigma(w)), w, rtol=1e-14)

    def test_rejects_what_newton_cannot_invert(self):
        with pytest.raises(FloatingPointError):
            GyrationCurve(SHELL).omega([0.2, np.nan])
        with pytest.raises(ValueError, match="nonnegative"):
            GyrationCurve(DensityProfile.shell(-1.0, 1.0))
