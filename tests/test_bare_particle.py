import numpy as np
import pytest
from scipy.integrate import quad

from ledlab import bare_particle
from ledlab.bare_particle import (
    DensityProfile,
    GyrationCurve,
    _gauss,
    gyrational_mass,
)

SHELL = DensityProfile.shell(1.0, 1.0)
VOLUME = DensityProfile.volume(1.0, 1.0)


# ---------------------------------------------------------------------------
# independent quadrature oracles for the defining slice integrals
# ---------------------------------------------------------------------------

def oracle_gyro_mass(fm, omega):
    """2-d quadrature of int gamma(w r sin(theta)) f(r) dV."""
    def angular(r):
        g = lambda mu: 1.0 / np.sqrt(1.0 - (omega * r) ** 2 * (1.0 - mu**2))
        return 0.5 * quad(g, -1.0, 1.0, epsabs=1e-13, epsrel=1e-13)[0]

    if fm.kind == "shell":
        return fm.total * angular(fm.R)
    rho = fm.total * 3.0 / (4.0 * np.pi * fm.R**3)
    return quad(lambda r: angular(r) * rho * 4.0 * np.pi * r**2, 0.0, fm.R,
                epsabs=1e-12, epsrel=1e-12, limit=200)[0]


def oracle_spin(fm, omega):
    """2-d quadrature of |int x cross (w cross x) gamma f dV|."""
    def angular(r):
        g = lambda mu: (1.0 - mu**2) / np.sqrt(1.0 - (omega * r) ** 2 * (1.0 - mu**2))
        return 0.5 * quad(g, -1.0, 1.0, epsabs=1e-13, epsrel=1e-13)[0]

    if fm.kind == "shell":
        return fm.total * fm.R**2 * omega * angular(fm.R)
    rho = fm.total * 3.0 / (4.0 * np.pi * fm.R**3)
    return omega * quad(lambda r: angular(r) * rho * 4.0 * np.pi * r**4,
                        0.0, fm.R, epsabs=1e-12, epsrel=1e-12, limit=200)[0]


class TestProfiles:
    def test_totals(self):
        assert SHELL.moment(0) == pytest.approx(1.0)
        assert VOLUME.moment(0) == pytest.approx(1.0)

    def test_moments(self):
        assert SHELL.moment(2) == pytest.approx(1.0)
        assert VOLUME.moment(2) == pytest.approx(0.6)

    def test_radial_rule_integrates_totals(self):
        for p in (SHELL, VOLUME):
            r, w = p.radial_rule()
            assert np.sum(w) == pytest.approx(p.total, rel=1e-12)

    def test_support_rule_measure(self, monkeypatch):
        set_orders(monkeypatch, 16, 24, 16)
        pts, w = VOLUME.support_rule()
        assert np.sum(w) == pytest.approx(1.0, rel=1e-10)
        r2 = np.einsum("k,ki,ki->", w, pts, pts)
        assert r2 == pytest.approx(VOLUME.moment(2), rel=1e-10)


class TestGyrationalMass:
    def test_static_limit(self):
        assert gyrational_mass(SHELL, 0.0) == 1.0
        assert gyrational_mass(SHELL, 1e-9) == pytest.approx(1.0, rel=1e-12)

    def test_shell_closed_form(self):
        # shell value m_b artanh(x)/x at x = 0.5
        assert gyrational_mass(SHELL, 0.5) == pytest.approx(
            2.0 * np.arctanh(0.5), rel=1e-14)

    @pytest.mark.parametrize("x", [0.1, 0.3, 0.5, 0.7, 0.9, 0.99])
    def test_shell_vs_quadrature(self, x):
        assert gyrational_mass(SHELL, x) == pytest.approx(
            oracle_gyro_mass(SHELL, x), rel=1e-10)

    @pytest.mark.parametrize("x", [0.1, 0.5, 0.9])
    def test_volume_vs_quadrature(self, x):
        assert gyrational_mass(VOLUME, x) == pytest.approx(
            oracle_gyro_mass(VOLUME, x), rel=1e-8)

    def test_superluminal_rejected_all_profiles(self):
        for p in (SHELL, VOLUME):
            with pytest.raises(ValueError):
                gyrational_mass(p, 1.0)

    def test_surface_mass_diverges(self):
        # grows beyond any bound as the equator approaches c
        assert gyrational_mass(SHELL, 1.0 - 1e-12) > 13.0

    def test_volume_mass_bounded(self):
        # continuous profiles keep a finite gyrational-energy limit
        near = gyrational_mass(VOLUME, 1.0 - 1e-10)
        # exact limit 3 int_0^1 artanh(s) s ds = 3/2; the closed form at B sits
        # below it by about (1 - B^2)(artanh B - 1) = 2.2e-9 relative
        limit = quad(lambda s: 3.0 * s * np.arctanh(s), 0, 1, epsabs=1e-13)[0]
        assert limit == pytest.approx(1.5, rel=1e-12)
        assert near == pytest.approx(limit, rel=1e-8)
        assert near < 2.0

    def test_monotone_convex(self):
        w = np.linspace(0.0, 0.95, 60)
        m = np.array([gyrational_mass(SHELL, wi) for wi in w])
        assert np.all(np.diff(m) > 0)
        assert np.all(np.diff(m, 2) > -1e-12)


def maclaurin_fit(fm, eps=1e-3):
    """(m0, I) of M(omega) ~ m0 + (1/2) I omega^2 through two small-omega
    samples; the Richardson combination for m0 cancels the quartic term."""
    w1 = eps / fm.R
    w2 = 2.0 * w1
    m1 = gyrational_mass(fm, w1)
    m2 = gyrational_mass(fm, w2)
    return (4.0 * m1 - m2) / 3.0, 2.0 * (m2 - m1) / (w2**2 - w1**2)


class TestMaclaurin:
    def test_shell(self):
        m0, ib = maclaurin_fit(SHELL)
        assert m0 == pytest.approx(1.0, rel=1e-8)
        assert ib == pytest.approx(2.0 / 3.0, rel=1e-4)
        assert ib == pytest.approx(GyrationCurve(SHELL).inertia, rel=1e-4)

    def test_volume(self):
        m0, ib = maclaurin_fit(VOLUME)
        assert m0 == pytest.approx(1.0, rel=1e-8)
        assert ib == pytest.approx(0.4, rel=1e-4)

    def test_volume_inertia_oracle(self):
        # (2/3) int r^2 f 4 pi r^2 dr by quadrature
        rho = 3.0 / (4.0 * np.pi)
        oracle = (2.0 / 3.0) * quad(
            lambda r: r**2 * rho * 4 * np.pi * r**2, 0, 1)[0]
        assert GyrationCurve(VOLUME).inertia == pytest.approx(oracle, rel=1e-12)


class TestBareSpin:
    def test_zero_omega(self):
        assert GyrationCurve(SHELL).sigma(0.0) == 0.0

    def test_shell_closed_form_value(self):
        expect = (1 + 1 / 0.25) / 2 * np.arctanh(0.5) - 1.0
        assert GyrationCurve(SHELL).sigma(0.5) == pytest.approx(expect, rel=1e-13)
        assert expect == pytest.approx(0.3732654, abs=5e-8)

    @pytest.mark.parametrize("x", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_shell_vs_quadrature(self, x):
        assert GyrationCurve(SHELL).sigma(x) == pytest.approx(
            oracle_spin(SHELL, x), rel=1e-10)

    @pytest.mark.parametrize("x", [0.3, 0.8])
    def test_volume_vs_quadrature(self, x):
        assert GyrationCurve(VOLUME).sigma(x) == pytest.approx(
            oracle_spin(VOLUME, x), rel=1e-8)

    def test_small_omega_series(self):
        # sympy Taylor oracle of the closed form: s ~ I w (1 + (2/5) w^2 R^2 ...)
        import sympy as sp

        w = sp.symbols("w", positive=True)
        closed = ((1 + 1 / w**2) / 2 * sp.atanh(w) - 1 / (2 * w))
        series = sp.series(closed, w, 0, 11).removeO()
        for x in (1e-3, 1e-2, 0.05):
            assert GyrationCurve(SHELL).sigma(x) == pytest.approx(
                float(series.subs(w, x)), rel=1e-10)


class TestInvert:
    def test_zero(self):
        assert GyrationCurve(SHELL).invert(0.0) == 0.0

    @pytest.mark.parametrize("x", [0.1, 0.5, 0.9])
    def test_round_trip(self, x):
        curve = GyrationCurve(SHELL)
        assert curve.invert(curve.sigma(x)) == pytest.approx(x, rel=1e-10)

    def test_round_trip_volume(self):
        curve = GyrationCurve(VOLUME)
        x = float(np.linalg.norm([0.2, -0.1, 0.6]))
        assert curve.invert(curve.sigma(x)) == pytest.approx(x, rel=1e-9)

    def test_monotone_inverse(self):
        smags = np.linspace(0.01, 3.0, 25)
        curve = GyrationCurve(SHELL)
        ws = [curve.invert(s) for s in smags]
        assert np.all(np.diff(ws) > 0)

    def test_shell_accepts_large_spin(self):
        # surface inertia stores unbounded gyrational spin; any |s| up to
        # the double-precision resolution of artanh near the light edge
        # inverts (here |s| = 10 needs omega R / c = 1 - 6e-10)
        curve = GyrationCurve(SHELL)
        w = curve.invert(10.0)
        assert 0 < w < 1.0
        # sigma is log-steep at the edge, so the spin round trip is only
        # conditioned to ~|sigma'| * eps_machine
        assert curve.sigma(w) == pytest.approx(10.0, rel=1e-5)

    def test_volume_supremum_rejected(self):
        with pytest.raises(ValueError):
            GyrationCurve(VOLUME).invert(10.0)

    @pytest.mark.parametrize("fm", [SHELL, VOLUME])
    def test_invert_solves_sigma(self, fm):
        # the returned |omega| reproduces s through sigma's quadrature oracle
        curve = GyrationCurve(fm)
        for s in (0.05, 0.3, 0.55):
            assert oracle_spin(fm, curve.invert(s)) == pytest.approx(s, rel=1e-8)


class TestMinkowskiInertia:
    """The rest-frame Minkowski inertia int (||x||^2 g - x (x) x) gamma f:
    time-time entry int r^2 gamma f, axial entry sigma / |omega| of the
    GyrationCurve, which is d sigma / d omega at rest."""

    def test_static_shell_blocks(self):
        # int r^2 f = m R^2; axial block (2/3) m R^2, the moment of inertia
        assert SHELL.moment(2) == pytest.approx(1.0)
        at_rest = GyrationCurve(SHELL).sigma_slope(0.0)[1]
        assert at_rest == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert at_rest == pytest.approx(
            (2.0 / 3.0) * SHELL.moment(2), rel=1e-12)

    def test_component_oracle(self):
        # direct quadrature of the defining integrand for the shell
        w = 0.6

        def angular(fn):
            return 0.5 * quad(fn, -1, 1, epsabs=1e-13, epsrel=1e-13)[0]

        gam = lambda mu: 1.0 / np.sqrt(1.0 - w**2 * (1.0 - mu**2))
        i_par = angular(lambda mu: (1 - mu**2) * gam(mu))        # zz kernel
        i_time = angular(gam)
        assert GyrationCurve(SHELL).sigma(w) / w == pytest.approx(i_par, rel=1e-10)
        assert gyrational_mass(SHELL, w) == pytest.approx(i_time, rel=1e-10)


class TestGyrationCurveSamples:
    """The curve sampled on 400 points of [0, 0.999 c/R]."""

    GRID = np.linspace(0.0, 0.999, 400)

    def test_monotone_and_convex(self):
        curve = GyrationCurve(SHELL)
        assert np.all(np.diff([curve.mass(w) for w in self.GRID]) > 0)
        assert curve.mass(0.0) == pytest.approx(1.0, rel=1e-10)

    def test_inverse_consistency(self):
        curve = GyrationCurve(SHELL)
        s = GyrationCurve(SHELL).sigma(0.45)
        approx = float(np.interp(s, [curve.sigma(w) for w in self.GRID], self.GRID))
        exact = curve.invert(s)
        assert approx == pytest.approx(exact, rel=1e-5)
        assert exact == pytest.approx(0.45, rel=1e-10)


# ---------------------------------------------------------------------------
# the shared Gauss-Legendre rules
# ---------------------------------------------------------------------------

def uncached_radial_rule(fp, order):
    if fp.kind == "shell":
        return np.array([fp.R]), np.array([fp.total])
    x, w = np.polynomial.legendre.leggauss(order)
    r = 0.5 * fp.R * (x + 1.0)
    dens = fp.total * 3.0 / (4.0 * np.pi * fp.R**3)
    return r, 0.5 * fp.R * w * dens * 4.0 * np.pi * r**2


def uncached_support_rule(fp, order_r, order_theta, order_phi):
    r, wr = uncached_radial_rule(fp, order_r)
    mu, wmu = np.polynomial.legendre.leggauss(order_theta)
    phi = 2.0 * np.pi * np.arange(order_phi) / order_phi
    st = np.sqrt(1.0 - mu**2)
    pts = np.empty((len(r), len(mu), len(phi), 3))
    pts[..., 0] = r[:, None, None] * st[None, :, None] * np.cos(phi)[None, None, :]
    pts[..., 1] = r[:, None, None] * st[None, :, None] * np.sin(phi)[None, None, :]
    pts[..., 2] = r[:, None, None] * mu[None, :, None]
    w = wr[:, None, None] * (0.5 * wmu)[None, :, None] * np.full(order_phi, 1.0 / order_phi)
    return pts.reshape(-1, 3), w.reshape(-1)


def set_orders(monkeypatch, order_r, order_theta, order_phi):
    """Node counts of the support rule, as its module constants."""
    monkeypatch.setattr(bare_particle, "ORDER_R", order_r)
    monkeypatch.setattr(bare_particle, "ORDER_THETA", order_theta)
    monkeypatch.setattr(bare_particle, "ORDER_PHI", order_phi)


def assert_bits(got, ref):
    assert got.shape == ref.shape and got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("order", [1, 2, 24, 48, 64])
def test_gauss_is_leggauss_and_read_only(order):
    for got, ref in zip(_gauss(order), np.polynomial.legendre.leggauss(order)):
        assert_bits(got, ref)
        assert not got.flags.writeable
        with pytest.raises(ValueError):
            got[0] = 0.0
    assert _gauss(order) is _gauss(order)


@pytest.mark.parametrize("fp", [DensityProfile.shell(-1.0, 1.0), DensityProfile.volume(-1.0, 1.0),
                                DensityProfile.volume(2.5, 0.7)])
@pytest.mark.parametrize("orders", [(24, 48, 24), (64, 9, 4), (7, 5, 3)])
def test_quadrature_rules_are_the_uncached_rules_bit_for_bit(fp, orders, monkeypatch):
    if orders == (24, 48, 24):
        assert (bare_particle.ORDER_R, bare_particle.ORDER_THETA, bare_particle.ORDER_PHI) == orders
    set_orders(monkeypatch, *orders)
    for got, ref in zip(fp.radial_rule(), uncached_radial_rule(fp, orders[0])):
        assert_bits(got, ref)
    for _ in range(2):   # the second call reads the cached rules
        for got, ref in zip(fp.support_rule(), uncached_support_rule(fp, *orders)):
            assert_bits(got, ref)


@pytest.mark.parametrize("fp", [DensityProfile.shell(-1.0, 1.0), DensityProfile.volume(2.5, 0.7)])
def test_support_rule_is_cached_read_only_and_keyed_by_the_orders(fp, monkeypatch):
    first = fp.support_rule()
    second = fp.support_rule()
    assert all(got is ref for got, ref in zip(second, first))
    assert DensityProfile(fp.kind, fp.total, fp.R).support_rule()[0] is first[0]
    for arr in first:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0
    set_orders(monkeypatch, 7, 5, 3)
    other = fp.support_rule()
    assert other[0] is not first[0]
    for got, ref in zip(other, uncached_support_rule(fp, 7, 5, 3)):
        assert_bits(got, ref)


@pytest.mark.parametrize("kind", ["shell", "volume"])
def test_support_rules_of_zero_totals_keep_the_sign_of_zero(kind):
    for total in (0.0, -0.0, 0.0):
        fp = DensityProfile(kind, total, 1.0)
        for got, ref in zip(fp.support_rule(), uncached_support_rule(fp, 24, 48, 24)):
            assert_bits(got, ref)


@pytest.mark.parametrize("kind", ["shell", "volume"])
@pytest.mark.parametrize("total, R", [(1.0, np.nan), (np.nan, 2.0), (-np.inf, 1.0),
                                      (1.0, np.inf), (np.inf, np.inf)])
def test_profile_refuses_a_non_finite_total_or_radius(kind, total, R):
    with pytest.raises(ValueError, match="total must be finite|R must be positive and finite"):
        DensityProfile(kind, total, R)


@pytest.mark.parametrize("total", [0.0, -0.0])
def test_profile_accepts_a_zero_total(total):
    assert DensityProfile.volume(total, 1.0).moment(2) == 0.0
