import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from ledlab import bare_particle, fields
from ledlab.bare_particle import DensityProfile
from ledlab.fields import (
    NumericalFailure,
    StationaryState,
    field_energy,
    field_spin,
    field_spin_potential,
    field_spin_poynting,
    magnetic_moment,
    stationary_state,
)

FE_SHELL = DensityProfile.shell(-1.0, 1.0)
FE_VOL = DensityProfile.volume(-1.0, 1.0)


def sphere_rule(n_mu=32, n_phi=64):
    """Unit directions and solid-angle weights (summing to 4 pi): Gauss-
    Legendre in cos(theta), uniform in phi."""
    mu, wmu = np.polynomial.legendre.leggauss(n_mu)
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    mu, phi = np.meshgrid(mu, phi, indexing="ij")
    sin = np.sqrt(1.0 - mu**2)
    dirs = np.stack([sin * np.cos(phi), sin * np.sin(phi), mu], axis=-1).reshape(-1, 3)
    return dirs, np.repeat(wmu, n_phi) * (2.0 * np.pi / n_phi)


def ball_rule(edges, n_r=48):
    """Points and volume weights on the ball of radius edges[-1], Gauss-
    Legendre in r on each piece between consecutive edges (so a shell's
    jump sits on a piece boundary, never on a node)."""
    x, w = np.polynomial.legendre.leggauss(n_r)
    r = np.concatenate([0.5 * (b - a) * x + 0.5 * (a + b) for a, b in zip(edges, edges[1:])])
    wr = np.concatenate([0.5 * (b - a) * w for a, b in zip(edges, edges[1:])])
    dirs, wd = sphere_rule()
    pts = (r[:, None, None] * dirs[None]).reshape(-1, 3)
    return pts, np.outer(wr * r**2, wd).ravel()


class TestStationaryPotentials:
    def test_shell_steps_take_the_midpoint_value_on_the_surface(self):
        # e_radial and alpha_slope of a shell against the three-way np.where
        # of Q, P = int_0^r f s^4 and S = int_r^R f s written out, bit for
        # bit, on both sides of the 1e-12 R band
        fe = DensityProfile.shell(-1.3, 0.7)
        st = stationary_state(fe, [0, 0, 0.5])
        R, band = fe.R, 1e-12 * fe.R
        r = R + band * np.array([-1e9, -2.0, -0.5, 0.0, 0.5, 2.0, 1e9])

        def where(inside, outside, mid):
            return np.where(r < R - band, inside, np.where(r > R + band, outside, mid))

        p4 = fe.total / (4.0 * np.pi * R**2) * R**4
        q1 = fe.total / (4.0 * np.pi * R**2) * R
        p = where(0.0, p4, 0.5 * p4)
        e_r = where(0.0, fe.total, 0.5 * fe.total) / r**2
        a, ap = st.alpha_slope(r)
        assert st.e_radial(r).tobytes() == e_r.tobytes()
        assert a.tobytes() == ((4.0 * np.pi / 3.0) * (p / r**3 + where(q1, 0.0, 0.5 * q1))).tobytes()
        assert ap.tobytes() == (-4.0 * np.pi * p / r**4).tobytes()
        assert np.count_nonzero(p == 0.5 * p4) == 3

    def test_enclosed_midpoint_convention(self):
        # r^2 E_r is the charge within r, half of it on the shell's surface
        st = stationary_state(DensityProfile.shell(1.0, 1.0), [0, 0, 0])
        assert st.e_radial(1.0)[0] == pytest.approx(0.5)
        assert st.e_radial(0.5)[0] == 0.0
        assert 4.0 * st.e_radial(2.0)[0] == pytest.approx(1.0)

    @pytest.mark.parametrize("total", [-1.3, 0.0, -0.0])
    @pytest.mark.parametrize("kind", ["shell", "volume"])
    def test_origin_takes_the_limits_of_the_radial_model(self, kind, total):
        # E_r = alpha' = 0 and alpha = (4 pi / 3) S(0), bit for bit, with
        # S(0)'s sign of zero at a charge of -0.0
        fe = DensityProfile(kind, total, 0.7)
        st = stationary_state(fe, [0, 0, 0.5])
        if kind == "shell":
            s0 = fe.total / (4.0 * np.pi * fe.R**2) * fe.R
        else:
            s0 = fe.total * 3.0 / (4.0 * np.pi * fe.R**3) * fe.R**2 / 2.0
        a, ap = st.alpha_slope(np.zeros(1))
        assert st.e_radial(0.0).tobytes() == ap.tobytes() == np.zeros(1).tobytes()
        assert a.tobytes() == np.array([(4.0 * np.pi / 3.0) * s0]).tobytes()

    def test_each_field_makes_one_radial_call_per_quantity(self, monkeypatch):
        # P and S are evaluated once per set of radii, E_r once; the Poynting
        # grid has two Simpson pieces
        calls = []
        for name in ("e_radial", "alpha_slope"):
            method = getattr(StationaryState, name)
            monkeypatch.setattr(StationaryState, name, lambda self, r, method=method, name=name:
                                calls.append(name) or method(self, r))
        st = stationary_state(FE_VOL, [0, 0, 0.5])
        x = FE_VOL.support_rule()[0][::97]
        for call, expect in ((st.A, ["alpha_slope"]), (st.B, ["alpha_slope"]), (st.E, ["e_radial"]),
                             (lambda x: st.profile_table(x[:, 0]), ["alpha_slope", "e_radial"]),
                             (lambda x: field_spin_poynting(st), ["alpha_slope", "e_radial"] * 2)):
            calls.clear()
            call(x)
            assert calls == expect

    def test_vector_potential_continuity(self):
        # alpha from its defining radial quadrature evaluated on both sides
        def alpha_oracle(fe, r):
            if fe.kind == "shell":
                dens = fe.total / (4 * np.pi * fe.R**2)
                p4 = dens * fe.R**4 if r > fe.R else 0.0
                q1 = dens * fe.R if r < fe.R else 0.0
            else:
                rho = fe.total * 3 / (4 * np.pi * fe.R**3)
                p4 = quad(lambda s: rho * s**4, 0, min(r, fe.R))[0]
                q1 = quad(lambda s: rho * s, min(r, fe.R), fe.R)[0]
            return (4 * np.pi / 3) * (p4 / r**3 + q1)

        for fe in (FE_SHELL, FE_VOL):
            lo = alpha_oracle(fe, fe.R * (1 - 1e-9))
            hi = alpha_oracle(fe, fe.R * (1 + 1e-9))
            # one-sided evaluations at R(1 -+ 1e-9) agree to O(1e-9)
            assert lo == pytest.approx(hi, rel=1e-8)
            got = stationary_state(fe, [0, 0, 0]).alpha_slope(np.array([fe.R]))[0][0]
            assert got == pytest.approx(0.5 * (lo + hi), rel=1e-8)

    def test_shell_alpha_closed_forms(self):
        # alpha = -e/(3 R) inside, -e R^2/(3 r^3) outside (total = -e)
        st = stationary_state(FE_SHELL, [0, 0, 0.5])
        a = st.alpha_slope(np.array([0.3, 2.0]))[0]
        assert a[0] == pytest.approx(-1.0 / 3.0, rel=1e-14)
        assert a[1] == pytest.approx(-1.0 / 24.0, rel=1e-14)

    def test_superluminal_rejected(self):
        with pytest.raises(ValueError):
            stationary_state(FE_SHELL, [0, 0, 1.5])

    @pytest.mark.parametrize("omega3", [[0.0, 0.0, 0.35], [0.1, -0.2, 0.3]])
    @pytest.mark.parametrize("fe", [FE_SHELL, FE_VOL], ids=["shell", "volume"])
    def test_a_point_s_fields_do_not_depend_on_its_batch(self, fe, omega3):
        # E and B of a batch holding the origin and points inside the 1e-12 R
        # band of the surface, row by row against the points one at a time;
        # and an all-r > 0 batch with and without the origin appended
        st = stationary_state(fe, omega3)
        band = 1e-12 * fe.R
        surface = fe.R * np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.6, 0.0, 0.8]])
        positive = np.concatenate([fe.support_rule()[0][::97], surface * (1.0 - 0.5 * band),
                                   surface * (1.0 + 0.5 * band), surface,
                                   np.random.default_rng(3).normal(size=(40, 3))])
        origin = np.zeros((1, 3))
        for field in (st.E, st.B):
            batch = field(np.concatenate([positive, origin]))
            for point, row in zip(np.concatenate([positive, origin]), batch):
                assert field(point).tobytes() == row.tobytes()
            assert field(positive).tobytes() == batch[:-1].tobytes()


class TestMagneticMoment:
    def test_zero_omega(self):
        np.testing.assert_allclose(magnetic_moment(FE_SHELL, [0, 0, 0]), 0.0)

    def test_shell_value(self):
        mu = magnetic_moment(FE_SHELL, [0, 0, 1.0])
        np.testing.assert_allclose(mu, [0, 0, -1.0 / 3.0], rtol=1e-14)

    def test_volume_value(self):
        mu = magnetic_moment(FE_VOL, [0, 0, 1.0])
        np.testing.assert_allclose(mu, [0, 0, -0.2], rtol=1e-12)

    @pytest.mark.parametrize("fe,expect", [(FE_SHELL, -1 / 3), (FE_VOL, -0.2)])
    def test_vs_quadrature(self, fe, expect):
        # (1/2c) int x cross (w cross x) f d^3x over the support rule
        pts, w = fe.support_rule()
        om = np.array([0.0, 0.0, 1.0])
        integ = np.einsum("k,ki->i", w, np.cross(pts, np.cross(om, pts))) / 2
        np.testing.assert_allclose(magnetic_moment(fe, om), integ,
                                   rtol=1e-10, atol=1e-13)
        assert integ[2] == pytest.approx(expect, rel=1e-10)


class TestFieldEnergy:
    def test_static_shell(self):
        st = stationary_state(FE_SHELL, [0, 0, 0.0])
        assert field_energy(st) == pytest.approx(0.5, rel=1e-14)

    def test_shell_luminal_value(self):
        st = stationary_state(FE_SHELL, [0, 0, 1.0 - 1e-12])
        assert field_energy(st) == pytest.approx(11.0 / 18.0, rel=1e-9)

    def test_static_volume(self):
        st = stationary_state(FE_VOL, [0, 0, 0.0])
        assert field_energy(st) == pytest.approx(0.6, rel=1e-10)

    @pytest.mark.parametrize("x", [0.1, 0.5, 0.9])
    def test_shell_vs_radial_quadrature(self, x):
        st = stationary_state(FE_SHELL, [0, 0, x])

        def dens(r):
            r = np.array([r])
            a, ap = st.alpha_slope(r)
            b2 = x**2 * (4 * a**2 + (8 * r / 3) * a * ap + (2 / 3) * r**2 * ap**2)
            return 0.5 * float(((st.e_radial(r) ** 2 + b2) * r**2)[0])

        rb = 60.0
        inner = (quad(dens, 0, 1 - 1e-9, epsabs=1e-13)[0]
                 + quad(dens, 1 + 1e-9, rb, epsabs=1e-13, limit=300)[0])
        # exact monopole + dipole tails beyond rb
        mu = magnetic_moment(st.fe, st.omega3)
        mu2 = float(mu @ mu)
        tail = 1.0 / (2 * rb) + mu2 / (3 * rb**3)
        assert field_energy(st) == pytest.approx(inner + tail, rel=1e-8)

    @pytest.mark.parametrize("x", [0.1, 0.5, 0.9])
    def test_volume_closed_form_against_mpmath(self, x):
        # (1/8 pi) int (|E|^2 + |B|^2) of the state's own radial fields,
        # integrated by mpmath over [0, R] and [R, inf)
        st = stationary_state(FE_VOL, [0, 0, x])

        def dens(r):
            r = np.array([float(r)])
            a, ap = st.alpha_slope(r)
            b2 = x**2 * (4 * a**2 + (8 * r / 3) * a * ap + (2 / 3) * r**2 * ap**2)
            return 0.5 * float(((st.e_radial(r) ** 2 + b2) * r**2)[0])

        got = float(mp.quad(dens, [0, 1, mp.inf]))
        assert field_energy(st) == pytest.approx(got, rel=1e-13)

    def test_radial_grid_matches_closed_form(self):
        # (1/8 pi) int (|E|^2 + |B|^2) from the vector fields: Gauss nodes
        # in r inside, in s = R/r outside, and on the sphere
        st = stationary_state(FE_SHELL, [0, 0, 0.5])
        dirs, wd = sphere_rule()
        x, w = np.polynomial.legendre.leggauss(48)
        r_in, w_in = 0.5 * (x + 1.0), 0.5 * w
        s_out, w_out = 0.5 * (x + 1.0), 0.5 * w
        r = np.concatenate([r_in, 1.0 / s_out])
        wr = np.concatenate([w_in, w_out / s_out**2]) * r**2
        pts = (r[:, None, None] * dirs[None]).reshape(-1, 3)
        dens = np.sum(st.E(pts) ** 2 + st.B(pts) ** 2, axis=1) / (8.0 * np.pi)
        got = float(dens @ np.outer(wr, wd).ravel())
        assert got == pytest.approx(field_energy(st), rel=1e-6)


class TestFieldSpin:
    def test_zero_omega(self):
        st = stationary_state(FE_SHELL, [0, 0, 0.0])
        np.testing.assert_allclose(field_spin(st), 0.0)

    @pytest.mark.parametrize("fe", [FE_SHELL, FE_VOL])
    def test_zero_omega_evaluates_no_poynting_integrand(self, fe, monkeypatch):
        # the grid's integrand reads alpha at every node; at omega = 0 the
        # Poynting form is zero before any node is built
        calls = []
        alpha_slope = StationaryState.alpha_slope
        monkeypatch.setattr(StationaryState, "alpha_slope",
                            lambda self, r: calls.append(len(r)) or alpha_slope(self, r))
        for omega in (0.0, -0.0):
            st = stationary_state(fe, [0, 0, omega])
            assert field_spin_poynting(st).tolist() == [0.0, 0.0, 0.0]
            assert field_spin(st).tolist() == [0.0, 0.0, omega]
        assert calls == []
        field_spin_poynting(stationary_state(fe, [0, 0, 1e-170]))
        assert sum(calls) >= fields.POYNTING_NODES

    def test_shell_value(self):
        st = stationary_state(FE_SHELL, [0, 0, 0.5])
        s = field_spin(st)
        np.testing.assert_allclose(s, [0, 0, 1.0 / 9.0], rtol=1e-12)
        assert s[2] == pytest.approx(0.1111111, abs=5e-8)

    def test_forms_agree_default_resolution(self):
        st = stationary_state(FE_SHELL, [0, 0, 0.5])
        rel = abs(field_spin_poynting(st)[2] - field_spin_potential(st)[2]) / (1 / 9)
        assert rel < 1e-6

    def test_agreement_improves_under_refinement(self, monkeypatch):
        st = stationary_state(FE_SHELL, [0, 0, 0.7])
        ref = field_spin_potential(st)[2]
        err = []
        for n in (300, 1200, 4800):
            monkeypatch.setattr(fields, "POYNTING_NODES", n)
            err.append(abs(field_spin_poynting(st)[2] - ref) / ref)
        assert err[1] < err[0] and err[2] < err[1]

    def test_volume_forms_agree(self):
        st = stationary_state(FE_VOL, [0, 0, 0.6])
        s_pot = field_spin_potential(st)
        s_poy = field_spin_poynting(st)
        np.testing.assert_allclose(s_poy, s_pot, rtol=1e-6)

    def test_disagreement_raises(self, monkeypatch):
        st = stationary_state(FE_SHELL, [0, 0, 0.5])
        monkeypatch.setattr(fields, "SPIN_CHECK_TOL", 1e-18)
        with pytest.raises(NumericalFailure):
            field_spin(st)

    @pytest.mark.parametrize("fe", [FE_SHELL, FE_VOL])
    def test_disagreement_at_a_tiny_omega_raises(self, fe, monkeypatch):
        # a 2-norm squares a gap of 1e-171 to 0
        st = stationary_state(fe, [0, 0, 1e-170])
        assert field_spin(st)[2] > 0.0
        monkeypatch.setattr(fields, "field_spin_poynting", lambda st: np.zeros(3))
        with pytest.raises(NumericalFailure):
            field_spin(st)

    @pytest.mark.parametrize("fe", [FE_SHELL, FE_VOL, DensityProfile.volume(0.7, 2.5)])
    def test_potential_form_oracle(self, fe):
        # int x cross A f d^3x over the 3-d support rule, exact for the
        # ball's polynomial integrand
        st = stationary_state(fe, [0, 0, -0.5 / fe.R])
        pts, w = fe.support_rule()
        integ = np.einsum("k,ki->i", w, np.cross(pts, st.A(pts)))
        np.testing.assert_allclose(field_spin_potential(st), integ,
                                   rtol=1e-12, atol=1e-13)

    @pytest.mark.parametrize("kind", ["shell", "volume"])
    def test_closed_form_against_mpmath(self, kind):
        # (2/3) int alpha r^2 f d^3x omega at 50 digits, alpha from its two
        # defining radial integrals, against the closed form at random
        # (q, R, omega)
        with mp.workdps(50):
            coeff = mp_spin_coefficient(kind)
            rng = np.random.default_rng(35)
            worst = 0.0
            for _ in range(100):
                q = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3, 3))
                R = float(10.0 ** rng.uniform(-2, 2))
                omega = float(rng.uniform(-0.999, 0.999) / R)
                got = field_spin_potential(stationary_state(DensityProfile(kind, q, R),
                                                            [0, 0, omega]))
                exact = coeff * mp.mpf(q) ** 2 * mp.mpf(R) * mp.mpf(omega)
                assert got[0] == got[1] == 0.0
                worst = max(worst, float(abs(got[2] / exact - 1)))
        assert worst <= 4e-16


def mp_spin_coefficient(kind):
    """s_f / (q^2 R omega) at the working precision: (2/3) int alpha r^2 f
    d^3x at q = R = omega = 1, with alpha(r) = (4 pi / 3) [r^-3 int_0^r
    f s^4 ds + int_r^R f s ds].  A shell's alpha is continuous at R, where
    int_0^R f s^4 ds = 1 / 4 pi and the outer integral vanishes."""
    if kind == "shell":
        return mp.mpf(2) / 3 * (4 * mp.pi / 3) / (4 * mp.pi)
    rho = 3 / (4 * mp.pi)

    def quad(f, a, b):   # Gauss-Legendre: exact on these polynomials
        return mp.quad(f, [a, b], method="gauss-legendre")

    def alpha(r):
        inner = quad(lambda s: rho * s**4, 0, r) / r**3
        return 4 * mp.pi / 3 * (inner + quad(lambda s: rho * s, r, 1))

    return mp.mpf(2) / 3 * quad(lambda r: alpha(r) * r**2 * rho * 4 * mp.pi * r**2, 0, 1)


def maxwell_fluxes(e3, b3):
    """Rows of the energy and momentum flux of a field (E, B), c = 1: the
    Poynting vector E x B / 4 pi, then row i of the momentum flux
    ((E^2 + B^2)/2 delta_ij - E_i E_j - B_i B_j) / 4 pi."""
    e3, b3 = np.asarray(e3, dtype=float), np.asarray(b3, dtype=float)
    stress = 0.5 * (e3 @ e3 + b3 @ b3) * np.eye(3) - np.outer(e3, e3) - np.outer(b3, b3)
    return np.vstack([np.cross(e3, b3), stress]) / (4 * np.pi)


class TestStressEnergy:
    def test_divergence_vanishes_outside_support(self):
        # Maxwell's equations for the stationary fields: the finite-difference
        # divergence of every flux row vanishes at a field point away from the
        # charge (energy and momentum conservation of a static vacuum field)
        st = stationary_state(FE_SHELL, [0, 0, 0.4])
        x0 = np.array([1.7, 0.4, -0.8])
        h = 1e-4

        def t_at(x):
            return maxwell_fluxes(st.E(x[None])[0], st.B(x[None])[0])

        div = np.zeros(4)
        for i in range(3):
            dx = np.zeros(3)
            dx[i] = h
            div += (t_at(x0 + dx)[:, i] - t_at(x0 - dx)[:, i]) / (2 * h)
        scale = np.max(np.abs(t_at(x0))) / np.linalg.norm(x0)
        np.testing.assert_allclose(div / scale, 0.0, atol=1e-5)


class TestExteriorMultipole:
    def test_l1_projection_residual(self, monkeypatch):
        # numerically computed vector potential outside the support is a
        # pure l=1 toroidal pattern: A parallel to (w cross x), amplitude
        # independent of direction
        st = stationary_state(FE_VOL, [0, 0, 0.6])
        monkeypatch.setattr(bare_particle, "ORDER_R", 32)
        monkeypatch.setattr(bare_particle, "ORDER_THETA", 64)
        monkeypatch.setattr(bare_particle, "ORDER_PHI", 32)
        pts, wq = FE_VOL.support_rule()
        rng = np.random.default_rng(24)
        npts = 80
        dirs = rng.normal(size=(npts, 3))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        x = 2.0 * dirs
        # direct convolution A(x) = w cross int x' f/|x - x'|
        conv = np.empty((npts, 3))
        for k in range(npts):
            kern = 1.0 / np.linalg.norm(x[k] - pts, axis=1)
            conv[k] = np.cross([0, 0, 0.6], np.einsum("q,qi->i", wq * kern, pts))
        pattern = np.cross(np.tile([0, 0, 1.0], (npts, 1)), x)
        norm2 = np.einsum("ki,ki->", pattern, pattern)
        coeff = np.einsum("ki,ki->", conv, pattern) / norm2
        resid = conv - coeff * pattern
        assert np.linalg.norm(resid) / np.linalg.norm(conv) < 1e-8
        # and the amplitude matches the implementation's alpha at r = 2
        assert coeff == pytest.approx(0.6 * st.alpha_slope(np.array([2.0]))[0][0], rel=1e-8)


class TestComovingFields:
    """The exterior fields of the state at rest in its own frame: point
    charge plus point dipole."""

    def test_static_coulomb(self):
        st = stationary_state(DensityProfile.shell(1.0, 1.0), [0, 0, 0])
        assert st.e_radial(2.0)[0] == pytest.approx(0.25)
        np.testing.assert_allclose(st.A([2.0, 0, 0]), 0.0)

    def test_static_dipole(self):
        st = stationary_state(DensityProfile.shell(1.0, 1.0), [0, 0, 0.9])
        mu = magnetic_moment(st.fe, st.omega3)
        np.testing.assert_allclose(mu, [0.0, 0.0, 0.3], rtol=1e-13)
        y = np.array([1.0, 2.0, -0.5])
        np.testing.assert_allclose(st.A(y)[0], np.cross(mu, y) / np.linalg.norm(y) ** 3,
                                   rtol=1e-13)
        assert st.e_radial(np.linalg.norm(y))[0] == pytest.approx(1.0 / np.linalg.norm(y) ** 2)


class TestComplexField3:
    """Gauss's law for G = E + iB of the stationary state."""

    def test_divergence_free_imaginary_part(self):
        st = stationary_state(FE_VOL, [0, 0, 0.4])
        # central differences of step 0.1 on the nodes of [-0.4, 0.4]^3,
        # well inside the support where B is smooth
        h = 0.1
        ax = h * np.arange(-4, 5)
        x0 = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1).reshape(-1, 3)
        div_b = sum((st.B(x0 + h * e)[:, i] - st.B(x0 - h * e)[:, i]) / (2 * h)
                    for i, e in enumerate(np.eye(3)))
        scale = np.max(np.abs(st.B(x0)))
        assert np.max(np.abs(div_b)) < 2e-2 * scale

    def test_gauss_flux_charge(self):
        # flux through the faces of the cube [-6, 6]^3
        st = stationary_state(FE_SHELL, [0, 0, 0.4])
        L = 6.0
        x, w = np.polynomial.legendre.leggauss(48)
        a, b = np.meshgrid(L * x, L * x, indexing="ij")
        wf = np.outer(L * w, L * w).ravel()
        flux = {"real": 0.0, "imag": 0.0}
        for axis in range(3):
            for side in (-1.0, 1.0):
                face = np.empty((a.size, 3))
                face[:, axis] = side * L
                face[:, [k for k in range(3) if k != axis]] = np.stack(
                    [a.ravel(), b.ravel()], axis=1)
                flux["real"] += side * (st.E(face)[:, axis] @ wf)
                flux["imag"] += side * (st.B(face)[:, axis] @ wf)
        q = flux["real"] / (4 * np.pi)
        assert q == pytest.approx(-1.0, rel=1e-3)
        assert flux["imag"] / (4 * np.pi) == pytest.approx(0.0, abs=1e-9)


class TestConservedFunctionals:
    """Charge, field momentum and field angular momentum of the stationary
    state as integrals of E and B."""

    def setup_method(self):
        self.omega = np.array([0.0, 0.0, 0.4])
        self.st = stationary_state(FE_SHELL, self.omega)
        self.L = 10.0

    def poynting_integrals(self):
        pts, wq = ball_rule([0.0, 1.0, self.L])
        s = np.cross(self.st.E(pts), self.st.B(pts)) / (4.0 * np.pi)
        return wq @ s, wq @ np.cross(pts, s)

    def test_charge(self):
        # flux of E through a sphere of radius 3 about an off-centre point
        centre = np.array([0.5, -0.3, 0.2])
        dirs, wd = sphere_rule()
        flux = np.sum(self.st.E(centre + 3.0 * dirs) * dirs, axis=1) @ (9.0 * wd)
        assert flux / (4 * np.pi) == pytest.approx(-1.0, rel=1e-3)

    def test_momentum_vanishes(self):
        # azimuthal Poynting field integrates to zero by symmetry
        scale = field_energy(self.st)
        p, _ = self.poynting_integrals()
        np.testing.assert_allclose(p / scale, 0.0, atol=1e-10)

    def test_field_angular_momentum_matches_field_spin(self):
        s_f = field_spin_poynting(self.st)
        _, got = self.poynting_integrals()
        # truncation of the Poynting spin integral outside the ball ~ R/L
        tail_bound = 1.5 * np.linalg.norm(s_f) * 1.0 / self.L
        assert np.linalg.norm(got - s_f) < tail_bound


class TestExportTables:
    def test_profile_table_columns(self):
        st = stationary_state(FE_SHELL, [0, 0, 0.5])
        table = st.profile_table(np.linspace(0, 3, 50))
        for key in ("r", "E_r", "alpha", "B_axial", "B_equatorial"):
            assert key in table and len(table[key]) == 50
        summary = st.summary()
        assert summary["W_f"] == pytest.approx(field_energy(st))
        np.testing.assert_allclose(summary["mu"], magnetic_moment(st.fe, st.omega3))
