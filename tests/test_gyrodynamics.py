"""Oracle tests of the fixed-center gyration stepper: the closed-form shell
gyration curve along a run, the support-spin invariant, the discrete
stationary fixed point, the CFL guard, the stationary operator bands, the
support-only stationary profile against the full-grid formula, solved
once per solver, the spin coupling against node-by-node sums and a
sequential node loop, the
fixed-axis contracts of the state and the spin inversion, the laplacian
against a node loop, the support-sliced stepper against a full-grid one,
Picard against the stepper and bit for bit against full-grid cumsum
sweeps, every other Jacobi iterate from rest and the Gauss-Seidel ones
from a moving start, on the nodes its window has exact, with its swept
width, the run's batched records against each state's diagnostics, the
shell's linear response against its closed-form transfer function, the
field-spin coupling of both profiles against its closed form at second
order in dr, the relax run's verdict against the predicted equilibrium, a recorded relax
time series, the run's second order in dt, and the kernel passes,
rejections and saturation of the warm-started spin inversion."""

import csv
import dataclasses
import json
import re
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from scipy.linalg import solve_banded

from ledlab import bare_particle, cli, gyrodynamics
from ledlab.bare_particle import DensityProfile
from ledlab.gyrodynamics import CFLError, GyroEvolutionState, GyroSolver

DATA = Path(__file__).parent / "data"
MASS = 2.0
EPS = np.finfo(float).eps
FE = DensityProfile.shell(-1.0, 1.0)
FM = DensityProfile.shell(MASS, 1.0)


@pytest.fixture(scope="module")
def solver():
    return GyroSolver(FE, FM, r_max=4.0)


@pytest.fixture(scope="module")
def perturbed(solver):
    return solver.run(perturbed_state(solver), 3.0)


def shell_spin(omega, dps=40):
    """|s_b| = m R beta K(beta) of the shell (c = 1), in mpmath: a float,
    or an mpf when dps is None (at the caller's working precision)."""
    with mp.workdps(dps or mp.mp.dps):
        b = mp.mpf(omega) * FM.R
        s = MASS * FM.R * ((1 + b**2) / (2 * b**2) * mp.atanh(b) - 1 / (2 * b))
        return s if dps is None else float(s)


def perturbed_state(solver, omega=0.3):
    """Half the stationary field at omega on the z axis, at rest: the field,
    its rate and the spin all move once it is stepped."""
    return solver.make_state(np.array([0.0, 0.0, omega]), scale=0.5)


def stepped_state(solver, steps=5):
    """perturbed_state after a few steps, so that its rate pi is not zero."""
    state = perturbed_state(solver)
    for _ in range(steps):
        state = solver.step(state, solver.cfl_dt())
    return state


def node_sum_torque(solver, pi):
    """-(2/3) sum_i W_i r_i^2 pi_i, node by node: the torque on the fixed
    axis, where omega x w vanishes."""
    out = 0.0
    for f, r, pi_i in zip(solver.fe_nodes, solver.r, pi):
        out -= f * 4.0 * np.pi * r**2 * solver.dr * r**2 * pi_i
    return (2.0 / 3.0) * out


def sequential_spin_sum(solver, w):
    """(2/3) sum_i W_i r_i^2 w_i over the support, the products added one
    at a time from the origin in a Python loop; w is (k,) or (nt, k)."""
    w = np.asarray(w)
    if w.ndim == 2:
        return np.array([sequential_spin_sum(solver, row) for row in w])
    total = None
    for weight, w_i in zip(solver._spin_weights.tolist(), w[:solver.m].tolist()):
        term = weight * w_i
        total = term if total is None else total + term
    return (2.0 / 3.0) * total


def node_loop_laplacian(solver, w):
    """(r^4 w')' / r^4 row by row: the staggered fluxes r_{i+1/2}^4 (w_{i+1} -
    w_i) / dr differenced over r_i^4 dr, the origin row 10 (w_1 - w_0) / dr^2
    and a zero outer row; w is (..., n)."""
    r, dr = solver.r, solver.dr
    rh4 = (0.5 * (r[:-1] + r[1:])) ** 4
    r4 = r**4
    out = np.full_like(w, np.nan)
    for i in range(1, len(r) - 1):
        f_out = rh4[i] * (w[..., i + 1] - w[..., i]) / dr
        f_in = rh4[i - 1] * (w[..., i] - w[..., i - 1]) / dr
        out[..., i] = (f_out - f_in) / (r4[i] * dr)
    out[..., 0] = 10.0 * (w[..., 1] - w[..., 0]) / dr**2
    out[..., -1] = 0.0
    return out


def full_grid_run(s, state, horizon):
    """The stepper with every coupling over the whole grid: the source added
    and the spin weights summed (from the origin) on all n nodes and two
    laplacians per step; the half-step omega is the tangent predictor
    omega + (dt/2) torque / sigma'(|omega|), and the one spin inversion
    starts at that tangent's |omega| for the new s_b.  Returns the
    histories GyroSolver.run records."""
    dr, r = s.dr, s.r
    dt = s.cfl_dt()
    spin_weights = s.fe_nodes * 4.0 * np.pi * r**2 * dr * r**2

    def se(w):
        return float((2.0 / 3.0) * np.cumsum(spin_weights * w)[-1])

    def accel(w, omega):
        a = np.zeros_like(w)
        flux = s._r_half4 * (w[1:] - w[:-1]) / dr
        a[1:-1] = (flux[1:] - flux[:-1]) / (r[1:-1] ** 4 * dr)
        a[0] = 10.0 * (w[1] - w[0]) / dr**2
        a += (4.0 * np.pi) * s.fe_nodes * omega
        return a

    i_audit = int(round(min(0.8 * r[-1], 4.0 * s.fe.R) / dr))
    t, w, pi, sb, omega = state.t, state.w, state.pi, state.sb, state.omega
    rec = {k: [] for k in ("t", "omega", "sb", "se", "W_b", "W_field_inside", "flux")}
    for step in range(int(np.ceil(horizon / dt)) + 1):
        if step:
            w0, pi = w, pi.copy()
            slope = s.curve.sigma_slope(abs(omega))[1]
            om_half = omega + 0.5 * dt * -se(pi) / slope
            pi[:-1] += 0.5 * dt * accel(w0, om_half)[:-1]
            s._boundary_kick(w0, pi, 0.5 * dt)
            w = w0 + dt * pi
            pi[:-1] += 0.5 * dt * accel(w, om_half)[:-1]
            s._boundary_kick(w, pi, 0.5 * dt)
            sb, sb0 = sb - se(w - w0), sb
            omega = s.omega_of_sb(sb, min(abs(omega + (sb - sb0) / slope), s.curve.omega_cap))
            t = t + dt
        for key, value in (("t", t), ("omega", omega), ("sb", sb), ("se", se(w)),
                           ("W_b", s.curve.mass(abs(omega))),
                           ("W_field_inside", s.dynamic_energy_inside(w, pi, i_audit)),
                           ("flux", s.poynting_flux(w, pi, i_audit))):
            rec[key].append(value)
    return {k: np.array(v) for k, v in rec.items()}


def full_grid_profile(s):
    """The stationary profile at omega = 1 with every flux of the flux-form
    solve formed and summed over the whole grid, f_e's zeros beyond the
    support included."""
    dr, r = s.dr, s.r
    rhs = -(4.0 * np.pi) * s.fe_nodes
    flux = rhs[:-1] * r[:-1] ** 4 * dr
    flux[0] = s._r_half4[0] * rhs[0] * dr / 10.0
    diff = np.cumsum(flux) * dr / s._r_half4
    rn, rm = r[-1], r[-2]
    outer = -(rm**2) * diff[-1] / ((rn - rm) * (rn + rm) + rn * dr)
    shape = np.empty(s.n)
    shape[-1] = outer
    shape[-2::-1] = outer - np.cumsum(diff[::-1])
    return shape


def node_loop_bands(solver):
    """The stationary operator bands assembled node by node."""
    n, dr, r, rh4 = solver.n, solver.dr, solver.r, solver._r_half4
    lower, diag, upper = np.zeros(n), np.zeros(n), np.zeros(n)
    diag[0] = -10.0 / dr**2
    upper[1] = 10.0 / dr**2
    for i in range(1, n - 1):
        scale = r[i] ** 4 * dr**2
        lower[i - 1] = rh4[i - 1] / scale
        diag[i] = -(rh4[i] + rh4[i - 1]) / scale
        upper[i + 1] = rh4[i] / scale
    rn, rm = r[-1], r[-2]
    diag[-1] = rn**2 * (1.0 / dr + 1.0 / rn)
    lower[-2] = -(rm**2) / dr
    return np.array([upper, diag, lower])


class TestStepper:
    def test_recorded_omega_on_shell_gyration_curve(self, perturbed):
        assert np.ptp(perturbed.omega) > 1e-3      # the run does move
        for om, sb in zip(perturbed.omega, perturbed.sb):
            assert sb == pytest.approx(shell_spin(om), rel=1e-12)

    def test_support_spin_conserved(self, perturbed):
        total = perturbed.sb + perturbed.se
        assert np.max(np.abs(total - total[0])) <= 1e-15 * total[0]

    def test_stationary_state_is_fixed_point(self, solver):
        state = solver.make_state(np.array([0.0, 0.0, -0.25]))
        s = state
        for _ in range(40):
            s = solver.step(s, solver.cfl_dt())
        scale = np.max(np.abs(state.w))
        assert np.max(np.abs(s.w - state.w)) <= 1e-14 * scale
        assert np.max(np.abs(s.pi)) <= 1e-13 * scale
        assert s.sb == pytest.approx(state.sb, rel=1e-15)
        assert s.omega == pytest.approx(state.omega, rel=1e-14)

    def test_cfl_guard(self, solver):
        state = solver.make_state(np.array([0.0, 0.0, 0.3]))
        solver.step(state, solver.cfl_limit)
        with pytest.raises(CFLError):
            solver.step(state, 1.001 * solver.cfl_limit)

    def test_outer_node_must_lie_outside_the_support(self):
        with pytest.raises(ValueError, match="support radius"):
            GyroSolver(FE, FM, r_max=1.0)
        GyroSolver(FE, FM, r_max=1.05)

    @pytest.mark.parametrize("start", [None, 0.3])
    def test_inversion_rejects_nan_and_spins_at_the_cap(self, solver, start):
        with pytest.raises(FloatingPointError):
            solver.omega_of_sb(np.nan, start)
        at_cap = solver.curve.sigma_cap
        for sb in (at_cap, -at_cap, np.inf, -np.inf):
            with pytest.raises(ValueError, match="gyrational bound"):
                solver.omega_of_sb(sb, start)

    def test_steps_average_at_most_3_kernel_calls(self, monkeypatch):
        # 5 R/c of the perturbed shell at the default grid; each step takes
        # one sigma_slope pass for the predictor, and its one inversion
        # starts at the tangent's |omega|: a correction and a stopping pass
        s = GyroSolver(FE, FM)
        state = perturbed_state(s)
        s.curve.sigma_cap
        calls = []
        kernel = bare_particle.spin_kernel
        monkeypatch.setattr(bare_particle, "spin_kernel",
                            lambda b: calls.append(1) or kernel(b))
        dt = s.cfl_dt()
        steps = int(np.ceil(5.0 / dt))
        for _ in range(steps):
            state = s.step(state, dt)
        assert state.omega != 0.3
        assert len(calls) <= 3 * steps

    def test_cap_is_hard_in_the_stepper_and_saturates_histories(self, solver):
        sb = np.array([0.5, 10.0, -10.0])   # |s| = 10 is beyond the cap
        with pytest.raises(ValueError):
            solver.omega_of_sb(sb[1])
        om = solver.omega_many(sb, np.full(3, 0.3))
        np.testing.assert_array_equal(om[1:], [0.999, -0.999])
        assert om[0] == pytest.approx(solver.omega_of_sb(0.5), rel=1e-15)

    def test_omega_many_saturates_from_the_cap_up(self, solver):
        cap = solver.curve.sigma_cap
        om = solver.omega_many(np.array([0.2, cap, 5.0 * cap]), np.zeros(3))
        np.testing.assert_allclose(om[1:], solver.curve.omega_cap, rtol=1e-15)
        assert solver.curve.sigma(om[0]) == pytest.approx(0.2, rel=1e-14)

    @pytest.mark.parametrize("kind, r_max", [("shell", 10.0), ("volume", 37.0)])
    def test_stationary_bands_match_node_loop(self, kind, r_max):
        # the flux-form solve against solve_banded on the node-loop bands,
        # and its componentwise backward error on those bands
        fe = getattr(DensityProfile, kind)(-1.0, 1.0)
        fm = getattr(DensityProfile, kind)(MASS, 1.0)
        s = GyroSolver(fe, fm, r_max=r_max)
        rhs = -(4.0 * np.pi) * s.fe_nodes
        rhs[-1] = 0.0
        bands = node_loop_bands(s)
        ref = solve_banded((1, 1), bands, rhs)
        got = s.stationary_profile(1.0)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
        upper, diag, lower = bands
        terms = np.zeros((3, s.n))
        terms[0] = diag * got
        terms[1, :-1] = upper[1:] * got[1:]
        terms[2, 1:] = lower[:-1] * got[:-1]
        resid = np.abs(terms.sum(axis=0) - rhs)
        assert np.max(resid / (np.abs(terms).sum(axis=0) + np.abs(rhs))) <= 4.0 * EPS

    @pytest.mark.parametrize("kind", ["shell", "volume"])
    @pytest.mark.parametrize("charge", [-1.0, 0.0, -0.0], ids=["charged", "0", "-0"])
    @pytest.mark.parametrize("r_max", [10.0, 2000.0])
    def test_support_profile_matches_the_full_grid_formula(self, kind, charge, r_max):
        # the fluxes formed on the support only, bit for bit, signed zeros
        # included: a shell of charge -0.0 has f_e = -0.0 at R alone
        s = GyroSolver(getattr(DensityProfile, kind)(charge, 1.0),
                       getattr(DensityProfile, kind)(MASS, 1.0), r_max=r_max)
        ref = full_grid_profile(s)
        assert (np.ptp(ref) > 0) == (charge != 0.0)
        for omega in (1.0, -0.3, 0.0):
            assert s.stationary_profile(omega).tobytes() == (ref * omega).tobytes()

    def test_one_full_grid_solve_per_solver(self, monkeypatch):
        solves = []
        solve = GyroSolver._solve_unit_profile
        monkeypatch.setattr(GyroSolver, "_solve_unit_profile",
                            lambda self, support: solves.append(self.n) or solve(self, support))
        s = GyroSolver(DensityProfile.volume(-1.0, 1.0), DensityProfile.volume(MASS, 1.0),
                       r_max=2000.0)
        state = perturbed_state(s)
        s.stationary_profile(1.0)
        s.predicted_equilibrium(state)
        s.run_to_stationary(state, 0.1)
        assert solves == [s.n] == [40001]

    @pytest.mark.parametrize("kind", ["shell", "volume"])
    def test_torque_matches_node_sum(self, kind):
        s = GyroSolver(getattr(DensityProfile, kind)(-1.0, 1.0),
                       getattr(DensityProfile, kind)(MASS, 1.0), r_max=4.0)
        state = stepped_state(s)
        ref = node_sum_torque(s, state.pi)
        assert abs(ref) > 1e-6
        assert abs(s.torque(state.pi) - ref) <= 1e-13 * abs(ref)

    @pytest.mark.parametrize("kind", ["shell", "volume"])
    def test_step_spin_change_matches_node_sum(self, kind):
        # conservative update: -s_e(w_new - w_old), the torque of the mean rate
        s = GyroSolver(getattr(DensityProfile, kind)(-1.0, 1.0),
                       getattr(DensityProfile, kind)(MASS, 1.0), r_max=4.0)
        state = stepped_state(s)
        dt = s.cfl_dt()
        new = s.step(state, dt)
        ref = dt * node_sum_torque(s, (new.w - state.w) / dt)
        assert abs(new.sb - state.sb - ref) <= 1e-13 * abs(ref)

    def test_picard_converges_to_the_stepper(self):
        s = GyroSolver(FE, FM, r_max=10.0)
        state = perturbed_state(s)
        res = s.picard_iterate(state, n_max=80, horizon=0.15, stop_gap=1e-12)
        assert res.converged
        ref = s.run(state, float(res.times[-1])).sb[-1]
        assert abs(res.sb[-1] - ref) <= 1e-3 * abs(ref)

    @pytest.mark.parametrize("kind", ["shell", "volume"])
    def test_run_converges_at_second_order_in_dt(self, kind):
        """omega of the perturbed run over 1.9 R at the times that dt, dt/2,
        ..., dt/16 share: each halving shrinks the difference about
        fourfold (3.92, 4.00 and 4.01 on the shell, 4.02, 4.00 and 4.00 on
        the ball), although the half-step omega comes from a tangent
        predictor.  A first-order predictor, omega_{n+1/2} = omega_n, reads
        3.63, 3.23 and 2.59 on the shell and 1.99 on the ball.  Over 3 R
        the shell's grid-scale front at its node hides that predictor until
        dt/16 (3.71, 3.73, 3.25), so the window stops before 2 R."""
        s = GyroSolver(getattr(DensityProfile, kind)(-1.0, 1.0),
                       getattr(DensityProfile, kind)(MASS, 1.0), r_max=4.0)
        state = perturbed_state(s)
        runs = [s.run(state, 1.9, s.cfl_dt() / 2**j).omega[::2**j] for j in range(5)]
        n = min(map(len, runs))
        assert n == 127 and np.ptp(runs[0]) > 1e-2
        diffs = [np.max(np.abs(a[:n] - b[:n])) for a, b in zip(runs, runs[1:])]
        assert all(a >= 3.4 * b for a, b in zip(diffs, diffs[1:])), diffs

    def test_predicted_equilibrium_solves_the_invariant(self, solver, perturbed):
        state = perturbed_state(solver)
        w_inf = solver.predicted_equilibrium(state)
        kappa = solver.field_spin_support(solver.stationary_profile(1.0))
        s_tot = state.sb + solver.field_spin_support(state.w)
        assert shell_spin(w_inf) + kappa * w_inf == pytest.approx(s_tot, rel=1e-14)


class TestFixedAxis:
    """The state carries amplitudes along the z axis: the spin sum, the
    initial data and the spin inversion keep the vector form's numbers."""

    @pytest.fixture(scope="class")
    def volume(self):
        return GyroSolver(DensityProfile.volume(-1.0, 1.0), DensityProfile.volume(MASS, 1.0),
                          r_max=4.0)

    def test_field_spin_support_is_a_sequential_node_sum(self, volume, solver):
        """Each sum against the node loop bit for bit; a 1-d w, summed on
        floats from the first nonzero weight, also against the accumulate
        path (the row of a block): the shell's single weight, zero and -0.0
        fields, a zero field with -0.0 at the origin only, and a charge of
        0, whose weights are all zero."""
        assert volume.m == 21 and np.count_nonzero(volume._spin_weights) == 20
        assert solver.m == 21 and np.count_nonzero(solver._spin_weights) == 1
        uncharged = GyroSolver(DensityProfile.volume(0.0, 1.0), DensityProfile.volume(MASS, 1.0),
                               r_max=4.0)
        assert uncharged.m == 1 and not np.any(uncharged._spin_weights)
        rng = np.random.default_rng(7)
        zeros = np.zeros(volume.n)
        origin = zeros.copy()
        origin[0] = -0.0
        cases = [(volume, perturbed_state(volume).w), (volume, stepped_state(volume).pi),
                 (volume, rng.normal(size=volume.n)), (volume, zeros), (volume, -zeros),
                 (volume, origin), (volume, -origin),
                 (solver, perturbed_state(solver).w), (solver, stepped_state(solver).pi),
                 (solver, rng.normal(size=solver.n)), (solver, zeros), (solver, -zeros),
                 (uncharged, rng.normal(size=volume.n)), (uncharged, -zeros)]
        for s, w in cases:
            got = np.float64(s.field_spin_support(w)).tobytes()
            assert got == np.float64(sequential_spin_sum(s, w)).tobytes()
            assert got == s.field_spin_support(w[None])[0].tobytes()
        block = rng.normal(size=(6, volume.n)) * 10.0 ** rng.integers(-3, 4, size=(6, 1))
        got = volume.field_spin_support(block)
        assert got.shape == (6,)
        assert got.tobytes() == sequential_spin_sum(volume, block).tobytes()

    @pytest.mark.parametrize("omega3", [[0.1, 0.0, 0.3], [0.0, -0.2, 0.3], [1e-300, 0.0, 0.0]])
    def test_make_state_refuses_an_omega_off_the_z_axis(self, solver, omega3):
        with pytest.raises(ValueError, match="z axis"):
            solver.make_state(np.array(omega3))

    @pytest.mark.parametrize("omega", [1.2, -1.0])
    def test_make_state_refuses_a_superluminal_omega(self, volume, omega):
        with pytest.raises(ValueError, match=re.escape(
                "omega R must be finite and lie strictly between -1 and 1 (equatorial speed "
                f"below c = 1), got |omega| R = {abs(omega):g}")):
            volume.make_state(np.array([0.0, 0.0, omega]))

    def test_make_state_carries_the_z_amplitudes(self, volume):
        state = volume.make_state(np.array([0.0, 0.0, -0.3]), scale=0.5)
        assert isinstance(state.sb, float) and isinstance(state.omega, float)
        assert state.omega == -0.3 and state.w.shape == state.pi.shape == (volume.n,)
        # sigma(|omega|) along omega, in that order of operations
        assert state.sb == volume.curve.sigma(0.3) * -0.3 / 0.3
        assert state.sb == pytest.approx(-volume.curve.sigma(0.3), rel=1e-15)
        assert state.w.tobytes() == (0.5 * volume.stationary_profile(-0.3)).tobytes()

    @pytest.mark.parametrize("start", [None, 0.25])
    def test_omega_of_sb_same_bits_for_a_float_and_its_vector(self, volume, start):
        for sb in (0.3, -0.3, 1e-7, -0.21, 0.0, 0.5 * volume.curve.sigma_cap):
            got = volume.omega_of_sb(sb, start)
            vec = volume.omega_of_sb(np.array([0.0, 0.0, sb]), start)
            assert isinstance(got, float) and vec.shape == (3,)
            assert np.float64(got).tobytes() == vec[2].tobytes()
            assert vec[0] == vec[1] == 0.0


class TestSupportStepper:
    """A step pays for one laplacian of the grid plus work on the first m
    nodes, and gives the full-grid stepper's numbers bit for bit."""

    @pytest.mark.parametrize("lead", [(), (4,)])
    def test_laplacian_matches_node_loop(self, solver, lead):
        w = np.random.default_rng(3).normal(size=(*lead, solver.n))
        out = np.empty_like(w)
        got = solver.laplacian(w, out, np.empty_like(w[..., 1:]))
        assert got is out
        np.testing.assert_array_equal(got, node_loop_laplacian(solver, w))
        np.testing.assert_array_equal(got[..., -1], 0.0)

    @pytest.mark.parametrize("kind", ["shell", "volume"])
    @pytest.mark.parametrize("dr", [1.0 / 20.0, 0.143])     # 0.143 snaps to R/7
    def test_support_size_is_exact(self, kind, dr):
        fe = getattr(DensityProfile, kind)(-1.0, 1.0)
        s = GyroSolver(fe, getattr(DensityProfile, kind)(MASS, 1.0), dr=dr)
        assert s.fe_nodes[s.m - 1] != 0
        np.testing.assert_array_equal(s.fe_nodes[s.m:], 0.0)
        assert s.m <= int(round(fe.R / s.dr)) + 1 < s.n

    def test_carried_laplacian_equals_a_fresh_one(self, solver):
        dt = solver.cfl_dt()
        state = stepped_state(solver, steps=3)
        assert state.lap is not None
        before = [x.copy() for x in (state.w, state.pi, state.lap)]
        carried = solver.step(state, dt)
        fresh = solver.step(dataclasses.replace(state, lap=None), dt)
        for x, y in zip((state.w, state.pi, state.lap), before):
            assert x.tobytes() == y.tobytes()     # step advances copies
        for field in dataclasses.fields(GyroEvolutionState):
            np.testing.assert_array_equal(getattr(carried, field.name),
                                          getattr(fresh, field.name), err_msg=field.name)

    def test_run_matches_the_full_grid_stepper(self):
        fe, fm = DensityProfile.volume(-1.0, 1.0), DensityProfile.volume(MASS, 1.0)
        s = GyroSolver(fe, fm, r_max=200.0)
        state = perturbed_state(s)
        horizon = 40 * s.cfl_dt()
        traj = s.run(state, horizon)
        ref = full_grid_run(s, state, horizon)
        assert len(traj.t) >= 40 and np.ptp(traj.flux) > 0
        for key, value in ref.items():
            np.testing.assert_array_equal(getattr(traj, key), value, err_msg=key)

    @pytest.mark.parametrize("n_steps", [1, 2, 78, 79, 80])
    def test_run_matches_the_full_grid_stepper_at_the_window_edge(self, n_steps):
        """On n = 161 nodes with i_audit = 80 the run steps the leading
        min(n, n_steps + 82) nodes.  78, 79 and 80 steps put that width at
        n - 1, n and n + 1.  The error of a window too narrow shrinks like
        (c dt / dr)^t at the edge of its cone, below round-off after many
        steps, so 1 and 2 steps are where a width one node short shows."""
        fe, fm = DensityProfile.volume(-1.0, 1.0), DensityProfile.volume(MASS, 1.0)
        s = GyroSolver(fe, fm, r_max=8.0)
        assert s.n == 161
        state = perturbed_state(s)
        horizon = (n_steps - 0.5) * s.cfl_dt()
        traj = s.run(state, horizon)
        ref = full_grid_run(s, state, horizon)
        assert len(traj.t) == n_steps + 1 and traj.r_audit == s.r[80]
        for key, value in ref.items():
            np.testing.assert_array_equal(getattr(traj, key), value, err_msg=key)

    @pytest.mark.parametrize("grid", ["solver", "volume_far"])
    def test_run_steps_the_domain_of_dependence(self, grid, request, monkeypatch):
        if grid == "solver":
            s = request.getfixturevalue("solver")
        else:
            s = GyroSolver(DensityProfile.volume(-1.0, 1.0), DensityProfile.volume(MASS, 1.0),
                           r_max=200.0)
        widths = []
        laplacian = GyroSolver.laplacian

        def counted(self, w, out, flux):
            widths.append(w.shape[-1])
            return laplacian(self, w, out, flux)

        monkeypatch.setattr(GyroSolver, "laplacian", counted)
        traj = s.run(perturbed_state(s), 1.0)
        i_audit, n_steps = int(round(traj.r_audit / s.dr)), len(traj.t) - 1
        k = min(s.n, i_audit + n_steps + 2)
        assert (k == s.n) == (grid == "solver")
        assert widths == [k] * (n_steps + 1)

    @pytest.mark.parametrize("kind", ["shell", "volume"])
    @pytest.mark.parametrize("r_max", [4.0, 200.0], ids=["full_grid", "windowed"])
    def test_batched_records_match_each_state(self, kind, r_max):
        """300 steps span two diagnostics blocks; each column of the run
        against the diagnostics of the full-grid stepper's state, one at
        a time: t, omega and s_b bit for bit, since run takes step's steps
        in place."""
        fe = getattr(DensityProfile, kind)(-1.0, 1.0)
        s = GyroSolver(fe, getattr(DensityProfile, kind)(MASS, 1.0), r_max=r_max)
        state = perturbed_state(s)
        dt = s.cfl_dt()
        traj = s.run(state, 299.5 * dt)
        i_audit = int(round(traj.r_audit / s.dr))
        assert len(traj.t) == 301 > gyrodynamics.RECORD_BLOCK
        assert (i_audit + 302 < s.n) == (r_max == 200.0)
        rows = []
        for i in range(len(traj.t)):
            if i:
                state = s.step(state, dt)
            rows.append((state.t, state.omega, state.sb, s.field_spin_support(state.w),
                         s.curve.mass(abs(state.omega)),
                         s.dynamic_energy_inside(state.w, state.pi, i_audit),
                         s.poynting_flux(state.w, state.pi, i_audit)))
        for key, ref in zip(("t", "omega", "sb", "se", "W_b", "W_field_inside", "flux"),
                            map(np.array, zip(*rows))):
            got = getattr(traj, key)
            assert got.shape == ref.shape and np.ptp(ref) > 0, key
            if key in ("t", "omega", "sb"):
                assert got.tobytes() == ref.tobytes(), key
            np.testing.assert_allclose(got, ref, rtol=0.0,
                                       atol=1e-14 * np.max(np.abs(ref)), err_msg=key)

    def test_run_calls_laplacian_once_per_step_and_once_more(self, solver, monkeypatch):
        calls = []
        laplacian = GyroSolver.laplacian

        def counted(self, w, out, flux):
            calls.append(w.shape)
            return laplacian(self, w, out, flux)

        monkeypatch.setattr(GyroSolver, "laplacian", counted)
        traj = solver.run(perturbed_state(solver), 1.0)
        steps = len(traj.t) - 1
        assert steps >= 10 and len(calls) == steps + 1


def cumsum_picard(s, state, horizon, gauss_seidel):
    """The Picard sweep on the whole grid, with np.cumsum over the time
    axis and fresh temporaries: the trapezoid integral from t = 0 as a zero
    row plus a cumulative sum of h (f[1:] + f[:-1]) / 2, added to the
    initial data.  Iteration j integrates pi from iterate j-1, and w and
    s_b from the pi of iterate j-1 (Jacobi order) or from the pi it has
    just integrated (Gauss-Seidel order).  Yields, per iteration, the
    iterate (w, pi, sb), its sup gaps to the one before, and each node's
    sup over time of the w and pi gaps, so that a test can take the gaps
    over any leading nodes.  Each omega_many starts at the |omega| that its
    chain inverted last, the state's at first: that of the iteration before
    in Gauss-Seidel order, and of the one before that in Jacobi order, whose
    iterates from rest form two chains (see full_grid_sweep)."""
    dt = s.cfl_dt()
    nt = int(np.ceil(horizon / dt))
    steps = np.diff(np.linspace(0.0, nt * dt, nt + 1))
    w, pi = (np.repeat(x[None], nt + 1, axis=0) for x in (state.w, state.pi))
    sb = np.full(nt + 1, state.sb)
    starts = [np.full(nt + 1, abs(state.omega))] * (1 if gauss_seidel else 2)

    def cumint(f):
        out = np.zeros_like(f)
        h = steps.reshape((-1,) + (1,) * (f.ndim - 1))
        np.cumsum(h * (f[1:] + f[:-1]) / 2.0, axis=0, out=out[1:])
        return out

    rn2 = s.r[-1] ** 2
    while True:
        omega = s.omega_many(sb, starts.pop(0))
        starts.append(np.abs(omega))
        rhs_pi = s._accel(w, omega)
        a, b = s._outgoing(w[:, -2], w[:, -1], pi[:, -2])
        rhs_pi[:, -1] = a * pi[:, -1] + b / rn2
        new_pi = state.pi[None] + cumint(rhs_pi)
        rate = new_pi if gauss_seidel else pi
        new = (state.w[None] + cumint(rate), new_pi, state.sb + cumint(s.torque(rate)))
        gaps = [float(np.max(np.abs(x - y))) for x, y in zip(new, (w, pi, sb))]
        node_gaps = [np.max(np.abs(x - y), axis=0) for x, y in zip(new[:2], (w, pi))]
        w, pi, sb = new
        yield new, gaps, node_gaps


def full_grid_sweep(s, state, n_max, horizon, stop_gap=0.0):
    """picard_iterate's sweep on the whole grid, from cumsum_picard.  From
    rest (pi = 0) the Jacobi iterates form two chains, one a copy of the
    other one iteration late, and on the nodes that a window k < n has
    exact iteration i is the Jacobi iterate 2i for w, s_b and their gaps,
    and 2i - 1 for pi and its gap.  The chains part at the full grid's
    outer node, whose outgoing law reads the last iterate's own pi, by
    round-off of the static tail.  So from a moving start, or when the
    sweep spans the grid, iteration i is the Gauss-Seidel iterate i.  The
    sweep stops at the first iteration whose largest gap is below
    stop_gap."""
    dt = s.cfl_dt()
    nt = int(np.ceil(horizon / dt))
    jacobi = not state.pi.any() and picard_width(s, state, n_max) < s.n
    sweep = cumsum_picard(s, state, horizon, gauss_seidel=not jacobi)
    gaps, node_gaps, converged = [], [], False
    for _ in range(n_max):
        (w, pi, sb), gap, node_gap = next(sweep)
        if jacobi:
            (w, _, sb), even_gap, even_node_gap = next(sweep)
            gap, node_gap = [even_gap[0], gap[1], even_gap[2]], [even_node_gap[0], node_gap[1]]
        gaps.append(gap)
        node_gaps.append(node_gap)
        if max(gap) < stop_gap:
            converged = True
            break
    gaps_w, gaps_pi, gaps_sb = np.array(gaps).T
    node_gaps_w, node_gaps_pi = (np.array(x) for x in zip(*node_gaps))
    return dict(times=np.linspace(0.0, nt * dt, nt + 1), gaps_w=gaps_w, gaps_pi=gaps_pi,
                gaps_sb=gaps_sb, n_iter=len(gaps), w=w, pi=pi, sb=sb, converged=converged,
                node_gaps_w=node_gaps_w, node_gaps_pi=node_gaps_pi)


def picard_width(s, state, n_max):
    """The leading nodes that picard_iterate sweeps: the p nodes where the
    initial data moves (m, or one past the last rate that is not 0) and
    2 n_max + 2 more."""
    moving = np.flatnonzero(state.pi)
    p = max(s.m, moving[-1] + 1 if moving.size else 0)
    return min(s.n, p + 2 * n_max + 2)


def peaks(gaps_w, gaps_pi, gaps_sb):
    """Each iteration's largest gap, which the CLI's verdict reads."""
    return np.max([gaps_w, gaps_pi, gaps_sb], axis=0)


def assert_matches_the_full_grid_sweep(s, state, res, ref, n_max, peak=True):
    """res of picard_iterate against cumsum_picard's full-grid sweep ref:
    times, s_b, its gaps, n_iter and converged bit for bit, and (with peak)
    each iteration's largest gap; the w and pi gaps of iteration i bit for
    bit over the leading k - i nodes that a window k < n has exact (all n
    when k = n), and w and pi on the k - n_iter nodes the last iterate has
    exact, which are all that it returns."""
    k = picard_width(s, state, n_max)
    for key in ("times", "sb", "gaps_sb"):
        assert getattr(res, key).tobytes() == ref[key].tobytes(), key
    assert (res.n_iter, res.converged) == (ref["n_iter"], ref["converged"])
    if peak:
        got = peaks(res.gaps_w, res.gaps_pi, res.gaps_sb)
        assert got.tobytes() == peaks(ref["gaps_w"], ref["gaps_pi"], ref["gaps_sb"]).tobytes()
    zones = [k if k == s.n else k - i for i in range(1, res.n_iter + 1)]
    for key in ("w", "pi"):
        zone_gaps = np.array([row[:z].max() for row, z in zip(ref["node_gaps_" + key], zones)])
        assert getattr(res, "gaps_" + key).tobytes() == zone_gaps.tobytes(), key
        exact = zones[-1]
        assert getattr(res, key).shape == (len(res.times), exact), key
        assert getattr(res, key).tobytes() == ref[key][:, :exact].tobytes(), key


def swept_widths(monkeypatch):
    """The node counts of the histories that each laplacian call sees."""
    widths = []
    laplacian = GyroSolver.laplacian

    def counted(self, w, out, flux):
        widths.append(w.shape[-1])
        return laplacian(self, w, out, flux)

    monkeypatch.setattr(GyroSolver, "laplacian", counted)
    return widths


def picard_case(name):
    """(solver, state, picard_iterate arguments) of one oracle case."""
    shell = GyroSolver(FE, FM)                       # the gyro-sim default grid
    cli_state = shell.make_state(np.array([0.0, 0.0, 0.3]))
    if name == "converging_shell":
        s = GyroSolver(FE, FM, r_max=40.0)
        return s, perturbed_state(s), dict(n_max=80, horizon=0.15, stop_gap=1e-12)
    if name == "volume":
        s = GyroSolver(DensityProfile.volume(-1.0, 1.0), DensityProfile.volume(MASS, 1.0))
        return s, perturbed_state(s, -0.3), dict(n_max=80, horizon=0.15, stop_gap=1e-12)
    if name == "two_rows":
        return shell, cli_state, dict(n_max=3, horizon=0.5 * shell.cfl_dt())
    if name == "diverging":
        return shell, cli_state, dict(n_max=40, horizon=1.0)
    # a rate that is not finite just outside the support, which widens the
    # sweep by 6 nodes: inf and NaNs of both signs run through the field
    # sums, one node further inward per iteration, while s_b stays finite
    pi = cli_state.pi.copy()
    m = shell.m
    pi[m + 3:m + 6] = [np.inf, -np.inf, np.nan]
    return shell, dataclasses.replace(cli_state, pi=pi), dict(n_max=4, horizon=0.1)


PICARD_CASES = ["converging_shell", "volume", "two_rows", "diverging", "non_finite"]
# two_rows starts at rest on the stationary state, so every gap after the
# first is round-off; the full grid's largest (8.7e-21 and 1.3e-21, in pi)
# sits at its own outer node, whose outgoing law integrates the round-off
# residue of the static tail, outside any window.  So the window does not
# keep the largest gap of every iteration there.
ROUNDOFF_PEAK = pytest.mark.xfail(strict=True, reason="the full grid's largest gap is round-off "
                                  "at its own outer node, outside the window")


class TestPicardSweep:
    """picard_iterate sweeps the leading k = min(n, p + 2 n_max + 2) nodes,
    p those where the initial data moves, and keeps every bit of the
    full-grid sweep on the nodes it has exact."""

    @pytest.mark.parametrize("name", PICARD_CASES)
    def test_matches_the_cumsum_sweep_bit_for_bit(self, name):
        s, state, kwargs = picard_case(name)
        with np.errstate(all="ignore"):
            ref = full_grid_sweep(s, state, **kwargs)
            res = s.picard_iterate(state, **kwargs)
        assert picard_width(s, state, kwargs["n_max"]) < s.n
        # the largest gap of each iteration: test_keeps_each_iteration_s_largest_gap
        assert_matches_the_full_grid_sweep(s, state, res, ref, kwargs["n_max"], peak=False)
        gaps = np.array([res.gaps_w, res.gaps_pi, res.gaps_sb])
        if name == "converging_shell":
            assert res.converged and res.n_iter < kwargs["n_max"]
        if name == "two_rows":
            assert len(res.times) == 2
            assert res.gaps_pi[0] == ref["gaps_pi"][0] > 0.0
            assert np.all(gaps[:, 1:] == 0.0) and 0.0 < ref["gaps_pi"][1:].max() < 1e-20
            assert ref["node_gaps_pi"][1:, :-1].max() == 0.0
        if name == "diverging":
            assert np.all(np.isfinite(gaps)) and gaps[:, -1].max() > 1e10 * gaps[:, 0].max()
        if name == "non_finite":
            nan = res.w[np.isnan(res.w)]
            assert np.signbit(nan).any() and not np.signbit(nan).all()
            assert np.isinf(res.pi).any() and np.all(np.isfinite(res.sb))
            assert np.isnan(gaps[:2]).all() and np.all(np.isfinite(res.gaps_sb))

    @pytest.mark.parametrize("name", [pytest.param(name, marks=ROUNDOFF_PEAK)
                                      if name == "two_rows" else name for name in PICARD_CASES])
    def test_keeps_each_iteration_s_largest_gap(self, name):
        s, state, kwargs = picard_case(name)
        with np.errstate(all="ignore"):
            ref = full_grid_sweep(s, state, **kwargs)
            res = s.picard_iterate(state, **kwargs)
        got = peaks(res.gaps_w, res.gaps_pi, res.gaps_sb)
        assert got.tobytes() == peaks(ref["gaps_w"], ref["gaps_pi"], ref["gaps_sb"]).tobytes()

    @pytest.mark.parametrize("n_max", [1, 2])
    @pytest.mark.parametrize("kind", ["shell", "volume"])
    def test_one_and_two_iterations_match_the_full_grid(self, kind, n_max):
        s = GyroSolver(getattr(DensityProfile, kind)(-1.0, 1.0),
                       getattr(DensityProfile, kind)(MASS, 1.0))
        state = perturbed_state(s)
        ref = full_grid_sweep(s, state, n_max, 0.15)
        res = s.picard_iterate(state, n_max, 0.15)
        assert picard_width(s, state, n_max) == s.m + 2 * n_max + 2 < s.n
        assert_matches_the_full_grid_sweep(s, state, res, ref, n_max)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_window_edge_matches_the_full_grid(self, offset):
        """m + 2 n_max + 2 = 31 nodes at n_max = 4 on grids of n = 31 + offset:
        the sweep's width lands on n - 1 (a window of one node less), n and
        n + 1 (both the whole grid)."""
        s = GyroSolver(FE, FM, r_max=(30 + offset) / 20.0)
        assert s.m + 2 * 4 + 2 == 31 and s.n == 31 + offset
        state = perturbed_state(s)
        ref = full_grid_sweep(s, state, 4, 0.1)
        res = s.picard_iterate(state, 4, 0.1)
        assert res.w.shape[1] == (s.n if s.n <= 31 else 31 - res.n_iter)
        assert_matches_the_full_grid_sweep(s, state, res, ref, 4)

    @pytest.mark.parametrize("name, beyond", [("converging_shell", 0), ("diverging", 0),
                                              ("two_rows", 0), ("non_finite", 6)])
    def test_sweeps_the_domain_of_influence(self, name, beyond, monkeypatch):
        """m + 2 n_max + 2 nodes from a state at rest outside the support,
        and as many more as the rate reaches beyond it."""
        s, state, kwargs = picard_case(name)
        widths = swept_widths(monkeypatch)
        with np.errstate(all="ignore"):
            res = s.picard_iterate(state, **kwargs)
        assert widths == [min(s.n, s.m + beyond + 2 * kwargs["n_max"] + 2)] * res.n_iter

    def test_a_rate_beyond_the_support_widens_the_sweep(self, monkeypatch):
        s = GyroSolver(FE, FM, r_max=40.0)
        pi = np.zeros(s.n)
        pi[s.m + 30] = 1e-3
        state = dataclasses.replace(perturbed_state(s), pi=pi)
        ref = full_grid_sweep(s, state, 6, 0.15)
        widths = swept_widths(monkeypatch)
        res = s.picard_iterate(state, 6, 0.15)
        assert widths == [s.m + 31 + 2 * 6 + 2] * 6
        assert_matches_the_full_grid_sweep(s, state, res, ref, 6)

    def test_a_stepped_state_is_swept_on_the_whole_grid(self, monkeypatch):
        """step leaves a rate of round-off out to the outer node."""
        s = GyroSolver(FE, FM)
        state = stepped_state(s)
        assert state.pi[-1] != 0.0
        ref = full_grid_sweep(s, state, 4, 0.1)
        widths = swept_widths(monkeypatch)
        res = s.picard_iterate(state, 4, 0.1)
        assert widths == [s.n] * 4
        assert_matches_the_full_grid_sweep(s, state, res, ref, 4)
        for key in ("gaps_w", "gaps_pi", "w", "pi"):
            assert getattr(res, key).tobytes() == ref[key].tobytes(), key

    def test_warm_started_rows_average_at_most_2_5_kernel_calls(self, monkeypatch):
        """Each row's inversion starts at the |omega| that the last
        iteration inverted there: 2.04 kernel passes a row in the converging
        shell case, where a cold start took 4.0."""
        s, state, kwargs = picard_case("converging_shell")
        s.curve.sigma_cap
        calls = []
        kernel = bare_particle.spin_kernel
        monkeypatch.setattr(bare_particle, "spin_kernel",
                            lambda b: calls.append(1) or kernel(b))
        res = s.picard_iterate(state, **kwargs)
        assert res.converged
        assert len(calls) <= 2.5 * res.n_iter * len(res.times)

    def test_no_iteration_from_rest_repeats_the_last(self):
        """w and s_b come from the pi of the same iteration, so from rest
        (pi = 0) no gap is 0 before the stop."""
        s, state, kwargs = picard_case("converging_shell")
        res = s.picard_iterate(state, **kwargs)
        assert res.converged and not state.pi.any()
        assert np.all(np.array([res.gaps_w, res.gaps_pi, res.gaps_sb]) > 0.0)

    def test_leaves_the_state_alone_and_returns_fresh_arrays(self):
        s = GyroSolver(FE, FM)
        state = stepped_state(s)
        before = [x.copy() for x in (state.w, state.pi)]
        res = s.picard_iterate(state, n_max=3, horizon=0.1)
        for x, y in zip((state.w, state.pi), before):
            assert x.tobytes() == y.tobytes()
        for out in (res.w, res.pi, res.sb):
            for x in (state.w, state.pi, state.lap):
                assert not np.shares_memory(out, x)
        assert not np.shares_memory(res.w, res.pi)

    @pytest.mark.parametrize("kwargs, word", [
        (dict(n_max=4, horizon=0.0), "horizon"),
        (dict(n_max=4, horizon=-0.5), "horizon"),
        (dict(n_max=4, horizon=float("nan")), "horizon"),
        (dict(n_max=4, horizon=float("inf")), "horizon"),
        (dict(n_max=0, horizon=0.1), "n_max"),
        (dict(n_max=-2, horizon=0.1), "n_max"),
    ])
    def test_rejects_a_horizon_or_iteration_count_that_is_not_positive(self, solver, kwargs,
                                                                         word):
        with pytest.raises(ValueError, match=word):
            solver.picard_iterate(perturbed_state(solver), **kwargs)


class TestLinearResponse:
    """The exact linear response of the shell and of the ball.  Kick the
    bare spin of the stationary state at omega by dS and keep the field:
    s_b + s_e stays S + dS, and the Laplace transform of d omega(t) =
    omega(t) - omega is

        d omega^(s) / dS = H(s) = 1 / (s [sigma'(omega) + F(s)]),

    with F(s) = (2 s / 3) int int rho(r) rho(r') r^3 r'^3 i_1(s r<) k_1(s r>)
    dr dr' (c = 1, rho = 4 pi f_e), i_1(x) = (x cosh x - sinh x) / x^2 and
    k_1(x) = e^-x (1/x + 1/x^2) the regular and outgoing l = 1 radial
    functions (their Wronskian is -1/x^2).  On the shell F = (2 q^2 R / 3)
    x i_1(x) k_1(x), x = s R.  On the ball, rho = 3 q / R^3, the inner
    integral is r^3 i_2(s r) / s, so F = (4 rho^2 / 3) int_0^R r^6 k_1(s r)
    i_2(s r) dr.  As s -> 0, F tends to the static field-spin coefficients
    (2/9) q^2 R and (4/35) q^2 R.  sigma' is the mpmath derivative of the
    shell's closed form, or of the ball's integral over shells of mass
    3 m r^2 dr / R^3.  The run stops at 17 R/c, before a wave reflected at
    r_max = 10 R could return to the support, and its trapezoid transform
    must converge to H at second order in dr: at R/20 the errors are about
    3e-4 (shell) and 1e-4, 4e-5, 3.5e-4 (ball) at s = 1, 2 and 4."""

    OMEGA, KICK, HORIZON, S = 0.3, 1e-6, 17.0, (1.0, 2.0, 4.0)

    @staticmethod
    def spin(kind, omega):
        """|s_b|(omega) at the working precision."""
        if kind == "shell":
            return shell_spin(omega, None)

        def shell(r):
            b = omega * r
            return 3 * MASS * r**3 / FM.R**3 * ((1 + b**2) / (2 * b**2) * mp.atanh(b) - 1 / (2 * b))

        return mp.quad(shell, [0, FM.R])

    @classmethod
    def transfer(cls, kind, s, omega):
        with mp.workdps(30):
            slope = mp.diff(lambda w: cls.spin(kind, w), mp.mpf(omega))
            x = mp.mpf(s) * FE.R
            if kind == "shell":
                i1 = (x * mp.cosh(x) - mp.sinh(x)) / x**2
                k1 = mp.exp(-x) * (1 / x + 1 / x**2)
                field = 2 * FE.total**2 * FE.R / 3 * x * i1 * k1
            else:
                def i2k1(z):   # i_2 through I_{5/2}, which does not cancel at small z
                    return mp.sqrt(mp.pi / (2 * z)) * mp.besseli(2.5, z) * mp.exp(-z) * (1 / z + 1 / z**2)

                rho = 3 * FE.total / FE.R**3
                field = 4 * rho**2 / 3 * mp.quad(lambda r: r**6 * i2k1(s * r), [0, FE.R])
            return float(1 / (mp.mpf(s) * (slope + field)))

    @pytest.fixture(scope="class", params=["shell", "volume"])
    def errors(self, request):
        """Relative error of the transform at each s, per cells per R."""
        kind, out = request.param, {}
        for cells in (20, 40, 80):
            s = GyroSolver(DensityProfile(kind, FE.total, FE.R), DensityProfile(kind, MASS, FM.R),
                           dr=1.0 / cells, r_max=10.0)
            state = s.make_state(np.array([0.0, 0.0, self.OMEGA]))
            d_s = self.KICK * state.sb
            sb = state.sb + d_s
            state = dataclasses.replace(state, sb=sb, omega=s.omega_of_sb(sb))
            traj = s.run(state, self.HORIZON)
            d_omega = traj.omega - self.OMEGA
            out[cells] = np.array([
                abs(np.trapezoid(np.exp(-x * traj.t) * d_omega, traj.t) / d_s
                    / self.transfer(kind, x, self.OMEGA) - 1.0) for x in self.S])
        return out

    @pytest.mark.parametrize("kind, static", [("shell", 2.0 / 9.0), ("volume", 4.0 / 35.0)],
                             ids=["shell", "volume"])
    def test_field_term_tends_to_the_static_field_spin(self, kind, static):
        # s H(s) -> 1 / (sigma' + F(0)), F(0) the static coefficient; F(s)
        # - F(0) is O(s^2)
        slope = float(mp.diff(lambda w: self.spin(kind, w), mp.mpf(self.OMEGA)))
        got = 1e-7 * self.transfer(kind, 1e-7, self.OMEGA)
        assert got == pytest.approx(1.0 / (slope + static * FE.total**2 * FE.R), rel=1e-12)

    def test_transform_matches_the_transfer_function_at_the_default_grid(self, errors):
        assert np.all(errors[20] < 1e-3), errors[20]

    def test_transform_converges_at_second_order(self, errors):
        for coarse, fine in ((20, 40), (40, 80)):
            assert np.all(errors[coarse] >= 3.5 * errors[fine]), (errors[coarse], errors[fine])


class TestSecondOrderCoupling:
    """kappa, the field spin of the discrete stationary mode per unit omega,
    against its closed form (2/9) q^2 R (shell) and (4/35) q^2 R (ball).
    With the ball's node at R at half weight, the trapezoid end, both are
    second order in dr: kappa / closed - 1 is -5.0e-3, -1.2e-3, -3.1e-4,
    -7.8e-5, -1.9e-5 (shell) and 7.8e-3, 1.9e-3, 4.8e-4, 1.2e-4, 3.0e-5
    (ball) at R/10 to R/160, ratios 3.98-4.09 per halving."""

    CELLS = (10, 20, 40, 80, 160)

    @staticmethod
    def solver(kind, cells):
        return GyroSolver(DensityProfile(kind, FE.total, 1.0), DensityProfile(kind, MASS, 1.0),
                          dr=1.0 / cells)

    @pytest.mark.parametrize("kind, closed", [("shell", 2.0 / 9.0), ("volume", 4.0 / 35.0)])
    def test_kappa_converges_to_its_closed_form_at_second_order(self, kind, closed):
        errors = []
        for cells in self.CELLS:
            s = self.solver(kind, cells)
            kappa = float(s.field_spin_support(s.stationary_profile(1.0)))
            errors.append(abs(kappa / (closed * FE.total**2 * FE.R) - 1.0))
        assert errors[1] <= 2.5e-3
        assert all(a >= 3.5 * b for a, b in zip(errors, errors[1:])), errors

    @pytest.mark.parametrize("kind", ["shell", "volume"])
    def test_omega_inf_of_the_default_relax_converges_at_second_order(self, kind):
        # ratios 3.97-4.11 of successive differences; the ball reads
        # 0.2824220 at R/20, and 0.2820495 with a full weight at R
        omega_inf = []
        for cells in self.CELLS:
            s = self.solver(kind, cells)
            omega_inf.append(s.predicted_equilibrium(s.make_state(np.array([0.0, 0.0, 0.3]), 0.5)))
        steps = np.abs(np.diff(omega_inf))
        assert np.all(steps[:-1] >= 3.5 * steps[1:]), steps


def _gyro_sim(tmp_path, *flags):
    rc = cli.main(["gyro-sim", *flags, "--out-dir", str(tmp_path)])
    assert rc == cli.EXIT_OK
    return (json.loads((tmp_path / "relaxation_fit.json").read_text()),
            json.loads((tmp_path / "energy_audit.json").read_text()))


class TestRelaxRun:
    def test_matches_recorded_time_series(self, tmp_path):
        _gyro_sim(tmp_path, "--horizon", "1", "--perturb", "0.5")

        def load(path):
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
            return rows[0], np.array(rows[1:], dtype=float)

        head_ref, ref = load(DATA / "gyro_sim_shell_h1_p05_timeseries.csv")
        head, new = load(tmp_path / "timeseries.csv")
        assert head == head_ref and new.shape == ref.shape
        # The outgoing wave reaches the audit sphere at 4 R only at 3 R/c,
        # after this horizon, so the recorded flux is round-off (max 3.1e-19)
        # and a difference from it is noise against noise: the new flux must
        # stay at that round-off level instead.
        j_flux = head.index("flux")
        floor = np.max(np.abs(ref[:, j_flux]))
        assert np.max(np.abs(new[:, j_flux])) <= 4.0 * floor
        # The file is this stepper's own output, so the other columns must
        # match it to round-off.
        for j, name in enumerate(head):
            if j != j_flux:
                scale = np.max(np.abs(ref[:, j]))
                assert np.max(np.abs(new[:, j] - ref[:, j])) <= 1e-14 * scale, name

    def test_unperturbed_run_settles_at_its_omega_with_nothing_to_normalize(self, tmp_path):
        # --perturb 1 starts on the discrete stationary state
        fit, audit = _gyro_sim(tmp_path, "--horizon", "3", "--r-max-over-R", "4",
                               "--perturb", "1")
        assert sorted(fit) == ["converged", "omega_inf"]
        assert fit["converged"] is True
        assert fit["omega_inf"] == pytest.approx(0.3, rel=1e-14)
        assert audit["normalized_defect"] is None
        assert abs(audit["cumulative_defect"]) < 1e-14

    def test_perturbed_run_settles_at_the_predicted_equilibrium(self, tmp_path):
        # its tail of 2 R/c misses omega_inf by at most 2.1e-3 relative
        fit, audit = _gyro_sim(tmp_path, "--horizon", "5", "--r-max-over-R", "4",
                               "--perturb", "0.5")
        s = GyroSolver(FE, FM, dr=1.0 / 20, r_max=4.0)
        omega_inf = s.predicted_equilibrium(s.make_state(np.array([0.0, 0.0, 0.3]), 0.5))
        assert fit == {"converged": True, "omega_inf": omega_inf}
        assert 0 < audit["normalized_defect"] < 1e-2

    @pytest.mark.parametrize("horizon", ["1", "3"])
    def test_run_still_ringing_has_not_converged(self, tmp_path, horizon):
        # the tail misses omega_inf by up to 7.0e-2 (1 R/c) and 2.8e-2 (3 R/c)
        # relative; at 3 R/c the last record alone is within 1.7e-3
        fit, _ = _gyro_sim(tmp_path, "--horizon", horizon, "--perturb", "0.5")
        assert fit["converged"] is False
