"""Oracle tests of the fixed-center gyration stepper: the closed-form shell
gyration curve along a run, the support-spin invariant, the discrete
stationary fixed point, the CFL guard, the stationary operator bands, the
spin coupling on a tilted axis against node-by-node sums, Picard against
the stepper, round-off verdicts of the relax run and a recorded relax time
series."""

import csv
import json
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from scipy.linalg import solve_banded

from ledlab import cli
from ledlab.bare_particle import DensityProfile
from ledlab.gyrodynamics import CFLError, GyroEvolutionState, GyroSolver

DATA = Path(__file__).parent / "data"
MASS = 2.0
FE = DensityProfile.shell(-1.0, 1.0)
FM = DensityProfile.shell(MASS, 1.0)


@pytest.fixture(scope="module")
def solver():
    return GyroSolver(FE, FM, r_max=4.0)


@pytest.fixture(scope="module")
def perturbed(solver):
    state = solver.make_state(np.array([0.0, 0.0, 0.3]), scale=0.5)
    return solver.run(state, 3.0)


def shell_spin(omega):
    """|s_b| = m c R beta K(beta) of the shell (c = 1), in mpmath."""
    with mp.workdps(40):
        b = mp.mpf(float(omega)) * FM.R
        return float(MASS * FM.R * ((1 + b**2) / (2 * b**2) * mp.atanh(b) - 1 / (2 * b)))


def node_sum_torque(solver, w, pi, omega):
    """(2/3c) sum_i W_i r_i^2 (omega x w_i - pi_i), node by node."""
    out = np.zeros(3)
    for f, r, w_i, pi_i in zip(solver.fe_nodes, solver.r, w, pi):
        out += f * 4.0 * np.pi * r**2 * solver.dr * r**2 * (np.cross(omega, w_i) - pi_i)
    return (2.0 / (3.0 * solver.c)) * out


def tilted_state(solver):
    """A state whose field and rate are not parallel to omega, so that the
    omega x w term of the torque does not vanish."""
    omega = np.array([0.1, -0.2, 0.3])
    w = 0.5 * solver.stationary_profile(np.array([0.3, 0.1, -0.2]))
    pi = 0.2 * solver.stationary_profile(np.array([-0.1, 0.2, 0.1]))
    return GyroEvolutionState(w, pi, solver.make_state(omega).sb, omega)


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
        assert np.ptp(perturbed.omega[:, 2]) > 1e-3      # the run does move
        for om, sb in zip(perturbed.omega, perturbed.sb):
            assert np.linalg.norm(sb) == pytest.approx(
                shell_spin(np.linalg.norm(om)), rel=1e-12)

    def test_support_spin_conserved(self, perturbed):
        total = np.linalg.norm(perturbed.sb + perturbed.se, axis=1)
        assert np.max(np.abs(total - total[0])) <= 1e-15 * total[0]

    def test_stationary_state_is_fixed_point(self, solver):
        state = solver.make_state(np.array([0.1, -0.2, 0.25]))
        s = state
        for _ in range(40):
            s = solver.step(s, solver.cfl_dt())
        scale = np.max(np.abs(state.w))
        assert np.max(np.abs(s.w - state.w)) <= 1e-14 * scale
        assert np.max(np.abs(s.pi)) <= 1e-13 * scale
        np.testing.assert_allclose(s.sb, state.sb, rtol=1e-15)
        np.testing.assert_allclose(s.omega, state.omega, rtol=1e-14)

    def test_cfl_guard(self, solver):
        state = solver.make_state(np.array([0.0, 0.0, 0.3]))
        solver.step(state, solver.cfl_limit)
        with pytest.raises(CFLError):
            solver.step(state, 1.001 * solver.cfl_limit)

    def test_cap_is_hard_in_the_stepper_and_saturates_histories(self, solver):
        sb = np.array([[0.0, 0.0, 0.5], [0.0, 6.0, 8.0]])   # |s| = 10 is beyond the cap
        with pytest.raises(ValueError):
            solver.omega_of_sb(sb[1])
        om = solver.omega_many(sb)
        np.testing.assert_allclose(om[1], [0.0, 0.6 * 0.999, 0.8 * 0.999], rtol=1e-15)
        assert np.linalg.norm(om[0]) == pytest.approx(solver.omega_of_sb(sb[0])[2], rel=1e-15)

    @pytest.mark.parametrize("kind, r_max", [("shell", 10.0), ("volume", 37.0)])
    def test_stationary_bands_match_node_loop(self, kind, r_max):
        fe = getattr(DensityProfile, kind)(-1.0, 1.0)
        fm = getattr(DensityProfile, kind)(MASS, 1.0)
        s = GyroSolver(fe, fm, r_max=r_max)
        rhs = -(4.0 * np.pi / s.c) * s.fe_nodes
        rhs[-1] = 0.0
        ref = solve_banded((1, 1), node_loop_bands(s), rhs)
        omega = np.array([0.0, 0.0, 1.0])
        np.testing.assert_array_equal(s.stationary_profile(omega)[:, 2], ref)

    def test_torque_on_tilted_axis_matches_node_sum(self, solver):
        state = tilted_state(solver)
        ref = node_sum_torque(solver, state.w, state.pi, state.omega)
        assert np.linalg.norm(np.cross(state.omega, state.w).sum(axis=0)) > 1e-2
        got = solver.torque(state.w, state.pi, state.omega)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.linalg.norm(ref)

    def test_step_spin_change_on_tilted_axis_matches_node_sum(self, solver):
        # conservative update: dt omega_half x s_e(w_mid) - s_e(w_new - w_old)
        state = tilted_state(solver)
        dt = solver.cfl_dt()
        new = solver.step(state, dt)
        om_half = solver.omega_of_sb(
            state.sb + 0.5 * dt * node_sum_torque(solver, state.w, state.pi, state.omega))
        ref = dt * node_sum_torque(solver, 0.5 * (state.w + new.w), (new.w - state.w) / dt,
                                   om_half)
        got = new.sb - state.sb
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.linalg.norm(ref)

    @pytest.mark.parametrize("tilted", [False, True])
    def test_picard_on_tilted_axis_converges_to_the_stepper(self, tilted):
        s = GyroSolver(FE, FM, r_max=10.0)
        omega = np.array([0.1, -0.2, 0.3])
        state = tilted_state(s) if tilted else s.make_state(omega, scale=0.5)
        res = s.picard_iterate(state, n_max=80, horizon=0.15, stop_gap=1e-12)
        assert res.converged
        ref = s.run(state, float(res.times[-1])).sb[-1]
        assert np.linalg.norm(res.sb[-1] - ref) <= 1e-3 * np.linalg.norm(ref)

    def test_predicted_equilibrium_solves_the_invariant(self, solver, perturbed):
        state = solver.make_state(np.array([0.0, 0.0, 0.3]), scale=0.5)
        w_inf = solver.predicted_equilibrium(state)
        kappa = solver.field_spin_support(solver.stationary_profile([0.0, 0.0, 1.0]))[2]
        s_tot = np.linalg.norm(state.sb + solver.field_spin_support(state.w))
        assert shell_spin(w_inf) + kappa * w_inf == pytest.approx(s_tot, rel=1e-14)


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
        for j, name in enumerate(head):
            tol = 1e-10 * np.max(np.abs(ref[:, j]))
            assert np.max(np.abs(new[:, j] - ref[:, j])) <= tol, name

    def test_unperturbed_run_has_nothing_to_fit_or_normalize(self, tmp_path):
        # --perturb 1 starts on the discrete stationary state
        fit, audit = _gyro_sim(tmp_path, "--horizon", "3", "--r-max-over-R", "4")
        assert fit["converged"] is True and fit["rate"] == 0.0
        assert fit["note"] == "no deviation to fit" and fit["log_residual"] is None
        assert fit["omega_inf"] == pytest.approx(0.3, rel=1e-14)
        assert audit["normalized_defect"] is None
        assert abs(audit["cumulative_defect"]) < 1e-14

    def test_perturbed_run_keeps_fit_and_normalized_defect(self, tmp_path):
        fit, audit = _gyro_sim(tmp_path, "--horizon", "5", "--r-max-over-R", "4",
                               "--perturb", "0.5")
        assert fit["note"] is None and fit["rate"] > 0
        assert 0 < audit["normalized_defect"] < 1e-2
