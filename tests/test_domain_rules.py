"""Each domain rule has one home, the library function that owns the
quantity, and refuses NaN and +-inf there with a one-line ValueError that
opens with the quantity's name (the name `cli.FLAGS` maps to a flag):

    omega R   _check_subluminal: stationary_state, make_state, gyrational_mass
    scale     GyroSolver.make_state
    horizon   GyroSolver.run and GyroSolver.picard_iterate
    dr, r_max GyroSolver.__init__ (dr also below 2 R, so that R sits on the
              grid, and R / dr and r_max / dr finite)
    mass      GyrationCurve
    m_b       renormflow.eta_of_mb, through flow_sweep
    |s_b + s_e| GyroSolver.predicted_equilibrium (beyond sigma(cap) + kappa cap)
"""

import numpy as np
import pytest

from ledlab import cli
from ledlab.bare_particle import DensityProfile, GyrationCurve, gyrational_mass
from ledlab.fields import stationary_state
from ledlab.gyrodynamics import GyroSolver
from ledlab.renormflow import eta_of_mb, flow_sweep

NAN, INF = float("nan"), float("inf")
FE = DensityProfile.shell(-1.0, 1.0)
FM = DensityProfile.shell(2.0, 1.0)


@pytest.fixture(scope="module")
def solver():
    return GyroSolver(FE, FM, r_max=3.0)


def refuses(name, call, *args, **kwargs):
    with pytest.raises(ValueError) as info:
        call(*args, **kwargs)
    msg = str(info.value)
    assert msg.startswith(name + " ") and "\n" not in msg, msg
    return msg


def test_every_name_a_stationary_or_gyro_sim_refusal_opens_with_has_a_flag():
    assert set(cli.FLAGS) == {"R", "total", "mass", "omega R", "scale", "horizon", "r_max",
                              "|s_b + s_e|"}
    assert all(flag.startswith("--") for flag in cli.FLAGS.values())


def test_predicted_equilibrium_refuses_a_spin_beyond_the_cap(solver):
    # the bound depends on --perturb, --omega-over-c, --mass and --charge,
    # and FLAGS names all four
    state = solver.make_state(np.array([0.0, 0.0, 0.3]), scale=100.0)
    refuses("|s_b + s_e|", solver.predicted_equilibrium, state)
    assert all(f in cli.FLAGS["|s_b + s_e|"]
               for f in ("--perturb", "--omega-over-c", "--mass", "--charge"))


@pytest.mark.parametrize("omega", [NAN, INF, -INF, 1.0, -1.2])
@pytest.mark.parametrize("kind", ["shell", "volume"])
def test_omega_r_has_one_home_for_every_quantity(solver, omega, kind):
    f = DensityProfile(kind, 2.0, 1.0)
    msgs = {refuses("omega R", stationary_state, f, [0.0, 0.0, omega]),
            refuses("omega R", gyrational_mass, f, omega),
            refuses("omega R", solver.make_state, np.array([0.0, 0.0, omega]))}
    assert len(msgs) == 1   # one rule, one text


@pytest.mark.parametrize("omega", [0.0, -0.0, 0.999, -0.5])
def test_omega_r_below_one_is_accepted(solver, omega):
    stationary_state(FE, [0.0, 0.0, omega])
    gyrational_mass(FM, omega)
    solver.make_state(np.array([0.0, 0.0, omega]))


@pytest.mark.parametrize("scale", [NAN, INF, -INF])
def test_make_state_refuses_a_scale_that_is_not_finite(solver, scale):
    refuses("scale", solver.make_state, np.array([0.0, 0.0, 0.3]), scale=scale)


@pytest.mark.parametrize("horizon", [INF, NAN, 0.0, -1.0])
def test_run_and_picard_refuse_a_horizon_that_is_not_positive_and_finite(solver, horizon):
    state = solver.make_state(np.array([0.0, 0.0, 0.3]), scale=0.5)
    msgs = {refuses("horizon", solver.run, state, horizon),
            refuses("horizon", solver.picard_iterate, state, n_max=2, horizon=horizon)}
    assert len(msgs) == 1


@pytest.mark.parametrize("r_max", [NAN, INF, -INF, 0.0, -3.0, 1.0])
def test_solver_refuses_an_r_max_that_is_not_finite_and_a_cell_beyond_r(r_max):
    refuses("r_max", GyroSolver, FE, FM, r_max=r_max)


@pytest.mark.parametrize("dr", [0.0, NAN, INF, -0.05])
def test_solver_refuses_a_dr_that_is_not_positive_and_finite(dr):
    refuses("dr", GyroSolver, FE, FM, dr=dr)


@pytest.mark.parametrize("dr", [2.5, 2.0, 1e300, 5e-324, 1e-310])
def test_solver_refuses_a_dr_that_leaves_r_off_the_grid(dr):
    # round(R / dr) is 0, no cell inside the support to snap R onto, or
    # R / dr overflows
    refuses("dr", GyroSolver, FE, FM, dr=dr, r_max=3.0 * dr)


def test_solver_refuses_an_r_max_that_r_max_over_dr_overflows():
    refuses("r_max", GyroSolver, FE, FM, dr=1e-300, r_max=1e10)


def test_solver_snaps_r_onto_the_coarsest_grid():
    assert GyroSolver(FE, FM, dr=1.9, r_max=4.0).dr == 1.0


@pytest.mark.parametrize("mass", [0.0, -0.0, -2.0])
@pytest.mark.parametrize("kind", ["shell", "volume"])
def test_gyration_curve_refuses_a_mass_that_is_not_positive(mass, kind):
    fm = DensityProfile(kind, mass, 1.0)
    refuses("mass", GyrationCurve, fm)
    refuses("mass", GyroSolver, FE, fm)


@pytest.mark.parametrize("m_b", [NAN, INF, -INF, 0.0, 1.0, -0.1])
def test_flow_sweep_refuses_a_bare_mass_outside_the_open_interval(m_b):
    msg = refuses("m_b", eta_of_mb, m_b)
    assert refuses("m_b", flow_sweep, [0.5, m_b]) == msg
