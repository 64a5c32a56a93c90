"""Oracle tests of the initial-data classifiers and of the semi-relativistic
conserved functionals: every emitted family member satisfies the model's
constraint equations, inconsistent data violate them, and the particle
terms of semirel_functionals add to the grid field integrals in closed
form."""

import itertools

import numpy as np
import pytest

from ledlab.admissibility import (
    SCENARIOS,
    ZERO_TOL,
    build_scenario,
    constraint_residuals,
    run_check,
    semirel_functionals,
)
from ledlab.bare_particle import DensityProfile
from ledlab.fields import ComplexField3, conserved_functionals, field_energy_grid, stationary_state

CASES = [f"{base}-{model}" for base in SCENARIOS
         for model in ("nodvik", "abraham-nospin", "abraham")]


@pytest.mark.parametrize("name", CASES)
def test_family_members_satisfy_the_constraints(name):
    data, model = build_scenario(name)
    report = run_check(data, model)
    if report.verdict == "inconsistent":
        assert constraint_residuals(data, model, np.zeros(3), np.zeros(3)) > ZERO_TOL
        return
    for coeffs in itertools.product((-1.5, 0.0, 2.0), repeat=report.dim_family):
        member = report.family_member(coeffs)
        assert constraint_residuals(data, model, member["qdot0"], member["omega0"]) <= 1e-12


def test_family_member_needs_one_coefficient_per_basis_vector():
    report = run_check(*build_scenario("uniform-B-nodvik"))
    with pytest.raises(ValueError):
        report.family_member([1.0, 2.0])


# ---------------------------------------------------------------------------
# semi-relativistic functionals on the grid of the conserved-functional tests
# ---------------------------------------------------------------------------

M_B, I_B = 2.0, 0.7
FM = DensityProfile.shell(M_B, 1.0)
OMEGA = np.array([0.0, 0.0, 0.4])


@pytest.fixture(scope="module")
def grid():
    st = stationary_state(DensityProfile.shell(-1.0, 1.0), OMEGA)
    ax = np.linspace(-10.0, 10.0, 101)
    return ComplexField3.from_callables(st.E, st.B, (ax, ax, ax))


@pytest.fixture(scope="module")
def field_only(grid):
    return semirel_functionals(grid, M_B, I_B)


class TestSemirelFunctionals:
    QDOT = np.array([0.3, 0.0, 0.0])
    S_B = np.array([0.1, -0.2, 0.5])
    Q3 = np.array([0.0, 1.5, -0.5])

    def test_field_part_is_the_grid_field_integral(self, grid, field_only):
        assert field_only["W_field"] == field_energy_grid(grid)
        assert field_only["W"] == field_only["W_field"]
        conserved = conserved_functionals(grid, FM, OMEGA)
        np.testing.assert_array_equal(field_only["L"], conserved["L_field"])
        np.testing.assert_array_equal(field_only["P"], conserved["P"])
        assert field_only["Q"] == conserved["Q"]

    @pytest.mark.parametrize("variant, kinetic", [
        ("spin", 0.5 * M_B * 0.09 + 0.5 * (0.01 + 0.04 + 0.25) / I_B),
        ("infI", 0.5 * M_B * 0.09),
        ("einstein", M_B / np.sqrt(0.91)),
    ])
    def test_particle_energy(self, grid, field_only, variant, kinetic):
        out = semirel_functionals(grid, M_B, I_B, qdot=self.QDOT, s_b=self.S_B,
                                  q3=self.Q3, variant=variant)
        assert out["W_field"] == field_only["W_field"]
        assert out["W"] - out["W_field"] == pytest.approx(kinetic, rel=1e-12)

    @pytest.mark.parametrize("variant, gamma", [("spin", 1.0), ("einstein", 1.0 / np.sqrt(0.91))])
    def test_momentum_and_angular_momentum(self, grid, field_only, variant, gamma):
        out = semirel_functionals(grid, M_B, I_B, qdot=self.QDOT, s_b=self.S_B,
                                  q3=self.Q3, variant=variant)
        p_b = M_B * gamma * self.QDOT
        np.testing.assert_allclose(out["P"] - field_only["P"], p_b, rtol=1e-12)
        np.testing.assert_allclose(out["L"] - field_only["L"],
                                   np.cross(self.Q3, p_b) + self.S_B, rtol=1e-12, atol=1e-15)

    def test_rejects_unknown_variant(self, grid):
        with pytest.raises(ValueError):
            semirel_functionals(grid, M_B, I_B, variant="newtonian")

    def test_rejects_grid_not_enclosing_the_support(self, grid):
        with pytest.raises(ValueError):
            semirel_functionals(grid, M_B, I_B, support_radius=10.5)
