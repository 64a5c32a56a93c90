"""Oracle tests of the initial-data classifiers: every emitted family
member satisfies the model's constraint equations, and inconsistent data
violate them."""

import itertools

import numpy as np
import pytest

from ledlab.admissibility import (
    SCENARIOS,
    ZERO_TOL,
    build_scenario,
    constraint_residuals,
    run_check,
)

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

