"""Oracle tests of the initial-data classifiers: every emitted family
member satisfies the model's constraint equations, inconsistent data
violate them, and data without a finite average are refused."""

import itertools

import numpy as np
import pytest

from ledlab.admissibility import (
    SCENARIOS,
    ZERO_TOL,
    build_scenario,
    constraint_residuals,
    make_initial_data,
    run_check,
)
from ledlab.bare_particle import DensityProfile
from ledlab.fields import NumericalFailure

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



@pytest.mark.parametrize("total", [0.0, -0.0, -1e-320, 2e-310])
@pytest.mark.parametrize("model", ["nodvik", "abraham_spin", "abraham_nospin"])
def test_a_zero_or_subnormal_total_is_refused(total, model):
    data = make_initial_data(DensityProfile.volume(total, 1.0), e_uniform=(1.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="total"):
        run_check(data, model)


@pytest.mark.parametrize("fe, kwargs, model", [
    (DensityProfile.shell(-1.0, 1.0), dict(e_curl=1e308), "abraham_spin"),
    (DensityProfile.shell(-1.0, 1e300), dict(b_uniform=(0.0, 0.0, 1.0)), "nodvik"),
])
def test_a_non_finite_moment_or_residual_is_a_numerical_failure(fe, kwargs, model):
    with np.errstate(all="ignore"), pytest.raises(NumericalFailure):
        run_check(make_initial_data(fe, **kwargs), model)


def test_the_smallest_normal_total_is_classified():
    data = make_initial_data(DensityProfile.shell(-np.finfo(float).tiny, 1.0),
                             e_uniform=(1.0, 0.0, 0.0))
    assert run_check(data, "abraham_spin").verdict == "inconsistent"
