"""Oracle tests of the initial-data classifiers: every emitted family
member satisfies the model's constraint equations, inconsistent data
violate them, and data without a finite average are refused.  The field
moments match their closed forms on uniform and curl fields, and the
einsum and np.cross formulas they had before the one moment pass, within
MOMENT_TOL of each moment's scale; on those formulas' moments every
scenario keeps its verdict and family dimension.  The one-SVD classifier
gives the verdicts, families and particular solutions of the lstsq and
SVD pair it replaced."""

import itertools
import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ledlab import admissibility
from ledlab.admissibility import (
    SCENARIOS,
    ZERO_TOL,
    ConstraintReport,
    Moments,
    build_scenario,
    constraint_residuals,
    field_moments,
    make_initial_data,
    run_check,
)
from ledlab.bare_particle import DensityProfile
from ledlab.fields import NumericalFailure

CASES = [f"{base}-{model}" for base in SCENARIOS
         for model in ("nodvik", "abraham-nospin", "abraham")]


def check_family(data, model) -> ConstraintReport:
    """The model's report on data, whose family members satisfy the
    constraints, or whose zero start violates them when it is inconsistent."""
    report = run_check(data, model)
    if report.verdict == "inconsistent":
        assert constraint_residuals(data, model, np.zeros(3), np.zeros(3)) > ZERO_TOL
        return report
    for coeffs in itertools.product((-1.5, 0.0, 2.0), repeat=report.dim_family):
        member = report.family_member(coeffs)
        assert constraint_residuals(data, model, member["qdot0"], member["omega0"]) <= 1e-12
    return report


@pytest.mark.parametrize("name", CASES)
def test_family_members_satisfy_the_constraints(name):
    check_family(*build_scenario(name))


@pytest.mark.parametrize("fe", [DensityProfile.volume(-1.0, 1.0), DensityProfile.shell(-1.0, 0.5),
                                DensityProfile.shell(-1.0, 3.0)],
                         ids=["ball", "shell-R0.5", "shell-R3"])
@pytest.mark.parametrize("model", admissibility.CHECKS)
@pytest.mark.parametrize("base", SCENARIOS)
def test_family_members_satisfy_the_constraints_on_other_profiles(base, model, fe):
    # a scenario's fields on the ball (its Coulomb E from the closed-form
    # enclosed charge) and on shells of other radii keep the unit shell's
    # verdict and family dimension
    report = check_family(make_initial_data(fe, **SCENARIOS[base]), model)
    unit = run_check(make_initial_data(DensityProfile.shell(-1.0, 1.0), **SCENARIOS[base]), model)
    assert (report.verdict, report.dim_family) == (unit.verdict, unit.dim_family)


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


# ---------------------------------------------------------------------------
# the field moments against closed forms and against the einsum formulas
# ---------------------------------------------------------------------------

# largest moment error, in units of the moment's scale (moment_scales); the
# one moment pass and the einsum formulas sum in different orders, and
# differ by at most 1.1e-15 on the scenarios and 2e-13 on random data
MOMENT_TOL = 1e-12
VERDICTS = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                       / "admissibility_verdicts.json").read_text())


def einsum_moments(data) -> Moments:
    """The moments as einsums over the support nodes, with np.cross for the
    torque: the formulas of field_moments before its one moment pass."""
    q = data.fe.total
    pts, w = data.fe.support_rule()
    e = np.asarray(data.e_fn(pts), dtype=float)
    b = np.asarray(data.b_fn(pts), dtype=float)
    torque_e = np.einsum("k,ki->i", w, np.cross(pts, e))
    sigma_b = np.einsum("k,ki->i", w, pts * np.einsum("ki,ki->k", pts, b)[:, None])
    xb = np.einsum("k,ki,kj->ij", w, pts, b) / q
    return Moments(np.einsum("k,ki->i", w, e) / q, np.einsum("k,ki->i", w, b) / q,
                   torque_e, sigma_b, torque_e / q, sigma_b / q,
                   xb - np.trace(xb) * np.eye(3),
                   e_scale=float(np.max(np.abs(e))), b_scale=float(np.max(np.abs(b))),
                   radius=data.fe.R)


def moment_scales(data, m: Moments) -> dict:
    """|q| R^d max|G| bounds a moment of degree d in x of the field G, since
    the weights share the sign of q; an average drops the |q|."""
    q, r = abs(data.fe.total), data.fe.R
    return {"mean_E": m.e_scale, "mean_B": m.b_scale, "torque_E": q * r * m.e_scale,
            "sigma_B": q * r * r * m.b_scale, "mean_x_cross_E": r * m.e_scale,
            "mean_x_xdotB": r * r * m.b_scale, "xB_traceless": r * m.b_scale}


def scaled_errors(data, got: Moments, ref: dict) -> dict:
    """Largest error of each moment of `got` against `ref`, over its scale;
    a moment of a zero field must be exactly zero."""
    scales = moment_scales(data, got)
    return {name: float(np.max(np.abs(np.asarray(value) - np.asarray(ref[name]))))
            / max(scales[name], np.finfo(float).tiny)
            for name, value in got.as_dict().items()}


@pytest.mark.parametrize("name", CASES)
def test_moments_match_the_einsum_formulas_on_every_scenario(name):
    data, _ = build_scenario(name)
    m = field_moments(data)
    ref = einsum_moments(data)
    assert (m.e_scale, m.b_scale, m.radius) == (ref.e_scale, ref.b_scale, ref.radius)
    errors = scaled_errors(data, m, ref.as_dict())
    assert max(errors.values()) <= MOMENT_TOL, errors


def family_projector(report):
    """Orthogonal projector onto the span of the family basis: the basis of a
    degenerate null space is arbitrary, its span is not."""
    basis = np.array(report.family_basis).reshape(-1, 6)
    return basis.T @ basis


@pytest.mark.parametrize("name", CASES)
def test_the_einsum_moments_give_every_verdict_and_family(name, monkeypatch):
    data, model = build_scenario(name)
    report = run_check(data, model)
    monkeypatch.setattr(admissibility, "field_moments", einsum_moments)
    before = run_check(data, model)
    assert report.verdict == before.verdict == VERDICTS[name]
    assert report.dim_family == before.dim_family
    np.testing.assert_allclose(family_projector(report), family_projector(before),
                               rtol=0.0, atol=1e-12)


vector = st.tuples(*[st.floats(-1.0, 1.0)] * 3)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["shell", "volume"]), e0=vector, b0=vector,
       e_curl=st.floats(-1.0, 1.0), q=st.floats(0.1, 10.0), negative=st.booleans(),
       radius=st.floats(0.1, 10.0), coulomb=st.booleans())
def test_moments_of_uniform_and_curl_fields_are_their_closed_forms(
        kind, e0, b0, e_curl, q, negative, radius, coulomb):
    q = -q if negative else q
    fe = DensityProfile(kind, q, radius)
    data = make_initial_data(fe, e_uniform=e0, b_uniform=b0, include_coulomb=coulomb,
                             e_curl=e_curl)
    m = field_moments(data)
    # the curl field e_c (-y, x, 0) has x cross E = e_c (-xz, -yz, x^2 + y^2),
    # and <x x^T> = <r^2> I / 3, <r^2> = R^2 (shell) or 3 R^2 / 5 (ball)
    r2 = radius**2 * (1.0 if kind == "shell" else 0.6)
    b0 = np.array(b0)
    closed = {"mean_E": e0, "mean_B": b0,
              "torque_E": np.array([0.0, 0.0, (2.0 / 3.0) * q * e_curl * r2]),
              "sigma_B": q * r2 * b0 / 3.0, "mean_x_cross_E": [0.0, 0.0, (2.0 / 3.0) * e_curl * r2],
              "mean_x_xdotB": r2 * b0 / 3.0, "xB_traceless": np.zeros((3, 3))}
    errors = scaled_errors(data, m, closed)
    assert max(errors.values()) <= MOMENT_TOL, errors
    ref = einsum_moments(data)
    errors = scaled_errors(data, m, ref.as_dict())
    assert max(errors.values()) <= MOMENT_TOL, errors


# ---------------------------------------------------------------------------
# the one-SVD classifier against the lstsq and SVD pair it replaced
# ---------------------------------------------------------------------------

def lstsq_classify(a_rows, b_rows, scale, model, moments, active):
    """The classifier before its one SVD: lstsq for the particular solution
    and its residual, a second factorization for the rank and the null
    space, and a zero matrix handled apart."""
    n_active = int(np.count_nonzero(active))
    a = a_rows[:, active]
    thresh = max(ZERO_TOL * max(scale, 1e-300), 1e-13 * max(scale, 1e-300))
    if a.size and np.linalg.norm(a) > 0:
        y_act, *_ = np.linalg.lstsq(a, b_rows, rcond=None)
        resid = float(np.linalg.norm(a @ y_act - b_rows))
        u, s, vt = np.linalg.svd(a)
        rank = int(np.sum(s > max(s[0], 1e-300) * 1e-12)) if s.size else 0
        null = vt[rank:].T
    else:
        y_act = np.zeros(n_active)
        resid = float(np.linalg.norm(b_rows))
        rank = 0
        null = np.eye(n_active)
    dim = n_active - rank
    if resid > thresh:
        return ConstraintReport(model, "inconsistent", moments, 0, n_active, None, [], resid,
                                "constraints admit no solution")
    y_full = np.zeros(6)
    y_full[active] = y_act
    basis = []
    for col in null.T:
        v = np.zeros(6)
        v[active] = col
        basis.append(v)
    verdict = "consistent" if dim == n_active else "conditionally-consistent"
    return ConstraintReport(model, verdict, moments, dim, n_active,
                            {"qdot0": y_full[:3], "omega0": y_full[3:]}, basis, resid, "")


def assert_classified_as_by_lstsq(data, model):
    """Same verdict, family dimension and family span as lstsq_classify, a
    residual within 1e-12 of the moment scale the check passes its
    classifier, and a particular solution within 1e-12 of the larger of
    that scale and the solution's size: a field B near zero makes the
    solution ~ |E| / |B| (1.3e41 at |B| = 5.6e-42), and both factorizations
    agree with it to round-off relative to its size.

    Returns False, comparing nothing, where the Frobenius norm of a nonzero
    A underflows to 0 (entries below about 1e-154), which sent
    lstsq_classify into its zero-matrix branch."""
    scales, underflow = [], []

    def reference(a_rows, b_rows, scale, model, moments, active):
        scales.append(scale)
        a = a_rows[:, active]
        underflow.append(np.linalg.norm(a) == 0.0 < np.max(np.abs(a)))
        return lstsq_classify(a_rows, b_rows, scale, model, moments, active)

    with mock.patch.object(admissibility, "_classify", reference):
        ref = run_check(data, model)
    if underflow[0]:
        return False
    report = run_check(data, model)
    assert (report.verdict, report.dim_family) == (ref.verdict, ref.dim_family)
    assert report.residual == pytest.approx(ref.residual, rel=0.0, abs=1e-12 * scales[0])
    if ref.particular is None:
        assert report.particular is None and report.family_basis == []
        return True
    np.testing.assert_allclose(family_projector(report), family_projector(ref),
                               rtol=0.0, atol=1e-12)
    y, y_ref = (np.concatenate([r.particular["qdot0"], r.particular["omega0"]])
                for r in (report, ref))
    size = max(scales[0], float(np.max(np.abs(y_ref))))
    np.testing.assert_allclose(y, y_ref, rtol=0.0, atol=1e-12 * size)
    return True


@pytest.mark.parametrize("name", CASES)
def test_one_svd_classifies_every_scenario_as_lstsq_did(name):
    assert assert_classified_as_by_lstsq(*build_scenario(name))


@pytest.mark.parametrize("b_z", [1.0, 1e-188, 1e-308])
def test_a_field_too_small_to_square_keeps_its_rank(b_z):
    # |B| e_z alone: qdot along B is free, whatever |B|; lstsq_classify took
    # B below 1e-154 for zero, since its norm test squares the entries
    data = make_initial_data(DensityProfile.shell(-1.0, 1.0), b_uniform=(0.0, 0.0, b_z),
                             include_coulomb=False)
    report = run_check(data, "abraham_nospin")
    assert (report.verdict, report.dim_family) == ("conditionally-consistent", 1)
    np.testing.assert_allclose(np.abs(report.family_basis[0]), [0, 0, 1, 0, 0, 0])


def test_a_solution_beyond_the_largest_double_is_a_numerical_failure():
    # qdot x B = -E with E = e_z and a subnormal B = b e_y needs |qdot| = 1/b;
    # lstsq_classify took this B for zero and called the data inconsistent
    data = make_initial_data(DensityProfile.shell(-1.0, 1.0), e_uniform=(0.0, 0.0, 1.0),
                             b_uniform=(0.0, 2.2e-309, 0.0), include_coulomb=False)
    with pytest.raises(NumericalFailure):
        run_check(data, "abraham_nospin")


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["shell", "volume"]), e0=vector, b0=vector,
       e_curl=st.floats(-1.0, 1.0), radius=st.floats(0.1, 10.0), coulomb=st.booleans(),
       model=st.sampled_from(sorted(admissibility.CHECKS)))
def test_one_svd_classifies_random_data_as_lstsq_did(kind, e0, b0, e_curl, radius, coulomb,
                                                     model):
    data = make_initial_data(DensityProfile(kind, -1.0, radius), e_uniform=e0, b_uniform=b0,
                             include_coulomb=coulomb, e_curl=e_curl)
    assume(assert_classified_as_by_lstsq(data, model))
