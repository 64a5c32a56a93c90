"""Oracle tests of the bracketed root: scipy's brentq on every bracket the
flow inversion and the predicted equilibrium hand it, and the ValueError
of a support spin that no stationary state can hold."""

import dataclasses

import numpy as np
import pytest
from scipy.optimize import brentq

from ledlab import gyrodynamics, renormflow
from ledlab.bare_particle import DensityProfile
from ledlab.gyrodynamics import GyroSolver
from ledlab.roots import bracketed_root


def against_brentq(monkeypatch, module):
    """Wrap `module.bracketed_root` so that every call is also solved by
    brentq with the same function, bracket and tolerances; returns the
    list of (root, brentq root) pairs."""
    pairs = []

    def both(f, lo, hi, xtol, rtol):
        got = bracketed_root(f, lo, hi, xtol, rtol)
        pairs.append((got, brentq(f, lo, hi, xtol=xtol, rtol=rtol)))
        return got

    monkeypatch.setattr(module, "bracketed_root", both)
    return pairs


def assert_agree(pairs, n):
    assert len(pairs) == n
    got, ref = np.array(pairs).T
    assert np.all(ref > 0)
    assert np.max(np.abs(got - ref) / ref) <= 1e-13


@pytest.mark.parametrize("anomaly", [True, False])
def test_flow_grid_roots_match_brentq(monkeypatch, anomaly):
    # the renorm-flow CLI default grid log:1e-6:0.99:40
    pairs = against_brentq(monkeypatch, renormflow)
    k = renormflow.PhysicalConstants(include_anomaly=anomaly)
    renormflow.flow_sweep(np.geomspace(1e-6, 0.99, 40), k)
    assert_agree(pairs, 40)


@pytest.mark.parametrize("kind", ["shell", "volume"])
def test_predicted_equilibrium_matches_brentq(monkeypatch, kind):
    pairs = against_brentq(monkeypatch, gyrodynamics)
    make = getattr(DensityProfile, kind)
    solver = GyroSolver(make(-1.0, 1.0), make(2.0, 1.0), r_max=10.0)
    for omega in (1e-6, 0.01, 0.3, 0.9, 0.99):
        for scale in (0.0, 0.5, 1.0):
            solver.predicted_equilibrium(solver.make_state(np.array([0.0, 0.0, omega]), scale))
    assert_agree(pairs, 15)


def test_no_sign_change_raises_value_error():
    with pytest.raises(ValueError, match="same sign"):
        bracketed_root(lambda x: x * x + 1.0, -1.0, 1.0, 0.0, 1e-15)


def test_spin_beyond_the_cap_has_no_equilibrium():
    # sigma(cap) + kappa cap < |s_b + s_e|: no sign change on [0, cap], so
    # a relax run from this state stops before its first step (exit 2)
    solver = GyroSolver(DensityProfile.volume(-1.0, 1.0), DensityProfile.volume(2.0, 1.0))
    state = solver.make_state(np.array([0.0, 0.0, 0.3]))
    with pytest.raises(ValueError, match=r"\|s_b \+ s_e\| = .* exceeds sigma\(cap\)"):
        solver.predicted_equilibrium(dataclasses.replace(state, sb=100.0 * state.sb))


def test_roots_at_the_bracket_ends_and_on_a_line():
    assert bracketed_root(lambda x: x, 0.0, 1.0, 0.0, 1e-15) == 0.0
    assert bracketed_root(lambda x: x - 1.0, 0.0, 1.0, 0.0, 1e-15) == 1.0
    assert bracketed_root(lambda x: 3.0 * x - 1.0, 0.0, 1.0, 0.0, 1e-15) == pytest.approx(
        1.0 / 3.0, rel=1e-15)


@pytest.mark.parametrize("scale", [1e-120, 1e-200])
def test_an_underflowing_interpolation_bisects(scale):
    # the inverse-quadratic denominator, a product of three differences of
    # f, underflows to 0 for so small an f: the step bisects instead
    root = bracketed_root(lambda x: scale * (x**3 - 0.1), 0.0, 1.0, 1e-300, 1e-15)
    assert root == pytest.approx(0.1 ** (1.0 / 3.0), rel=2e-15)
