"""Kinematics of the kept Minkowski code against textbook identities: the
four-velocity is the boost's first column, the Fermi-Walker tensor of an
accelerated worldline is wedge_up(a, u), and the Thomas precession rate
(gamma - 1)(a x v)/|v|^2 is the rate of the Wigner rotation between the
boost_matrix rest frames at v -+ h a."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ledlab.minkowski import FourVector, boost_matrix, inner, wedge_up

E0 = FourVector.basis(0)

subluminal = st.tuples(*[st.floats(min_value=-0.57, max_value=0.57)
                         for _ in range(3)])


def four_velocity(v3):
    return FourVector(boost_matrix(v3)[:, 0])


def wigner_rotation(v1, v2):
    """Rotation vector of the Wigner rotation in the map from the rest
    frame at v1 to the rest frame at v2: the polar decomposition
    L(v2)^-1 L(v1) = L(w) R."""
    lt = boost_matrix(-np.asarray(v2, dtype=float)) @ boost_matrix(v1)
    w = lt[1:, 0] / lt[0, 0]
    r = (boost_matrix(-w) @ lt)[1:, 1:]
    return 0.5 * np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])


def thomas_rate(v3, a3):
    """Central differences of the Wigner rotation over v -+ h a, Richardson
    extrapolated in h (the rate is even in h); each term's axis is exactly
    along (v - h a) x (v + h a) = 2 h v x a."""
    v, a = np.asarray(v3, dtype=float), np.asarray(a3, dtype=float)
    h = min(2e-3, 0.5 * (1.0 - np.linalg.norm(v)) / max(np.linalg.norm(a), 1.0))

    def rate(k):
        return wigner_rotation(v - k * a, v + k * a) / (2.0 * k)

    return (4.0 * rate(h / 2) - rate(h)) / 3.0


class TestFourVelocity:
    def test_at_rest(self):
        np.testing.assert_allclose(four_velocity([0, 0, 0]).c, [1, 0, 0, 0])

    def test_known_boost(self):
        np.testing.assert_allclose(four_velocity([0.6, 0, 0]).c,
                                   [1.25, 0.75, 0.0, 0.0])

    @given(subluminal)
    @settings(deadline=None, max_examples=60)
    def test_unit_norm(self, v):
        u = four_velocity(np.array(v))
        assert inner(u, u) == pytest.approx(-1.0, abs=1e-12)
        assert u.time >= 1.0

    def test_superluminal_rejected(self):
        with pytest.raises(ValueError):
            four_velocity([1.0, 0.2, 0.0])


class TestFermiWalker:
    """The Fermi-Walker tensor a ^ u of four-velocity u and acceleration a."""

    def test_inertial_motion_gives_zero(self):
        t = wedge_up(FourVector([0, 0, 0, 0]), E0)
        np.testing.assert_allclose(t.m, 0.0)

    def test_basis_case(self):
        t = wedge_up(FourVector.basis(1), E0)
        expect = np.outer(FourVector.basis(1).c, E0.c)
        np.testing.assert_allclose(t.m, expect - expect.T)

    def test_action_on_u_gives_minus_a(self):
        # (a ^ u) . u = a (u.u) - u (a.u) = -a for unit timelike u
        u = four_velocity([0.3, -0.2, 0.4])
        a3 = np.array([0.1, 0.5, -0.2])
        # build an admissible four-acceleration orthogonal to u
        a = FourVector([0.0, *a3])
        proj = a.c + inner(a, u) * u.c  # project out the u component
        a = FourVector(proj)
        t = wedge_up(a, u)
        np.testing.assert_allclose(t.dot(u).c, -a.c, atol=1e-12)
        np.testing.assert_array_equal(t.m, -t.m.T)

    def test_annihilates_orthogonal_complement(self):
        t = wedge_up(FourVector.basis(1), E0)
        for mu in (2, 3):
            np.testing.assert_allclose(t.dot(FourVector.basis(mu)).c, 0.0)


class TestThomasPrecession:
    def test_known_value(self):
        # gamma = 1.25, (gamma-1) a x v / |v|^2 with a x v = (0,0,-0.6)
        got = thomas_rate([0.6, 0, 0], [0, 1, 0])
        np.testing.assert_allclose(got, [0.0, 0.0, -0.25 * 0.6 / 0.36])

    def test_parallel_acceleration(self):
        np.testing.assert_allclose(thomas_rate([0.5, 0, 0], [2, 0, 0]), 0.0)

    def test_zero_velocity_extension(self):
        np.testing.assert_allclose(thomas_rate([0, 0, 0], [0, 1, 0]), 0.0)

    def test_small_velocity_limit(self):
        # omega_T -> (a x v)/2 (1 + O(v^2))
        v = np.array([1e-4, 0, 0])
        a = np.array([0, 1.0, 0])
        got = thomas_rate(v, a)
        np.testing.assert_allclose(got, np.cross(a, v) / 2, rtol=1e-7)

    @given(subluminal, st.tuples(*[st.floats(-3, 3) for _ in range(3)]))
    @settings(deadline=None, max_examples=60)
    def test_direction_parallel_to_a_cross_v(self, v, a):
        v, a = np.array(v), np.array(a)
        if np.linalg.norm(v) < 1e-6:
            return
        got = thomas_rate(v, a)
        np.testing.assert_allclose(np.cross(got, np.cross(a, v)), 0.0, atol=1e-9)
