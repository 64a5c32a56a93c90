import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ledlab.minkowski import (
    DEFAULT_TOL,
    FourVector,
    METRIC_TENSOR,
    Rank2Tensor,
    anticommutator,
    boost_matrix,
    dual_tensor,
    dual_vector,
    inner,
    outer,
    trace,
    wedge_up,
)

E = [FourVector.basis(i) for i in range(4)]

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
vec4 = st.tuples(finite, finite, finite, finite).map(lambda t: FourVector(list(t)))
vel3 = st.tuples(*[st.floats(min_value=-0.55, max_value=0.55) for _ in range(3)])


def rand_vec(rng):
    return FourVector(rng.normal(size=4))


class TestInner:
    def test_basis_products(self):
        assert inner(E[0], E[0]) == -1.0
        assert inner(E[1], E[2]) == 0.0
        for i in range(1, 4):
            assert inner(E[i], E[i]) == 1.0

    def test_lightlike(self):
        v = FourVector([1.0, 1.0, 0.0, 0.0])
        assert inner(v, v) == 0.0

    @given(vec4, vec4)
    @settings(deadline=None, max_examples=60)
    def test_symmetry(self, a, b):
        assert inner(a, b) == pytest.approx(inner(b, a), abs=1e-12)

    @given(vec4, vec4, vel3)
    @settings(deadline=None, max_examples=60)
    def test_boost_invariance(self, a, b, v):
        lam = boost_matrix(np.array(v))
        before = inner(a, b)
        after = inner(FourVector(lam @ a.c), FourVector(lam @ b.c))
        assert after == pytest.approx(before, rel=1e-12, abs=1e-10)


class TestProducts:
    def test_wedge_up_basis(self):
        t = wedge_up(E[1], E[2])
        expect = np.zeros((4, 4))
        expect[1, 2], expect[2, 1] = 1.0, -1.0
        np.testing.assert_allclose(t.m, expect)
        np.testing.assert_array_equal(t.m, -t.m.T)

    def test_wedge_up_self_is_zero(self):
        rng = np.random.default_rng(0)
        a = rand_vec(rng)
        assert np.max(np.abs(wedge_up(a, a).m)) == 0.0

    def test_wedge_down_basis(self):
        # the symmetrized product a (x) b + b (x) a
        t = outer(E[1], E[2]) + outer(E[2], E[1])
        assert t.m[1, 2] == 1.0 and t.m[2, 1] == 1.0
        t00 = outer(E[0], E[0]) + outer(E[0], E[0])
        np.testing.assert_allclose(t00.m, 2.0 * np.outer(E[0].c, E[0].c))

    def test_wedge_sum_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            a, b = rand_vec(rng), rand_vec(rng)
            lhs = wedge_up(a, b).m + (outer(a, b) + outer(b, a)).m
            np.testing.assert_allclose(lhs, 2.0 * np.outer(a.c, b.c), atol=1e-12)

    def test_outer_action(self):
        rng = np.random.default_rng(2)
        a, b, c = rand_vec(rng), rand_vec(rng), rand_vec(rng)
        # (a (x) b) . c = a (b . c) and c . (a (x) b) = (a . c) b
        np.testing.assert_allclose(outer(a, b).dot(c).c, a.c * inner(b, c), atol=1e-12)
        np.testing.assert_allclose(c.dot(outer(a, b)).c, inner(a, c) * b.c, atol=1e-12)


class TestTrace:
    def test_metric_trace_is_four(self):
        assert trace(METRIC_TENSOR) == 4.0

    def test_antisymmetric_trace_is_zero(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            a, b = rand_vec(rng), rand_vec(rng)
            assert trace(wedge_up(a, b)) == 0.0

    def test_e0_outer_e0(self):
        assert trace(outer(E[0], E[0])) == -1.0


class TestCommutators:
    def test_metric_commutes(self):
        rng = np.random.default_rng(4)
        t = Rank2Tensor(rng.normal(size=(4, 4)))
        # g commutes with every T, so g.T + T.g = 2 T
        np.testing.assert_allclose(anticommutator(METRIC_TENSOR, t).m, 2.0 * t.m,
                                   atol=1e-14)

    def test_metric_identity_on_vectors(self):
        rng = np.random.default_rng(5)
        v = rand_vec(rng)
        np.testing.assert_allclose(METRIC_TENSOR.dot(v).c, v.c)

    def test_action_associative(self):
        rng = np.random.default_rng(6)
        a = Rank2Tensor(rng.normal(size=(4, 4)))
        b = Rank2Tensor(rng.normal(size=(4, 4)))
        v = rand_vec(rng)
        np.testing.assert_allclose(a.dot(b).dot(v).c, a.dot(b.dot(v)).c, atol=1e-12)

    def test_general_tensor_orders_differ(self):
        rng = np.random.default_rng(7)
        t = Rank2Tensor(rng.normal(size=(4, 4)))
        v = rand_vec(rng)
        assert not np.allclose(t.dot(v).c, v.dot(t).c)


def split_space_time(s, u):
    """(s_perp, s_par, h) = (s + [u (x) u, s]_+, u ^ (s.u), s.u) of an
    antisymmetric s relative to a unit timelike u; s_perp + s_par = s."""
    h = s.dot(u)
    return s + anticommutator(outer(u, u), s), wedge_up(u, h), h


class TestSplit:
    def test_purely_spatial(self):
        s = wedge_up(E[1], E[2])
        perp, par, h = split_space_time(s, E[0])
        np.testing.assert_allclose(perp.m, s.m, atol=1e-15)
        np.testing.assert_allclose(par.m, 0.0, atol=1e-15)
        np.testing.assert_allclose(h.c, 0.0, atol=1e-15)

    def test_purely_timelike(self):
        s = wedge_up(E[0], E[1])
        perp, par, h = split_space_time(s, E[0])
        np.testing.assert_allclose(perp.m, 0.0, atol=1e-15)
        np.testing.assert_allclose(par.m, s.m, atol=1e-15)

    def test_reconstruction_boosted(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            a, b = rand_vec(rng), rand_vec(rng)
            s = wedge_up(a, b)
            lam = boost_matrix(rng.uniform(-0.5, 0.5, size=3))
            u = FourVector(lam[:, 0])
            perp, par, h = split_space_time(s, u)
            np.testing.assert_allclose(perp.m + par.m, s.m, atol=1e-12)
            # space-space part annihilates u
            np.testing.assert_allclose(perp.dot(u).c, 0.0, atol=1e-12)
            np.testing.assert_allclose(h.c, s.dot(u).c, atol=1e-13)


class TestDual:
    def test_rest_frame_dual(self):
        om = 0.7
        t = wedge_up(E[1], E[2]) * om
        w = dual_vector(t, E[0])
        np.testing.assert_allclose(w.c, [0.0, 0.0, 0.0, om], atol=1e-14)

    def test_zero_tensor(self):
        np.testing.assert_allclose(dual_vector(Rank2Tensor(np.zeros((4, 4))), E[0]).c, 0.0)

    def test_angular_velocity_action(self):
        # Om . x = -(0, w cross x) in the rest frame
        rng = np.random.default_rng(9)
        w3 = rng.normal(size=3)
        om = dual_tensor(FourVector([0.0, *w3]), E[0])
        x3 = rng.normal(size=3)
        got = om.dot(FourVector([0.0, *x3]))
        np.testing.assert_allclose(got.c, [0.0, *(-np.cross(w3, x3))], atol=1e-12)

    def test_round_trip_boosted(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            lam = boost_matrix(rng.uniform(-0.6, 0.6, size=3))
            u = FourVector(lam[:, 0])
            w = FourVector(lam @ [0.0, *rng.normal(size=3)])
            om = dual_tensor(w, u)
            # omega is antisymmetric, space-space, and dual back to w
            np.testing.assert_array_equal(om.m, -om.m.T)
            np.testing.assert_allclose(om.dot(u).c, 0.0, atol=1e-12)
            np.testing.assert_allclose(om.dot(w).c, 0.0, atol=1e-12)
            back = dual_vector(om, u)
            np.testing.assert_allclose(back.c, w.c, atol=1e-12)

    def test_norm_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            lam = boost_matrix(rng.uniform(-0.6, 0.6, size=3))
            u = FourVector(lam[:, 0])
            w = FourVector(lam @ [0.0, *rng.normal(size=3)])
            om = dual_tensor(w, u)
            lhs = -0.5 * trace(om.dot(om))
            assert lhs == pytest.approx(inner(w, w), rel=1e-12)

    def test_rejects_non_space_space(self):
        with pytest.raises(ValueError):
            dual_vector(wedge_up(E[0], E[1]), E[0])


class TestBoosts:
    def test_superluminal_rejected(self):
        with pytest.raises(ValueError):
            boost_matrix([1.1, 0.0, 0.0])

    def test_boost_takes_e0_to_u(self):
        v = np.array([0.6, 0.0, 0.0])
        lam = boost_matrix(v)
        np.testing.assert_allclose(lam @ E[0].c, [1.25, 0.75, 0.0, 0.0])

    def test_metric_is_boost_invariant(self):
        lam = boost_matrix([0.3, -0.2, 0.5])
        np.testing.assert_allclose(lam @ METRIC_TENSOR.m @ lam.T, METRIC_TENSOR.m, atol=1e-12)


class TestImmutability:
    def test_components_frozen(self):
        v = FourVector([1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ValueError):
            v.c[0] = 5.0
        t = wedge_up(E[1], E[2])
        with pytest.raises(ValueError):
            t.m[0, 0] = 1.0
