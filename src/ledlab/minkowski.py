"""Flat-spacetime four-vector and rank-2 tensor algebra, signature (-,+,+,+).

Components are stored contravariantly with respect to one fixed global
Lorentz frame (index 0 timelike).  Frames are not first-class objects; a
boost is just a matrix acting on components.

The dot product of a tensor with a vector contracts through the metric,

    (T . v)^mu = sum_nu T^{mu nu} g_{nu nu} v^nu,

so the metric tensor acts as the identity on four-vectors.  For a general
tensor T . v != v . T; both orders are provided.  Values are immutable
after construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: metric components g_{mu nu} = g^{mu nu} = diag(-1, +1, +1, +1)
METRIC = np.diag([-1.0, 1.0, 1.0, 1.0])
METRIC.flags.writeable = False

#: default absolute tolerance for constraint checks
DEFAULT_TOL = 1e-10


def _levi_civita4() -> np.ndarray:
    eps = np.zeros((4, 4, 4, 4))
    for perm, sign in (
        ((0, 1, 2, 3), 1), ((0, 2, 3, 1), 1), ((0, 3, 1, 2), 1),
        ((1, 0, 3, 2), 1), ((1, 2, 0, 3), 1), ((1, 3, 2, 0), 1),
        ((2, 0, 1, 3), 1), ((2, 1, 3, 0), 1), ((2, 3, 0, 1), 1),
        ((3, 0, 2, 1), 1), ((3, 1, 0, 2), 1), ((3, 2, 1, 0), 1),
    ):
        eps[perm] = sign
        # odd permutations: swap the last two indices
        eps[perm[0], perm[1], perm[3], perm[2]] = -sign
    eps.flags.writeable = False
    return eps


#: rank-4 Levi-Civita symbol with eps[0,1,2,3] = +1
LEVI_CIVITA = _levi_civita4()


def _frozen(a) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class FourVector:
    """Contravariant components (c0, c1, c2, c3) in the global frame."""

    c: np.ndarray

    def __init__(self, c0, c1=None, c2=None, c3=None):
        if c1 is None:
            arr = _frozen(c0)
        else:
            arr = _frozen([c0, c1, c2, c3])
        if arr.shape != (4,):
            raise ValueError("FourVector needs 4 components")
        object.__setattr__(self, "c", arr)

    # -- constructors -------------------------------------------------
    @staticmethod
    def basis(mu: int) -> "FourVector":
        c = np.zeros(4)
        c[mu] = 1.0
        return FourVector(c)

    # -- component access ---------------------------------------------
    @property
    def time(self) -> float:
        return float(self.c[0])

    @property
    def space(self) -> np.ndarray:
        return self.c[1:].copy()

    # -- algebra --------------------------------------------------------
    def __add__(self, other: "FourVector") -> "FourVector":
        return FourVector(self.c + other.c)

    def __sub__(self, other: "FourVector") -> "FourVector":
        return FourVector(self.c - other.c)

    def __mul__(self, s: float) -> "FourVector":
        return FourVector(self.c * s)

    __rmul__ = __mul__

    def __neg__(self) -> "FourVector":
        return FourVector(-self.c)

    def dot(self, other):
        """Inner product with a vector, or row action v . T on a tensor."""
        if isinstance(other, FourVector):
            return inner(self, other)
        if isinstance(other, Rank2Tensor):
            return FourVector((METRIC @ self.c) @ other.m)
        raise TypeError(type(other))

    def __repr__(self):
        return f"FourVector({self.c.tolist()})"


@dataclass(frozen=True)
class Rank2Tensor:
    """Contravariant components T^{mu nu}."""

    m: np.ndarray

    def __init__(self, m):
        arr = _frozen(m)
        if arr.shape != (4, 4):
            raise ValueError("Rank2Tensor needs a 4x4 component matrix")
        object.__setattr__(self, "m", arr)

    @property
    def operator(self) -> np.ndarray:
        """Matrix of the left action on contravariant components, T @ g."""
        return self.m @ METRIC

    def dot(self, other):
        if isinstance(other, FourVector):
            return FourVector(self.operator @ other.c)
        if isinstance(other, Rank2Tensor):
            return Rank2Tensor(self.operator @ other.m)
        raise TypeError(type(other))

    def __add__(self, other: "Rank2Tensor") -> "Rank2Tensor":
        return Rank2Tensor(self.m + other.m)

    def __sub__(self, other: "Rank2Tensor") -> "Rank2Tensor":
        return Rank2Tensor(self.m - other.m)

    def __mul__(self, s: float) -> "Rank2Tensor":
        return Rank2Tensor(self.m * s)

    __rmul__ = __mul__

    def __neg__(self) -> "Rank2Tensor":
        return Rank2Tensor(-self.m)

    def __repr__(self):
        return f"Rank2Tensor({self.m.tolist()})"


#: the metric as a tensor value (acts as identity on four-vectors)
METRIC_TENSOR = Rank2Tensor(METRIC)


# ---------------------------------------------------------------------------
# elementary products
# ---------------------------------------------------------------------------

def inner(a: FourVector, b: FourVector) -> float:
    """-a0 b0 + a1 b1 + a2 b2 + a3 b3."""
    return float(a.c @ METRIC @ b.c)


def outer(a: FourVector, b: FourVector) -> Rank2Tensor:
    """Tensor product a (x) b with (a (x) b) . c = a (b . c)."""
    return Rank2Tensor(np.outer(a.c, b.c))


def wedge_up(a: FourVector, b: FourVector) -> Rank2Tensor:
    """Exterior product a (x) b - b (x) a, antisymmetric."""
    m = np.outer(a.c, b.c)
    return Rank2Tensor(m - m.T)


def trace(t: Rank2Tensor) -> float:
    """Four-trace sum_mu g^{mu mu} T^{mu mu}; trace(metric) = 4."""
    return float(np.trace(METRIC @ t.m))


def anticommutator(a: Rank2Tensor, b: Rank2Tensor) -> Rank2Tensor:
    """A . B + B . A with the metric-contracted matrix action."""
    return Rank2Tensor(a.operator @ b.m + b.operator @ a.m)


# ---------------------------------------------------------------------------
# duality relative to a timelike unit vector
# ---------------------------------------------------------------------------

def dual_vector(omega: Rank2Tensor, u: FourVector, tol: float = DEFAULT_TOL) -> FourVector:
    """Spacelike vector w dual to an antisymmetric space-space tensor.

    Requires omega . u = 0.  Satisfies omega . w = 0, w . u = 0 and
    ||w||^2 = -(1/2) trace(omega . omega).  In the rest frame u = e0 with
    omega = omega_z e1 ^ e2 this returns (0, 0, 0, omega_z), the angular
    velocity with omega . x = -(0, w x x).
    """
    resid = omega.dot(u)
    scale = max(1.0, float(np.max(np.abs(omega.m))))
    if np.max(np.abs(resid.c)) > tol * scale:
        raise ValueError("omega is not space-space w.r.t. u (omega.u != 0)")
    u_low = METRIC @ u.c
    om_low = METRIC @ omega.m @ METRIC
    w = 0.5 * np.einsum("abcd,b,cd->a", LEVI_CIVITA, u_low, om_low)
    return FourVector(w)


def dual_tensor(w: FourVector, u: FourVector) -> Rank2Tensor:
    """Inverse of :func:`dual_vector`: antisymmetric tensor dual to w wrt u."""
    w_low = METRIC @ w.c
    u_low = METRIC @ u.c
    m = np.einsum("abcd,c,d->ab", LEVI_CIVITA, w_low, u_low)
    return Rank2Tensor(m)


# ---------------------------------------------------------------------------
# Lorentz boosts (components of one global frame expressed in another)
# ---------------------------------------------------------------------------

def boost_matrix(v3) -> np.ndarray:
    """Boost taking e0 to the four-velocity of a frame moving with v3, in
    units of c."""
    beta = np.asarray(v3, dtype=float)
    b2 = float(beta @ beta)
    if b2 >= 1.0:
        raise ValueError("superluminal boost velocity")
    lam = np.eye(4)
    if b2 == 0.0:
        return lam
    gamma = 1.0 / np.sqrt(1.0 - b2)
    lam[0, 0] = gamma
    lam[0, 1:] = gamma * beta
    lam[1:, 0] = gamma * beta
    lam[1:, 1:] = np.eye(3) + (gamma - 1.0) * np.outer(beta, beta) / b2
    return lam

