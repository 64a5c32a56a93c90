"""Worldline and gyrograph kinematics.

Four-velocity construction, the Fermi-Walker tensor u_dot ^ u, Thomas
precession of the co-moving non-rotating frame, and admissibility checks
on a (worldline sample, gyrograph sample) pair: unit four-velocity,
space-space gyration tensor, subluminal equatorial speed and the
rest-frame acceleration bound |a| R < c^2 that keeps the particle history
ordered.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .minkowski import (
    DEFAULT_TOL,
    FourVector,
    Rank2Tensor,
    dual_vector,
    inner,
    trace,
    wedge_up,
)


def four_velocity(v3, c: float = 1.0) -> FourVector:
    """u = (gamma, gamma v/c), normalized so that u.u = -1."""
    v = np.asarray(v3, dtype=float)
    b2 = float(v @ v) / c**2
    if b2 >= 1.0:
        raise ValueError(f"superluminal three-velocity |v| = {np.sqrt(b2)} c")
    gamma = 1.0 / np.sqrt(1.0 - b2)
    return FourVector([gamma, *(gamma * v / c)])


def fermi_walker(u: FourVector, a: FourVector, tol: float = DEFAULT_TOL) -> Rank2Tensor:
    """Fermi-Walker tensor a ^ u for four-velocity u and four-acceleration a.

    Acting on u it returns -a; it annihilates vectors orthogonal to
    span{u, a}.
    """
    if abs(inner(u, u) + 1.0) > tol:
        raise ValueError("u is not unit timelike")
    scale = max(1.0, float(np.max(np.abs(a.c))))
    if abs(inner(u, a)) > tol * scale:
        raise ValueError("a is not orthogonal to u")
    return wedge_up(a, u)


def thomas_precession(v3, a3, c: float = 1.0):
    """Thomas angular velocity (gamma - 1) (a x v) / |v|^2.

    Defined as zero at v = 0 by continuous extension (the limit of the
    formula is 0 since gamma - 1 = O(|v|^2)).
    """
    v = np.asarray(v3, dtype=float)
    a = np.asarray(a3, dtype=float)
    v2 = float(v @ v)
    if v2 == 0.0:
        return np.zeros(3)
    if v2 >= c**2:
        raise ValueError("superluminal three-velocity")
    gamma = 1.0 / np.sqrt(1.0 - v2 / c**2)
    return (gamma - 1.0) * np.cross(a, v) / v2


@dataclass(frozen=True)
class WorldlineSample:
    """One point of a worldline: proper time, event, velocity, acceleration."""

    tau: float
    z: FourVector
    u: FourVector
    a: FourVector


@dataclass(frozen=True)
class GyrographSample:
    """One point of a gyrograph: the gyration tensor and its dual vector."""

    tau: float
    omega_tensor: Rank2Tensor
    w: FourVector


@dataclass(frozen=True)
class AdmissibilityFlags:
    """Residuals and pass flags for the state constraints.

    Residuals are kept numeric (not just booleans) for diagnostics:
      unit_velocity_residual   |u.u + 1|
      gyration_residual        max |(Omega_E . u)^mu|
      equatorial_speed         |w_E| R / c  (must be < 1)
      rest_acceleration        |a_rest| R / c^2  (must be < 1)
    """

    unit_velocity_residual: float
    gyration_residual: float
    equatorial_speed: float
    rest_acceleration: float
    tol: float

    @property
    def velocity_ok(self) -> bool:
        return self.unit_velocity_residual <= self.tol

    @property
    def gyration_ok(self) -> bool:
        return self.gyration_residual <= self.tol

    @property
    def equatorial_ok(self) -> bool:
        return self.equatorial_speed < 1.0

    @property
    def acceleration_ok(self) -> bool:
        return self.rest_acceleration < 1.0

    @property
    def all_ok(self) -> bool:
        return (self.velocity_ok and self.gyration_ok
                and self.equatorial_ok and self.acceleration_ok)


def validate_state(w: WorldlineSample, g: GyrographSample, radius: float,
                   c: float = 1.0, tol: float = DEFAULT_TOL) -> AdmissibilityFlags:
    """Report the admissibility residuals of a kinematical state.

    Pure reporting: nothing is rejected here; the caller decides what to
    do with a failed bound.
    """
    u = w.u
    unit_res = abs(inner(u, u) + 1.0)
    gy_res = float(np.max(np.abs(g.omega_tensor.dot(u).c)))

    # equatorial speed: |w_E| R < c, with ||w_E||^2 = -(1/2) tr(Om.Om)
    w2 = -0.5 * trace(g.omega_tensor.dot(g.omega_tensor))
    w_norm = np.sqrt(max(w2, 0.0)) * c  # tensor stores omega/c
    equatorial = w_norm * radius / c

    # rest-frame acceleration magnitude: |a_rest|^2 = a.a for a orthogonal
    # to u, times c^2 for the unit normalization used here
    a2 = inner(w.a, w.a)
    a_rest = np.sqrt(max(a2, 0.0)) * c**2
    rest_acc = a_rest * radius / c**2

    return AdmissibilityFlags(
        unit_velocity_residual=unit_res,
        gyration_residual=gy_res,
        equatorial_speed=float(equatorial),
        rest_acceleration=float(rest_acc),
        tol=tol,
    )


def gyration_tensor(omega3, u: FourVector, c: float = 1.0) -> Rank2Tensor:
    """Gyration tensor dual to the angular velocity omega3 in the u frame.

    Normalized so that Omega . x = -(0, omega x x)/c in the rest frame;
    the element four-velocity of a rigidly gyrating charge is then
    U = u - Omega . x with space part (omega x x)/c.
    """
    from .minkowski import dual_tensor

    w4 = FourVector([0.0, *(np.asarray(omega3, dtype=float) / c)])
    # w must be expressed orthogonal to u; for u = e0 this is automatic
    if abs(inner(w4, u)) > DEFAULT_TOL * max(1.0, float(np.max(np.abs(w4.c)))):
        raise ValueError("omega3 must live in the space slice of u")
    return dual_tensor(w4, u)


def angular_velocity(omega_tensor: Rank2Tensor, u: FourVector, c: float = 1.0) -> np.ndarray:
    """Inverse of :func:`gyration_tensor`: space part of c * dual vector."""
    return dual_vector(omega_tensor, u).space * c
