"""Initial-data consistency classifiers for the singular particle limits.

The point-mass (Nodvik) and purely electromagnetic (Abraham) limits turn
evolution equations into constraints on the initial fields and on the
particle's velocity/angular-velocity data.  With the charge-weighted
averages <g> = (-e)^{-1} int g f_e d^3x the constraints read

  Nodvik          t_E + (1/c) omega x sigma_B = 0
  Abraham spin    c <E> + qdot x <B> - (<x(x)B> - tr<x(x)B> I) . omega = 0
                  c <x cross E> + omega x <x x.B> = 0
  Abraham no-spin c <E> + qdot x <B> = 0

with t_E = int x cross E f_e and sigma_B = int x (x.B) f_e, in units with
c = 1.  Every moment is linear in the field and of degree at most 2 in x,
so field_moments forms them all in one pass on the cached support rule:
two matrix products of the weighted monomials with E and B, of which
each moment is a 3-vector contraction.

Each model is classified by assembling the constraints as one linear
system in the unknown (qdot, omega): inconsistent when no solution
exists, consistent when the data impose no restriction, conditionally
consistent when a lower-dimensional admissible family remains.  The
emitted family is the minimum-norm particular solution plus a nullspace
basis; substituting any member back into the constraints gives residuals
at solver tolerance.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .bare_particle import DensityProfile
from .fields import NumericalFailure, StationaryState

ZERO_TOL = 1e-10


def _cross_matrix(v: np.ndarray) -> np.ndarray:
    """[v]_x with [v]_x w = v cross w."""
    return np.array([[0.0, -v[2], v[1]],
                     [v[2], 0.0, -v[0]],
                     [-v[1], v[0], 0.0]])


@dataclass(frozen=True)
class InitialData:
    """Charge profile plus initial field snapshot (vectorized callables)."""

    fe: DensityProfile
    e_fn: callable
    b_fn: callable


@dataclass(frozen=True)
class Moments:
    """Charge-weighted field moments entering the constraint algebra."""

    mean_e: np.ndarray          # <E>
    mean_b: np.ndarray          # <B>
    torque_e: np.ndarray        # t_E = int x cross E f_e (unnormalized)
    sigma_b: np.ndarray         # int x (x.B) f_e (unnormalized)
    mean_x_cross_e: np.ndarray  # <x cross E>
    mean_x_xb: np.ndarray       # <x x.B>
    xb_traceless: np.ndarray    # <x (x) B> - tr <x (x) B> I
    e_scale: float
    b_scale: float
    radius: float

    def as_dict(self) -> dict:
        return {
            "mean_E": self.mean_e.tolist(),
            "mean_B": self.mean_b.tolist(),
            "torque_E": self.torque_e.tolist(),
            "sigma_B": self.sigma_b.tolist(),
            "mean_x_cross_E": self.mean_x_cross_e.tolist(),
            "mean_x_xdotB": self.mean_x_xb.tolist(),
            "xB_traceless": self.xb_traceless.tolist(),
        }


def field_moments(data: InitialData) -> Moments:
    """Moments of the data on the support rule, from the (10, N) matrix P of
    the weighted monomials w {1, x, y, z, xx, xy, xz, yy, yz, zz} on its N
    nodes: P E holds S_E = sum w E and X_E[i] = sum w x_i E, P B holds S_B,
    X_B and Q_B[ij] = sum w x_i x_j B, and <E> = S_E/q, <B> = S_B/q,
    t_E = eps . X_E, sigma_B,i = sum_j Q_B[i,j,j], <x (x) B> = X_B/q.  A
    zero or subnormal total raises ValueError, a moment that is not finite
    NumericalFailure."""
    q = data.fe.total
    if not abs(q) >= sys.float_info.min:   # the smallest normal double
        raise ValueError(f"the profile's total charge {q:g} is zero or subnormal: "
                         f"no charge-weighted average can be formed")
    pts, w = data.fe.support_rule()
    with np.errstate(over="ignore", invalid="ignore"):
        e = np.asarray(data.e_fn(pts), dtype=float)
        b = np.asarray(data.b_fn(pts), dtype=float)
        x = pts.T
        p = np.empty((10, len(w)))
        p[0] = w
        np.multiply(w, x, out=p[1:4])
        np.multiply(p[1], x, out=p[4:7])
        np.multiply(p[2], x[1:], out=p[7:9])
        np.multiply(p[3], x[2], out=p[9])
        t_e = p[:4] @ e
        t_b = p @ b
        mean_e = t_e[0] / q
        mean_b = t_b[0] / q
        torque_e = (t_e[1:] - t_e[1:].T)[[1, 2, 0], [2, 0, 1]]
        sigma_b = np.trace(t_b[[[4, 5, 6], [5, 7, 8], [6, 8, 9]]], axis1=1, axis2=2)
        mean_xce = torque_e / q
        mean_xxb = sigma_b / q
        xb = t_b[1:4] / q
        xb_traceless = xb - np.trace(xb) * np.eye(3)
    if not np.isfinite(np.concatenate((mean_e, mean_b, torque_e, sigma_b, mean_xce, mean_xxb,
                                       xb_traceless.ravel()))).all():
        raise NumericalFailure("the field moments of these data are not finite")
    return Moments(mean_e, mean_b, torque_e, sigma_b, mean_xce, mean_xxb,
                   xb_traceless,
                   e_scale=float(np.max(np.abs(e))),
                   b_scale=float(np.max(np.abs(b))),
                   radius=data.fe.R)


@dataclass(frozen=True)
class ConstraintReport:
    model: str
    verdict: str                      # consistent | conditionally-consistent | inconsistent
    moments: Moments
    dim_family: int
    dim_full: int
    particular: dict = None           # minimum-norm solution {qdot0, omega0}
    family_basis: list = field(default_factory=list)
    residual: float = 0.0
    description: str = ""

    def family_member(self, coeffs) -> dict:
        """Particular solution shifted along the nullspace basis."""
        coeffs = np.atleast_1d(np.asarray(coeffs, dtype=float))
        if len(coeffs) != len(self.family_basis):
            raise ValueError("one coefficient per basis vector")
        y = np.concatenate([np.asarray(self.particular["qdot0"]),
                            np.asarray(self.particular["omega0"])])
        for cc, base in zip(coeffs, self.family_basis):
            y = y + cc * np.asarray(base)
        return {"qdot0": y[:3], "omega0": y[3:]}

    def as_dict(self) -> dict:
        out = {
            "model": self.model,
            "verdict": self.verdict,
            "dim_family": self.dim_family,
            "dim_full": self.dim_full,
            "residual": self.residual,
            "description": self.description,
            "moments": self.moments.as_dict(),
        }
        if self.particular is not None:
            out["particular"] = {k: np.asarray(v).tolist()
                                 for k, v in self.particular.items()}
            out["family_basis"] = [np.asarray(b).tolist() for b in self.family_basis]
        return out


def _classify(a_rows: np.ndarray, b_rows: np.ndarray, scale: float,
              model: str, moments: Moments, active: np.ndarray) -> ConstraintReport:
    """Solve A y = b in the least-squares sense and classify, from one SVD
    A = U S V^T (Golub and Van Loan, Matrix Computations, sec. 5.5): the
    rank counts the singular values above 1e-12 of the largest, V's last
    rows span the null space, and y = V_r (U_r^T b / S_r) is the
    minimum-norm solution.  A zero A has rank 0 and V = I.

    `active` masks which unknowns the model owns (Nodvik: omega only;
    no-spin Abraham: qdot only); inactive unknowns are reported free.
    """
    n_active = int(np.count_nonzero(active))
    a = a_rows[:, active]
    u, s, vt = np.linalg.svd(a)
    rank = int(np.sum(s > max(s[0], 1e-300) * 1e-12))
    y_act = vt[:rank].T @ ((u[:, :rank].T @ b_rows) / s[:rank])
    resid = float(np.linalg.norm(a @ y_act - b_rows))
    dim = n_active - rank
    if resid > ZERO_TOL * max(scale, 1e-300):
        return ConstraintReport(model, "inconsistent", moments, 0, n_active,
                                None, [], resid,
                                "constraints admit no solution")
    y_full = np.zeros(6)
    y_full[active] = y_act
    basis = np.zeros((dim, 6))
    basis[:, active] = vt[rank:]
    verdict = "consistent" if dim == n_active else "conditionally-consistent"
    desc = (f"{dim}-parameter family of admissible data"
            if verdict == "conditionally-consistent"
            else "no restriction beyond the field constraints")
    return ConstraintReport(model, verdict, moments, dim, n_active,
                            {"qdot0": y_full[:3], "omega0": y_full[3:]},
                            list(basis), resid, desc)


def nodvik_check(data: InitialData) -> ConstraintReport:
    """Point-mass-limit torque constraint t_E + (1/c) omega x sigma_B = 0.

    sigma_B = 0 requires t_E = 0 (omega then free); sigma_B != 0 requires
    t_E . sigma_B = 0, leaving the one-parameter family
    omega = c t_E x sigma_B / |sigma_B|^2 + alpha sigma_B.
    """
    m = field_moments(data)
    a = np.zeros((3, 6))
    a[:, 3:] = -_cross_matrix(m.sigma_b)
    b = -m.torque_e
    scale = abs(data.fe.total) * m.radius * max(m.e_scale, m.b_scale * m.radius, 1e-300)
    return _classify(a, b, scale, "nodvik", m,
                     np.array([False] * 3 + [True] * 3))


def abraham_spin_check(data: InitialData) -> ConstraintReport:
    """Purely electromagnetic model with spin: both degenerate equations."""
    m = field_moments(data)
    a = np.zeros((6, 6))
    b = np.zeros(6)
    # c <E> + qdot x <B> - M . omega = 0
    a[:3, :3] = -_cross_matrix(m.mean_b)
    a[:3, 3:] = -m.xb_traceless
    b[:3] = -m.mean_e
    # c <x cross E> + omega x <x x.B> = 0
    a[3:, 3:] = -_cross_matrix(m.mean_x_xb)
    b[3:] = -m.mean_x_cross_e
    scale = max(m.e_scale, m.b_scale * max(1.0, m.radius))
    return _classify(a, b, scale, "abraham_spin", m,
                     np.array([True] * 6))


def abraham_nospin_check(data: InitialData) -> ConstraintReport:
    """Spinless Abraham constraint c <E> + qdot x <B> = 0 at the instant."""
    m = field_moments(data)
    a = np.zeros((3, 6))
    a[:, :3] = -_cross_matrix(m.mean_b)
    b = -m.mean_e
    scale = max(m.e_scale, m.b_scale)
    return _classify(a, b, scale, "abraham_nospin", m,
                     np.array([True] * 3 + [False] * 3))


def constraint_residuals(data: InitialData, model: str, qdot0, omega0) -> float:
    """Residual norm of the defining constraint equations at (qdot0, omega0).

    Evaluated from the field moments exactly as the equations are written,
    normalized by the moment scale.
    """
    m = field_moments(data)
    qdot0 = np.asarray(qdot0, dtype=float)
    omega0 = np.asarray(omega0, dtype=float)
    if model == "nodvik":
        r = m.torque_e + np.cross(omega0, m.sigma_b)
        scale = abs(data.fe.total) * m.radius * max(m.e_scale, m.b_scale, 1e-300)
        return float(np.linalg.norm(r)) / scale
    if model == "abraham_spin":
        r1 = m.mean_e + np.cross(qdot0, m.mean_b) - m.xb_traceless @ omega0
        r2 = m.mean_x_cross_e + np.cross(omega0, m.mean_x_xb)
        scale = max(m.e_scale, m.b_scale * max(1.0, m.radius), 1e-300)
        return float(np.sqrt(np.linalg.norm(r1)**2 + np.linalg.norm(r2)**2)) / scale
    if model == "abraham_nospin":
        r = m.mean_e + np.cross(qdot0, m.mean_b)
        scale = max(m.e_scale, m.b_scale, 1e-300)
        return float(np.linalg.norm(r)) / scale
    raise ValueError(f"unknown model {model!r}")


# ---------------------------------------------------------------------------
# built-in scenarios
# ---------------------------------------------------------------------------

def make_initial_data(fe: DensityProfile, e_uniform=(0.0, 0.0, 0.0),
                      b_uniform=(0.0, 0.0, 0.0), include_coulomb: bool = True,
                      e_curl: float = 0.0) -> InitialData:
    """Analytic Gauss-consistent data: Coulomb self-field plus a uniform E,
    a uniform B and an optional divergence-free curl field
    e_curl (-y, x, 0) used to engineer a nonzero electric torque."""
    e_uniform = np.asarray(e_uniform, dtype=float)
    b_uniform = np.asarray(b_uniform, dtype=float)
    coul = StationaryState(fe, np.zeros(3)) if include_coulomb else None

    def e_fn(pts):
        pts = np.atleast_2d(pts)
        out = np.tile(e_uniform, (len(pts), 1))
        if coul is not None:
            out = out + coul.E(pts)
        if e_curl:
            out = out + e_curl * np.stack(
                [-pts[:, 1], pts[:, 0], np.zeros(len(pts))], axis=-1)
        return out

    def b_fn(pts):
        pts = np.atleast_2d(pts)
        return np.tile(b_uniform, (len(pts), 1))

    return InitialData(fe, e_fn, b_fn)


SCENARIOS = {
    "uniform-E-coulomb": dict(e_uniform=(0.05, 0.0, 0.0)),
    "coulomb-only": dict(),
    "uniform-B": dict(b_uniform=(0.0, 0.0, 0.08)),
    "uniform-EB-crossed": dict(e_uniform=(0.03, 0.0, 0.0), b_uniform=(0.0, 0.0, 0.08)),
    "curlE-uniform-B": dict(e_curl=0.04, b_uniform=(0.0, 0.0, 0.08)),
}


def build_scenario(name: str) -> tuple:
    """Resolve 'scenario-model' names like 'uniform-E-coulomb-nodvik'.

    Returns (InitialData, model) on the unit shell of charge -1.  The
    scenario part indexes SCENARIOS; the model suffix selects the
    classifier.
    """
    models = ("nodvik", "abraham-nospin", "abraham")
    model = None
    base = name
    for m in models:
        if name.endswith("-" + m):
            model = {"nodvik": "nodvik", "abraham": "abraham_spin",
                     "abraham-nospin": "abraham_nospin"}[m]
            base = name[: -(len(m) + 1)]
            break
    if model is None or base not in SCENARIOS:
        raise KeyError(f"unknown scenario {name!r}")
    return make_initial_data(DensityProfile.shell(-1.0, 1.0), **SCENARIOS[base]), model


CHECKS = {"nodvik": nodvik_check, "abraham_spin": abraham_spin_check,
          "abraham_nospin": abraham_nospin_check}


def run_check(data: InitialData, model: str) -> ConstraintReport:
    """The model's classifier; a non-finite residual raises NumericalFailure."""
    with np.errstate(over="ignore", invalid="ignore"):
        report = CHECKS[model](data)
    if not math.isfinite(report.residual):
        raise NumericalFailure(f"the {model} constraint residual is {report.residual:g}")
    return report
