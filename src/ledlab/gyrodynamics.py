"""Fixed-center gyrational dynamics of the coupled field-particle system.

For a spherical charge spinning about a fixed center, the current
f_e(r) (omega(t) x x) keeps the dynamic vector potential exactly in the
l=1 toroidal sector A(x, t) = w(r, t) x x.  Substituting this ansatz into
the Maxwell wave equation turns the field evolution into three scalar
radial wave equations for the Cartesian components of w:

    (1/c^2) d^2_t w_j - d^2_r w_j - (4/r) d_r w_j = (4 pi / c) f_e(r) omega_j(t),

while the electrostatic sector stays the frozen Coulomb field of f_e
(the Gauss constraint is untouched by the divergence-free toroidal
field).  The particle's bare spin obeys Euler's equation with the
rest-frame torque, which also reduces to radial integrals:

    ds_b/dt = (2/3c) int f_e r^2 [ omega x w - d_t w ] 4 pi r^2 dr,

and omega is recovered from s_b through the strictly monotone gyration
curve of the mass profile.  Energy bookkeeping uses the same radial
reduction for the dynamic field energy and the Poynting flux, so that
d/dt [gyrational energy + field energy inside r] + flux(r) = 0 up to
discretization error.

The time integrator is a kick-drift-kick leapfrog with the torque
applied in half-kicks; the outer boundary carries a local outgoing
condition for the l=1 exterior (see GyroSolver.bc).  A generalized
Picard iteration over time histories solves the same semidiscrete
system by successive integration and is compared against the stepper.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .bare_particle import (
    DensityProfile,
    GyrationCurve,
    bare_spin,
    gyrational_mass,
)


@dataclass(frozen=True)
class ToroidalFieldState:
    """Reduced l=1 field: radial grid, mode profiles w and their rate pi.

    A(x) = w(|x|) x x; regularity at the origin forces w even in r.
    """

    r: np.ndarray
    w: np.ndarray      # (n, 3)
    pi: np.ndarray     # (n, 3) = d_t w
    t: float = 0.0

    def w_at(self, rq) -> np.ndarray:
        rq = np.atleast_1d(rq)
        return np.stack([np.interp(rq, self.r, self.w[:, j]) for j in range(3)], axis=-1)

    def w_prime(self) -> np.ndarray:
        return np.gradient(self.w, self.r, axis=0)

    def A(self, x) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        rq = np.linalg.norm(x, axis=-1)
        return np.cross(self.w_at(rq), x)

    def B(self, x) -> np.ndarray:
        """curl A = 2w + r w' - (x^ . w') x."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        rq = np.linalg.norm(x, axis=-1)
        wp = self.w_prime()
        wq = self.w_at(rq)
        wpq = np.stack([np.interp(rq, self.r, wp[:, j]) for j in range(3)], axis=-1)
        out = 2.0 * wq + rq[:, None] * wpq
        pos = rq > 0
        xhat = np.zeros_like(x)
        xhat[pos] = x[pos] / rq[pos, None]
        out -= np.einsum("ki,ki->k", xhat, wpq)[:, None] * x
        return out

    def E_dynamic(self, x, c: float = 1.0) -> np.ndarray:
        """-(1/c) d_t A = -(1/c) pi x x."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        rq = np.linalg.norm(x, axis=-1)
        piq = np.stack([np.interp(rq, self.r, self.pi[:, j]) for j in range(3)], axis=-1)
        return -np.cross(piq, x) / c


@dataclass(frozen=True)
class GyroEvolutionState:
    field: ToroidalFieldState
    sb: np.ndarray
    omega: np.ndarray
    t: float = 0.0


@dataclass
class Trajectory:
    t: np.ndarray
    omega: np.ndarray        # (nt, 3)
    sb: np.ndarray           # (nt, 3)
    se: np.ndarray           # (nt, 3) field spin over the support
    W_b: np.ndarray
    W_field_inside: np.ndarray
    flux: np.ndarray
    r_audit: float
    final_state: GyroEvolutionState


@dataclass
class RelaxationFit:
    omega_inf: float
    rate: float
    log_residual: float      # None when there was no deviation to fit
    window: tuple
    converged: bool
    note: str = None


# Multiple of machine epsilon below which a deviation is round-off: the
# radiated energy against max |W_tot|, |omega| - omega_inf against omega_inf.
ROUNDOFF_MULTIPLE = 1000.0
_EPS = np.finfo(float).eps


@dataclass
class PicardResult:
    times: np.ndarray
    gaps_w: np.ndarray
    gaps_pi: np.ndarray
    gaps_sb: np.ndarray
    n_iter: int
    w: np.ndarray            # (nt, n, 3) final iterate
    pi: np.ndarray
    sb: np.ndarray
    converged: bool

    @property
    def gaps(self) -> np.ndarray:
        """Combined per-iteration sup gap over all state variables."""
        return np.maximum(self.gaps_w, np.maximum(self.gaps_pi, self.gaps_sb))


class CFLError(ValueError):
    pass


class GyroSolver:
    """Radial method-of-lines solver for the fixed-center gyration problem.

    Parameters
    ----------
    fe, fm : charge and mass profiles (same support radius expected)
    dr     : grid spacing (default R/20); R must sit on the grid
    r_max  : outer radius (default 10 R)
    bc     : 'outgoing-l1' (local radiation condition exact for the l=1
             exterior family g'(t-r/c)/c + g(t-r/c)/r of r^2 w, which in
             particular annihilates the static dipole tail) or
             'sommerfeld1' (plain first-order advection of r^2 w; erodes
             the static tail and is kept for comparison only).
    """

    def __init__(self, fe: DensityProfile, fm: DensityProfile, c: float = 1.0,
                 dr: float = None, r_max: float = None, bc: str = "outgoing-l1",
                 omega_cap: float = 0.999):
        if bc not in ("outgoing-l1", "sommerfeld1"):
            raise ValueError(f"unknown boundary condition {bc!r}")
        self.fe = fe
        self.fm = fm
        self.c = c
        self.bc = bc
        self.omega_cap = omega_cap
        R = fe.R
        if dr is None:
            dr = R / 20.0
        n_in = int(round(R / dr))
        if abs(n_in * dr - R) > 1e-12 * R:
            dr = R / n_in  # snap the support radius onto the grid
        if r_max is None:
            r_max = 10.0 * R
        n = int(round(r_max / dr))
        self.dr = dr
        self.r = np.arange(n + 1) * dr
        self.n = n + 1

        self.fe_nodes = self._discretize_profile(fe)
        # coupling weights: W_i with sum W_i g(r_i) ~ int g f_e 4 pi r^2 dr
        self.weights = self.fe_nodes * 4.0 * np.pi * self.r**2 * dr
        self.curve = GyrationCurve(fm, c, omega_cap)
        # staggered flux coefficients r_{i+1/2}^4 of the conservative
        # discretization (r^4 w')' / r^4 of the radial operator
        self._r_half4 = (0.5 * (self.r[:-1] + self.r[1:])) ** 4

    # -- grid setup ---------------------------------------------------------
    def _discretize_profile(self, fe: DensityProfile) -> np.ndarray:
        f = np.zeros(self.n)
        if fe.kind == "shell":
            i = int(round(fe.R / self.dr))
            f[i] = fe.total / (4.0 * np.pi * fe.R**2 * self.dr)
            return f
        if fe.kind == "volume":
            rho = fe.total * 3.0 / (4.0 * np.pi * fe.R**3)
            f[self.r <= fe.R] = rho
            # normalize the trapezoid mass on the grid to the exact total
            mass = np.sum(f * 4.0 * np.pi * self.r**2 * self.dr)
            if mass != 0:
                f *= fe.total / mass
            return f
        rt, ft = fe.table
        f = np.interp(self.r, rt, ft, left=ft[0], right=0.0)
        mass = np.sum(f * 4.0 * np.pi * self.r**2 * self.dr)
        if mass != 0:
            f *= fe.total / mass
        return f

    # -- discrete operators --------------------------------------------------
    def laplacian(self, w: np.ndarray) -> np.ndarray:
        """Conservative form (r^4 w')' / r^4 of d^2_r + (4/r) d_r.

        Flux form makes the semidiscrete field energy balance telescope
        exactly to the boundary, which is what the energy audit measures.
        Origin row by even symmetry of w.
        """
        dr = self.dr
        out = np.zeros_like(w)
        r = self.r
        flux = self._r_half4[:, None] * (w[..., 1:, :] - w[..., :-1, :]) / dr
        out[..., 1:-1, :] = (flux[..., 1:, :] - flux[..., :-1, :]) / (r[1:-1] ** 4 * dr)[:, None]
        out[..., 0, :] = 10.0 * (w[..., 1, :] - w[..., 0, :]) / dr**2
        return out

    def cfl_dt(self, safety: float = 0.3) -> float:
        return safety * self.dr / self.c

    @property
    def cfl_limit(self) -> float:
        return 0.45 * self.dr / self.c

    # -- couplings ------------------------------------------------------------
    def torque(self, w: np.ndarray, pi: np.ndarray, omega: np.ndarray) -> np.ndarray:
        """(2/3c) int f_e r^2 (omega x w - pi) d^3x, reduced radially."""
        wr2 = self.weights * self.r**2
        cross = np.cross(omega, w)
        return (2.0 / (3.0 * self.c)) * np.einsum("i,ij->j", wr2, cross - pi)

    def field_spin_support(self, w: np.ndarray) -> np.ndarray:
        """s_e = (1/c) int x cross A f_e = (2/3c) int f_e r^2 w d^3x."""
        wr2 = self.weights * self.r**2
        return (2.0 / (3.0 * self.c)) * np.einsum("i,ij->j", wr2, w)

    def omega_of_sb(self, sb: np.ndarray) -> np.ndarray:
        smag = float(np.linalg.norm(sb))
        if smag == 0.0:
            return np.zeros(3)
        return self.curve.omega(smag)[0] * sb / smag

    def omega_many(self, sb: np.ndarray) -> np.ndarray:
        """Vectorized spin inversion along a time series (nt, 3), saturated
        at the admissibility cap for transient iterates (the physical
        stepper keeps the hard error)."""
        smag = np.linalg.norm(sb, axis=-1)
        wmag = self.curve.omega(smag, saturate=True)
        out = np.zeros_like(sb)
        pos = smag > 0
        out[pos] = sb[pos] * (wmag[pos] / smag[pos])[:, None]
        return out

    # -- initial data -----------------------------------------------------------
    def stationary_profile(self, omega: np.ndarray) -> np.ndarray:
        """Discrete stationary solution of the radial BVP (exact fixed
        point of the discretized dynamics at the matching spin)."""
        n, dr, r = self.n, self.dr, self.r
        rh4 = self._r_half4
        lower = np.zeros(n)
        diag = np.zeros(n)
        upper = np.zeros(n)
        rhs_scalar = -(4.0 * np.pi / self.c) * self.fe_nodes
        diag[0] = -10.0 / dr**2
        upper[1] = 10.0 / dr**2
        # rows 1 .. n-2; float_power rounds like the scalar r[i] ** 4 (libm
        # pow), so the bands equal a node-by-node assembly bit for bit
        scale = np.float_power(r[1:-1], 4) * dr**2
        lower[:-2] = rh4[:-1] / scale
        diag[1:-1] = -(rh4[1:] + rh4[:-1]) / scale
        upper[2:] = rh4[1:] / scale
        # static outgoing residue: d_r (r^2 w) + r^2 w / r = 0 one-sided
        rn, rm = r[-1], r[-2]
        diag[-1] = rn**2 * (1.0 / dr + 1.0 / rn)
        lower[-2] = -(rm**2) / dr
        rhs_scalar = rhs_scalar.copy()
        rhs_scalar[-1] = 0.0
        ab = np.zeros((3, n))
        ab[0] = upper
        ab[1] = diag
        ab[2] = lower
        shape = solve_banded((1, 1), ab, rhs_scalar)
        return shape[:, None] * np.asarray(omega, dtype=float)[None, :]

    def make_state(self, omega3, field: str = "stationary",
                   scale: float = 1.0, sb: np.ndarray = None) -> GyroEvolutionState:
        """Initial data: stationary, scaled-stationary or zero dynamic field.

        All choices keep the Gauss constraint satisfied (the toroidal
        sector is divergence-free).  When sb is given it overrides the
        bare spin matched to omega3, and omega is re-derived from it.
        """
        omega3 = np.asarray(omega3, dtype=float)
        if field == "stationary":
            w = scale * self.stationary_profile(omega3)
        elif field == "zero":
            w = np.zeros((self.n, 3))
        else:
            raise ValueError(f"unknown field option {field!r}")
        if sb is None:
            sb = bare_spin(self.fm, omega3, self.c)
        else:
            sb = np.asarray(sb, dtype=float)
            omega3 = self.omega_of_sb(sb)
        fld = ToroidalFieldState(self.r, w, np.zeros_like(w), 0.0)
        return GyroEvolutionState(fld, sb, omega3, 0.0)

    # -- stepping ------------------------------------------------------------
    def _accel(self, w: np.ndarray, omega: np.ndarray) -> np.ndarray:
        a = self.c**2 * self.laplacian(w)
        a += (4.0 * np.pi * self.c) * self.fe_nodes[:, None] * omega[None, :]
        return a

    def _boundary_kick(self, w: np.ndarray, pi: np.ndarray, dt: float) -> None:
        """Advance pi at the outer node by the boundary condition."""
        r, dr, c = self.r, self.dr, self.c
        rn, rm = r[-1], r[-2]
        un, um = rn**2 * w[-1], rm**2 * w[-2]
        if self.bc == "sommerfeld1":
            pi[-1] = -(c / rn**2) * (un - um) / dr
            return
        vn = rn**2 * pi[-1]
        vm = rm**2 * pi[-2]
        a_diag = -c / dr - c / rn
        b = (c / dr) * vm - (c**2 / rn) * (un - um) / dr - c**2 * un / rn**2
        v_new = (vn * (1.0 + 0.5 * a_diag * dt) + dt * b) / (1.0 - 0.5 * a_diag * dt)
        pi[-1] = v_new / rn**2

    def step(self, state: GyroEvolutionState, dt: float) -> GyroEvolutionState:
        """One kick-drift-kick step with a conservative torque coupling.

        The electric part of the torque is applied as -(2/3c) int f r^2
        (w_new - w_old), the exact negative of the field-spin change over
        the step: for an aligned axis s_b + s_e is then conserved to
        machine precision, independent of dt.
        """
        if dt > self.cfl_limit * (1.0 + 1e-12):
            raise CFLError(f"dt = {dt:g} exceeds the CFL limit {self.cfl_limit:g}")
        w0 = state.field.w
        w = w0.copy()
        pi = state.field.pi.copy()
        sb = state.sb.copy()

        # predictor for the half-step gyration vector
        s_half = sb + 0.5 * dt * self.torque(w, pi, state.omega)
        om_half = self.omega_of_sb(s_half)

        acc = self._accel(w, om_half)
        pi[:-1] += 0.5 * dt * acc[:-1]
        self._boundary_kick(w, pi, 0.5 * dt)

        w += dt * pi

        acc = self._accel(w, om_half)
        pi[:-1] += 0.5 * dt * acc[:-1]
        self._boundary_kick(w, pi, 0.5 * dt)

        w_mid = 0.5 * (w0 + w)
        wr2 = self.weights * self.r**2
        sb = sb + (2.0 / (3.0 * self.c)) * (
            dt * np.einsum("i,ij->j", wr2, np.cross(om_half, w_mid))
            - np.einsum("i,ij->j", wr2, w - w0))
        omega = self.omega_of_sb(sb)

        fld = ToroidalFieldState(self.r, w, pi, state.t + dt)
        return GyroEvolutionState(fld, sb, omega, state.t + dt)

    # -- diagnostics ------------------------------------------------------------
    def dynamic_energy_inside(self, w: np.ndarray, pi: np.ndarray, i_audit: int) -> float:
        """Dynamic-sector field energy inside r[i_audit].

        The Coulomb part is constant in time and excluded; the E cross
        term vanishes exactly by the angular reduction.  The magnetic
        part is written in the integrated-by-parts form

            (1/3) int r^4 |w'|^2 dr + (2/3) r^3 |w|^2 |_boundary

        on the staggered cells of the conservative operator, so that the
        discrete balance against the stepper telescopes.
        """
        r = self.r
        dr = self.dr
        e_part = np.sum(np.sum(pi[1:i_audit + 1]**2, axis=1)
                        * r[1:i_audit + 1]**4) * dr / (3.0 * self.c**2)
        grad = (w[1:i_audit + 1] - w[:i_audit]) / dr
        b_part = (np.sum(self._r_half4[:i_audit] * np.sum(grad**2, axis=1)) * dr / 3.0
                  + (2.0 / 3.0) * r[i_audit]**3 * float(w[i_audit] @ w[i_audit]))
        return float(e_part + b_part)

    def poynting_flux(self, w: np.ndarray, pi: np.ndarray, i_audit: int) -> float:
        """Outward Poynting flux through the sphere r[i_audit]:
        -(2/3) r^3 pi . (2w + r w'), with w' on the staggered cell."""
        r = self.r
        ra = r[i_audit]
        wp = (w[i_audit + 1] - w[i_audit - 1]) / (2.0 * self.dr)
        return float(-(2.0 / 3.0) * ra**3
                     * np.dot(pi[i_audit], 2.0 * w[i_audit] + ra * wp))

    # -- drivers -------------------------------------------------------------
    def run(self, state: GyroEvolutionState, horizon: float, dt: float = None,
            record_every: int = 2, r_audit: float = None) -> Trajectory:
        if dt is None:
            dt = self.cfl_dt()
        if r_audit is None:
            r_audit = min(0.8 * self.r[-1], 4.0 * self.fe.R)
        i_audit = int(round(r_audit / self.dr))
        i_audit = min(max(i_audit, int(round(self.fe.R / self.dr)) + 1), self.n - 2)
        n_steps = int(np.ceil(horizon / dt))

        rec_t, rec_om, rec_sb, rec_se, rec_wb, rec_wf, rec_fl = [], [], [], [], [], [], []

        def record(s):
            rec_t.append(s.t)
            rec_om.append(s.omega)
            rec_sb.append(s.sb)
            rec_se.append(self.field_spin_support(s.field.w))
            rec_wb.append(self.curve.mass(np.linalg.norm(s.omega)) * self.c**2)
            rec_wf.append(self.dynamic_energy_inside(s.field.w, s.field.pi, i_audit))
            rec_fl.append(self.poynting_flux(s.field.w, s.field.pi, i_audit))

        record(state)
        for k in range(n_steps):
            state = self.step(state, dt)
            if (k + 1) % record_every == 0 or k == n_steps - 1:
                record(state)

        return Trajectory(np.array(rec_t), np.array(rec_om), np.array(rec_sb),
                          np.array(rec_se), np.array(rec_wb), np.array(rec_wf),
                          np.array(rec_fl), self.r[i_audit], state)

    def predicted_equilibrium(self, state: GyroEvolutionState) -> float:
        """|omega| of the stationary state conserving s_b + s_e.

        For a fixed rotation axis the support spin s_b + s_e is an exact
        (machine-level) invariant of the discrete dynamics, so the final
        gyration speed solves sigma(w) + kappa w = |s_b + s_e|(0) with
        kappa the field-spin coefficient of the discrete stationary mode.
        """
        from scipy.optimize import brentq

        shape = self.stationary_profile(np.array([0.0, 0.0, 1.0]))[:, 2]
        kappa = (2.0 / (3.0 * self.c)) * float(
            np.sum(self.weights * self.r**2 * shape))
        s_tot = float(np.linalg.norm(
            state.sb + self.field_spin_support(state.field.w)))
        cap = self.curve.omega_cap

        def f(w):
            return float(self.curve.sigma(w)) + kappa * w - s_tot

        if s_tot == 0.0:
            return 0.0
        return brentq(f, 0.0, cap, xtol=4.0 * _EPS * cap, rtol=4.0 * _EPS)

    def run_to_stationary(self, state: GyroEvolutionState, horizon: float,
                          dt: float = None, smooth_time: float = None) -> tuple:
        """Relax toward the stationary state; log-linear fit of the decay.

        Returns (trajectory, fit).  The deviation |omega(t)| - omega_inf
        (omega_inf from the exact spin invariant) rings at the light-
        crossing scale, so its RMS envelope over a window of two crossing
        times is fitted instead of the raw signal; a box average of an
        exponentially decaying oscillation is exactly exponential at the
        same rate.  The fit window starts once the envelope has dropped
        below half its peak and stops at the numerical floor or before
        the first outer-boundary reflection returns; the reported
        residual is the RMS log-misfit relative to the total logarithmic
        drop across the window.
        """
        traj = self.run(state, horizon, dt, record_every=1)
        t = traj.t
        y = np.linalg.norm(traj.omega, axis=1)
        try:
            y_inf = self.predicted_equilibrium(state)
        except ValueError:
            y_inf = float(np.median(y[-max(len(y) // 10, 4):]))
        if smooth_time is None:
            smooth_time = 2.0 * self.fe.R / self.c
        dt_rec = t[1] - t[0] if len(t) > 1 else 1.0
        width = min(max(int(round(smooth_time / dt_rec)), 1), len(y))
        sm = np.sqrt(np.convolve((y - y_inf) ** 2,
                                 np.ones(width) / width, mode="same"))
        sm_max = float(np.max(sm))
        if sm_max <= ROUNDOFF_MULTIPLE * _EPS * y_inf:
            return traj, RelaxationFit(y_inf, 0.0, None, (t[0], t[-1]), True,
                                       note="no deviation to fit")
        t_reflect = 0.9 * 2.0 * self.r[-1] / self.c
        pre = t < t_reflect
        npre = int(np.count_nonzero(pre))
        floor = float(np.median(sm[pre][-max(npre // 5, 2):])) if npre > 4 else 0.0
        converged = floor < 5e-2 * sm_max
        i0 = int(np.argmax(sm))
        i_start = i0 + int(np.argmax(sm[i0:] < 0.5 * sm_max))
        cut = max(12.0 * floor, 1e-13 * max(y_inf, 1.0))
        below = np.nonzero(sm[i_start:] < cut)[0]
        i_stop = i_start + int(below[0]) if below.size else len(sm)
        i_stop = min(i_stop, int(np.searchsorted(t, t_reflect)))
        if i_stop - i_start < 8:
            i_stop = min(len(sm), i_start + max(8, (len(sm) - i_start) // 2))
        tw = t[i_start:i_stop]
        dw = np.maximum(sm[i_start:i_stop], 1e-300)
        coef = np.polyfit(tw, np.log(dw), 1)
        resid = np.log(dw) - np.polyval(coef, tw)
        drop = max(abs(coef[0]) * (tw[-1] - tw[0]), 1e-30)
        log_residual = float(np.sqrt(np.mean(resid**2)) / drop)
        fit = RelaxationFit(y_inf, float(-coef[0]), log_residual,
                            (float(tw[0]), float(tw[-1])), converged)
        return traj, fit

    def energy_audit(self, traj: Trajectory) -> dict:
        """Residual of d/dt [W_b + W_field(<r_audit)] + flux(r_audit).

        Returns the centered-difference residual series and the cumulative
        defect |Delta W_tot + int flux dt|, normalized by the radiated
        energy int flux dt.  A radiated energy within ROUNDOFF_MULTIPLE
        machine epsilons of max |W_tot| is round-off, and the normalized
        defect is then None.
        """
        t = traj.t
        wtot = traj.W_b + traj.W_field_inside
        radiated = float(np.trapezoid(traj.flux, t))
        resid = np.gradient(wtot, t) + traj.flux
        defect = float((wtot[-1] - wtot[0]) + radiated)
        resolved = abs(radiated) > ROUNDOFF_MULTIPLE * _EPS * np.max(np.abs(wtot))
        return {
            "t": t,
            "residual": resid,
            "radiated": radiated,
            "cumulative_defect": defect,
            "normalized_defect": abs(defect) / abs(radiated) if resolved else None,
        }

    # -- generalized Picard iteration ---------------------------------------
    def picard_iterate(self, state: GyroEvolutionState, n_max: int,
                       horizon: float, dt: float = None,
                       stop_gap: float = 0.0) -> PicardResult:
        """Successive integration of the quasi-explicit system.

        Iterate n+1 integrates the right-hand sides evaluated on iterate n
        over [0, horizon] (trapezoid in time), starting from histories
        constant at the initial data with vanishing rates.  Gap diagnostics
        are sup-norms between consecutive iterates; in the contraction
        regime the tail gaps shrink geometrically, after a transient whose
        length scales with horizon * c / dr (the norm of the discrete
        spatial operator).
        """
        from scipy.integrate import cumulative_trapezoid

        if dt is None:
            dt = self.cfl_dt()
        nt = int(np.ceil(horizon / dt))
        times = np.linspace(0.0, nt * dt, nt + 1)

        w = np.repeat(state.field.w[None], nt + 1, axis=0)
        pi = np.repeat(state.field.pi[None], nt + 1, axis=0)
        sb = np.repeat(state.sb[None], nt + 1, axis=0)

        def cumint(f):
            return cumulative_trapezoid(f, times, axis=0, initial=0.0)

        gaps_w, gaps_pi, gaps_sb = [], [], []
        converged = False
        wr2 = self.weights * self.r**2
        for it in range(n_max):
            omega = self.omega_many(sb)
            rhs_pi = self.c**2 * self.laplacian(w)
            rhs_pi += (4.0 * np.pi * self.c) * self.fe_nodes[None, :, None] * omega[:, None, :]
            # boundary row follows the same outgoing condition as the stepper
            rn, rm = self.r[-1], self.r[-2]
            un = rn**2 * w[:, -1]
            um = rm**2 * w[:, -2]
            vn = rn**2 * pi[:, -1]
            vm = rm**2 * pi[:, -2]
            if self.bc == "sommerfeld1":
                rhs_pi[:, -1] = 0.0
            else:
                vdot = (-(self.c / self.dr) * (vn - vm) - (self.c / rn) * vn
                        - (self.c**2 / rn) * (un - um) / self.dr
                        - self.c**2 * un / rn**2)
                rhs_pi[:, -1] = vdot / rn**2

            cross = np.cross(omega[:, None, :], w)
            rhs_sb = (2.0 / (3.0 * self.c)) * np.einsum("i,kij->kj", wr2, cross - pi)

            w_new = state.field.w[None] + cumint(pi)
            pi_new = state.field.pi[None] + cumint(rhs_pi)
            sb_new = state.sb[None] + cumint(rhs_sb)

            gw = float(np.max(np.abs(w_new - w)))
            gp = float(np.max(np.abs(pi_new - pi)))
            gs = float(np.max(np.abs(sb_new - sb)))
            gaps_w.append(gw)
            gaps_pi.append(gp)
            gaps_sb.append(gs)
            w, pi, sb = w_new, pi_new, sb_new
            if (stop_gap > 0 and len(gaps_w) >= 2
                    and max(gaps_w[-1], gaps_pi[-1], gaps_sb[-1]) < stop_gap
                    and max(gaps_w[-2], gaps_pi[-2], gaps_sb[-2]) < stop_gap):
                converged = True
                break

        return PicardResult(times, np.array(gaps_w), np.array(gaps_pi),
                            np.array(gaps_sb), len(gaps_w), w, pi, sb, converged)
