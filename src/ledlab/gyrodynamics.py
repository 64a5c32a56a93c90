"""Fixed-center gyrational dynamics of the coupled field-particle system.

For a spherical charge spinning about a fixed center, the current
f_e(r) (omega(t) x x) keeps the dynamic vector potential exactly in the
l=1 toroidal sector A(x, t) = w(r, t) e x x.  Every run starts with
omega, s_b and w on one axis e (`make_state`), which then never moves, so
the solver carries the signed amplitudes along it: one scalar radial
wave equation, in Gaussian units with c = 1,

    d^2_t w - d^2_r w - (4/r) d_r w = 4 pi f_e(r) omega(t),

while the electrostatic sector stays the frozen Coulomb field of f_e
(the Gauss constraint is untouched by the divergence-free toroidal
field).  The particle's bare spin obeys Euler's equation with the
rest-frame torque, which also reduces to a radial integral, where
omega x w vanishes on the fixed axis:

    ds_b/dt = (2/3) int f_e r^2 [ omega x w - d_t w ] 4 pi r^2 dr,

and omega is recovered from s_b through the strictly monotone gyration
curve of the mass profile.  Energy bookkeeping uses the same radial
reduction for the dynamic field energy and the Poynting flux, so that
d/dt [gyrational energy + field energy inside r] + flux(r) = 0 up to
discretization error.

The time integrator is a kick-drift-kick leapfrog with the torque
applied in half-kicks and the half-step gyration speed from a tangent
predictor, so that a step makes one spin inversion (see GyroSolver.step);
the outer boundary carries a local outgoing condition for the l=1
exterior (see GyroSolver).  A generalized
Picard iteration over time histories solves the same semidiscrete
system by successive integration and is compared against the stepper.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace

import numpy as np

from .bare_particle import (
    DensityProfile,
    GyrationCurve,
    _check_subluminal,
    gyrational_mass,  # noqa: F401  (perfbench's tracer tests rebind it in this namespace)
)
from .roots import bracketed_root


@dataclass(frozen=True)
class GyroEvolutionState:
    """Reduced l=1 field on the solver grid, bare spin and gyration speed:
    signed amplitudes along the axis e, A(x) = w(|x|) e x x.  Regularity
    at the origin forces w even in r.

    `lap` is GyroSolver.laplacian(w), the wave-operator part of d_t pi
    at this w.  `GyroSolver.step` sets it on the state it returns (its
    second kick computed it), so the next step's first kick reuses it;
    `make_state` leaves it None, and `step` then computes it from w.  A
    state built with a new w must leave it None.
    """

    w: np.ndarray      # (n,)
    pi: np.ndarray     # (n,) = d_t w
    sb: float
    omega: float
    t: float = 0.0
    lap: np.ndarray = None   # (n,) laplacian(w), or None


@dataclass
class Trajectory:
    t: np.ndarray
    omega: np.ndarray        # (nt,)
    sb: np.ndarray           # (nt,)
    se: np.ndarray           # (nt,) field spin over the support
    W_b: np.ndarray
    W_field_inside: np.ndarray
    flux: np.ndarray
    r_audit: float


@dataclass
class RelaxationFit:
    omega_inf: float
    converged: bool


# Multiple of machine epsilon below which the radiated energy of
# energy_audit is round-off against max |W_tot|.
ROUNDOFF_MULTIPLE = 1000.0
SETTLE_TOL = 1e-2       # settled |omega| within 1% of omega_inf, as perfbench's relax oracle
_EPS = np.finfo(float).eps
OMEGA_CAP = 0.999       # omega R bound of the solver's spin inversion
RECORD_BLOCK = 256      # time rows per pass of GyroSolver.run's field diagnostics


@dataclass
class PicardResult:
    """`GyroSolver.picard_iterate` on the leading k nodes it sweeps (see
    there): per iteration i the sup gaps to iterate i-1, of w and pi over
    the leading k - i nodes, where both equal the full grid's, and of s_b;
    and the last iterate, w and pi on the leading k - n_iter nodes, where
    they equal the full grid's.  Both zones are all n nodes when k = n."""
    times: np.ndarray        # (nt+1,)
    gaps_w: np.ndarray       # (n_iter,)
    gaps_pi: np.ndarray
    gaps_sb: np.ndarray
    n_iter: int
    w: np.ndarray            # (nt+1, k - n_iter), or (nt+1, n) when k = n
    pi: np.ndarray
    sb: np.ndarray           # (nt+1,)
    converged: bool


class CFLError(ValueError):
    pass


def _check_horizon(horizon: float) -> None:
    """The one rule of a run's length, shared by `run` and `picard_iterate`."""
    if not 0 < horizon < np.inf:
        raise ValueError(f"horizon must be positive and finite, got {horizon:g}")


class GyroSolver:
    """Radial method-of-lines solver for the fixed-center gyration problem.

    Parameters
    ----------
    fe, fm : charge and mass profiles (same support radius expected); the
             mass must be positive
    dr     : grid spacing (default R/20), positive and finite; R must sit
             on the grid
    r_max  : outer radius (default 10 R), finite and a cell beyond R

    ValueError refuses any other value.  The outer boundary carries the
    local radiation condition that is exact for the l=1 exterior family
    g'(t-r) + g(t-r)/r of r^2 w, which in particular annihilates the static
    dipole tail.  The spin inversion is capped at omega R = OMEGA_CAP.

    The grid has `n` nodes r_i = i dr.  The charge support is its first
    `m` nodes: m is the index of the last nonzero `fe_nodes` entry plus one
    (at least 1, so that a charge of 0 sums the origin's zero weight),
    fixed here from the charge profile.  Every coupling weight vanishes
    beyond it, so the source of the wave equation and the field-spin sums
    touch only w[..., :m].  The outer node must lie outside the support.

    A grid cut short errs one node further inward per step, so `run` steps
    only the k = min(n, i_audit + n_steps + 2) nodes that its records
    depend on (see there), in place on buffers it allocates once.  A step
    costs one laplacian of those k nodes, two kicks of them, two running
    sums over the m support nodes (s_e of the rate for the torque, s_e of
    the field change for the spin), float arithmetic at the outer node, one
    sigma_slope pass for the half-step predictor and one float spin
    inversion of about two kernel passes: three passes a step (see `step`).
    `run` copies the slices that its records read and evaluates them once
    per RECORD_BLOCK steps.  `picard_iterate` likewise sweeps only the
    leading k = min(n, p + 2 n_max + 2) nodes, p those where the initial
    data moves, m for a state at rest (see there).  Each of its iterations
    integrates pi, then w and s_b from that pi, for one laplacian of the
    (nt+1, k) history, nt+1 spin inversions warm-started at the last
    iterate's |omega| and three running sums, and it stops after the first
    whose gaps are below stop_gap.
    """

    def __init__(self, fe: DensityProfile, fm: DensityProfile,
                 dr: float = None, r_max: float = None):
        self.fe = fe
        self.fm = fm
        R = fe.R
        if dr is None:
            dr = R / 20.0
        cells = R / dr if 0 < dr < np.inf else 0.0
        n_in = int(round(cells)) if cells < np.inf else 0
        if n_in < 1:
            raise ValueError(f"dr must be positive and below 2 R = {2.0 * R:g}, with R / dr finite, "
                             f"so that R sits on the grid, got {dr:g}")
        if abs(n_in * dr - R) > 1e-12 * R:
            dr = R / n_in  # snap the support radius onto the grid
        if r_max is None:
            r_max = 10.0 * R
        cells = r_max / dr
        n = int(round(cells)) if np.isfinite(cells) else 0
        if n <= n_in:
            raise ValueError(f"r_max must be positive, finite and exceed the support radius "
                             f"R = {R:g} by at least one cell, with r_max / dr finite, got {r_max:g}")
        self.dr = dr
        self.r = np.arange(n + 1) * dr
        self.n = n + 1

        self.fe_nodes = self._discretize_profile(fe)
        self.m = max(len(np.trim_zeros(self.fe_nodes, "b")), 1)
        # coupling weights W_i r_i^2, with sum W_i g(r_i) ~ int g f_e 4 pi r^2 dr
        weights = self.fe_nodes * 4.0 * np.pi * self.r**2 * dr
        self._spin_weights = (weights * self.r**2)[:self.m]
        self.curve = GyrationCurve(fm, OMEGA_CAP)
        # 4 pi f_e on the support: the wave equation's source per unit omega
        self._source_coef = (4.0 * np.pi) * self.fe_nodes[:self.m]
        # staggered flux coefficients r_{i+1/2}^4 of the conservative
        # discretization (r^4 w')' / r^4 of the radial operator, and the
        # interior rows' denominators r_i^4 dr
        self._r_half4 = (0.5 * (self.r[:-1] + self.r[1:])) ** 4
        self._lap_den = self.r[1:-1] ** 4 * dr
        self._outer = self._outer_law()

    # -- grid setup ---------------------------------------------------------
    def _discretize_profile(self, fe: DensityProfile) -> np.ndarray:
        """f_e on the nodes: a shell's delta at R; a ball's density on [0, R]
        with the node R at half weight, the trapezoid end of an integrand
        that jumps there, so that every coupling is second order in dr."""
        f = np.zeros(self.n)
        i = int(round(fe.R / self.dr))
        if fe.kind == "shell":
            f[i] = fe.total / (4.0 * np.pi * fe.R**2 * self.dr)
        else:
            f[:i + 1] = fe.total * 3.0 / (4.0 * np.pi * fe.R**3)
            f[i] *= 0.5
        return f

    # -- discrete operators --------------------------------------------------
    def laplacian(self, w: np.ndarray, out: np.ndarray, flux: np.ndarray) -> np.ndarray:
        """Conservative form (r^4 w')' / r^4 of d^2_r + (4/r) d_r over the
        whole grid, written into out and returned; w and out are (..., n),
        flux (..., n-1) scratch for the staggered fluxes.

        Flux form makes the semidiscrete field energy balance telescope
        exactly to the boundary, which is what the energy audit measures.
        Origin row by even symmetry of w; the outer row is 0, because the
        outgoing law advances that node.  The flux coefficients and row
        denominators are cached at set-up and the rows are formed in the
        caller's arrays, so a call allocates nothing.
        """
        dr = self.dr
        np.subtract(w[..., 1:], w[..., :-1], out=flux)
        flux *= self._r_half4
        flux /= dr
        interior = out[..., 1:-1]
        np.subtract(flux[..., 1:], flux[..., :-1], out=interior)
        interior /= self._lap_den
        out[..., 0] = 10.0 * (w[..., 1] - w[..., 0]) / dr**2
        out[..., -1] = 0.0
        return out

    def cfl_dt(self) -> float:
        return 0.3 * self.dr

    @property
    def cfl_limit(self) -> float:
        return 0.45 * self.dr

    # -- couplings ------------------------------------------------------------
    def field_spin_support(self, w: np.ndarray):
        """s_e = int x cross A f_e = (2/3) int f_e r^2 w d^3x.

        The one radial reduction of the spin coupling; w is (..., k) with
        any leading (time) axes and k >= m nodes.  Its weights vanish
        beyond the support, so only w[..., :m] is read.  The nodes are
        added one at a time from the origin, a running sum: a pairwise or
        dot-product sum of the volume's 21 nodes rounds differently.
        """
        return (2.0 / 3.0) * np.add.accumulate(self._spin_weights * w[..., :self.m],
                                               axis=-1)[..., -1]

    def torque(self, pi: np.ndarray):
        """(2/3) int f_e r^2 (omega x w - pi) d^3x = -s_e(pi): omega x w
        vanishes on the fixed axis."""
        return -self.field_spin_support(pi)

    def omega_of_sb(self, sb, start: float = None):
        """omega along sb on the gyration curve, for the spin amplitude sb
        (a float) or a 3-vector; `start` is a guess of |omega| in [0, cap]
        that warm-starts the inversion."""
        smag = abs(sb) if isinstance(sb, float) else np.sqrt(np.dot(sb, sb))
        if smag == 0.0:
            return abs(0.0 * sb)   # +0.0, in the shape of sb
        return self.curve.invert(smag, start) * sb / smag

    def omega_many(self, sb: np.ndarray, start: np.ndarray) -> np.ndarray:
        """Spin inversion along a time series (nt,), one `invert` per row,
        warm-started at the row's guess of |omega| in `start` (nt,), and
        saturated at the admissibility cap for transient iterates (the
        physical stepper keeps the hard error)."""
        curve = self.curve
        smag = np.abs(sb)
        wmag = np.array([curve.omega_cap if s >= curve.sigma_cap else curve.invert(s, guess)
                         for s, guess in zip(smag.tolist(), start.tolist())])
        out = np.zeros_like(sb)
        pos = smag > 0
        out[pos] = sb[pos] * (wmag[pos] / smag[pos])
        return out

    # -- initial data -----------------------------------------------------------
    def stationary_profile(self, omega: float) -> np.ndarray:
        """Discrete stationary solution of the radial BVP (exact fixed
        point of the discretized dynamics at the matching spin).

        The rows of laplacian(w) = -4 pi f_e are solved in flux form,
        F_i = r_{i+1/2}^4 (w_{i+1} - w_i) / dr: the origin row fixes F_0, and
        interior row i fixes F_i - F_{i-1} = -4 pi f_e r_i^4 dr, so the
        fluxes are one cumulative sum.  The static outgoing residue
        d_r (r^2 w) + r w = 0 (one-sided) and the last difference fix the
        outer node, and the differences summed back from it give the rest.
        """
        dr, r = self.dr, self.r
        rhs = -(4.0 * np.pi) * self.fe_nodes
        flux = rhs[:-1] * r[:-1] ** 4 * dr
        flux[0] = self._r_half4[0] * rhs[0] * dr / 10.0
        diff = np.cumsum(flux) * dr / self._r_half4
        # r_n^2 (1/dr + 1/r_n) w_n - (r_m^2/dr)(w_n - diff[-1]) = 0, with
        # r_n^2 - r_m^2 factored so that it does not cancel
        rn, rm = r[-1], r[-2]
        outer = -(rm**2) * diff[-1] / ((rn - rm) * (rn + rm) + rn * dr)
        shape = np.empty(self.n)
        shape[-1] = outer
        shape[-2::-1] = outer - np.cumsum(diff[::-1])
        return shape * omega

    def make_state(self, omega3, scale: float = 1.0) -> GyroEvolutionState:
        """Initial data: scale times the stationary field at rest (scale = 0
        is the zero dynamic field), with the bare spin matched to omega3.
        omega3 must lie on the z axis, the solver's fixed rotation axis.

        s_b is sigma(|omega|) along omega on the solver's gyration curve.
        Every scale keeps the Gauss constraint satisfied (the toroidal
        sector is divergence-free).  ValueError refuses an omega off the z
        axis or not below 1/R in magnitude, and a scale that is not finite.
        """
        omega3 = np.asarray(omega3, dtype=float)
        if omega3[0] or omega3[1]:
            raise ValueError(f"omega must lie on the z axis, got {omega3.tolist()}")
        omega, mag = float(omega3[2]), float(np.linalg.norm(omega3))
        _check_subluminal(self.fm, mag)
        if not np.isfinite(scale):
            raise ValueError(f"scale must be finite, got {scale:g}")
        w = scale * self.stationary_profile(omega3[2])
        sb = self.curve.sigma(mag) * omega / mag if mag else 0.0
        return GyroEvolutionState(w, np.zeros_like(w), sb, omega)

    # -- stepping ------------------------------------------------------------
    def _accel(self, w: np.ndarray, omega: np.ndarray) -> np.ndarray:
        """d_t pi = (r^4 w')' / r^4 + 4 pi f_e omega over a history: w is
        (nt, n) and omega (nt,)."""
        a = self.laplacian(w, np.empty_like(w), np.empty_like(w[:, 1:]))
        a[:, :self.m] += self._source_coef * omega[:, None]
        return a

    @staticmethod
    def _kick(pi: np.ndarray, lap: np.ndarray, source: np.ndarray, h: float,
              acc: np.ndarray) -> None:
        """pi += h d_t pi below the outer node, in place; lap is laplacian(w),
        source the term 4 pi f_e omega below the outer node and acc scratch
        like it."""
        np.add(lap[:-1], source, out=acc)
        acc *= h
        pi[:-1] += acc

    def _outer_law(self) -> tuple:
        """r_n^2, r_m^2, a = -1/dr - 1/r_n, 1/dr and 1/r_n of the outgoing
        law at the outer node r_n (r_m = r_n - dr), as floats."""
        rn, rm, dr = self.r[-1], self.r[-2], self.dr
        return tuple(map(float, (rn**2, rm**2, -1.0 / dr - 1.0 / rn, 1.0 / dr, 1.0 / rn)))

    def _outgoing(self, w_m, w_n, pi_m) -> tuple:
        """(a, b) of the outer-node law d_t v = a v + b for v = r_n^2 pi_n,
        the local outgoing condition, from w at the last two nodes and pi
        at the last but one: floats in a step, history columns in Picard."""
        rn2, rm2, a, inv_dr, inv_rn = self._outer
        un, um = rn2 * w_n, rm2 * w_m
        b = inv_dr * (rm2 * pi_m) - inv_rn * (un - um) / self.dr - un / rn2
        return a, b

    def _boundary_kick(self, w: np.ndarray, pi: np.ndarray, dt: float) -> None:
        """Advance pi at the outer node by the outgoing law (trapezoid rule)."""
        a, b = self._outgoing(w.item(-2), w.item(-1), pi.item(-2))
        rn2 = self._outer[0]
        v_new = (rn2 * pi.item(-1) * (1.0 + 0.5 * a * dt) + dt * b) / (1.0 - 0.5 * a * dt)
        pi[-1] = v_new / rn2

    def step(self, state: GyroEvolutionState, dt: float) -> GyroEvolutionState:
        """One kick-drift-kick step with a conservative torque coupling, on
        copies of the state's arrays: `run` takes the same steps in place.

        The field is driven by the half-step gyration speed of the tangent
        predictor omega + (dt/2) torque / sigma'(|omega|), from one
        sigma_slope pass and no inversion.  It misses sigma^-1 of the
        half-step spin by O(dt^2), which enters w through dt times the
        source, so the scheme stays second order in dt.  The torque is
        applied as -(2/3) int f r^2 (w_new - w_old), the exact negative of
        the field-spin change over the step: s_b + s_e is then conserved to
        machine precision, independent of dt.  The one spin inversion, of
        the new s_b, starts at the same tangent's |omega|, so Newton takes
        one correction and its stopping pass: three kernel passes a step.
        """
        w, pi, lap, sb, omega = next(self._advance(state, dt))
        return GyroEvolutionState(w, pi, sb, omega, state.t + dt, lap)

    def _advance(self, state: GyroEvolutionState, dt: float):
        """The steps of `step` from state, on copies of its arrays advanced
        in place: yields (w, pi, lap, sb, omega) after each step.  w is
        double-buffered, and one scratch array holds the laplacian's fluxes,
        the kicks and the spin change in turn, so a step allocates no array
        of the grid's width; the next step overwrites what it yielded.  A dt
        above the CFL limit raises CFLError at the first step."""
        if dt > self.cfl_limit * (1.0 + 1e-12):
            raise CFLError(f"dt = {dt:g} exceeds the CFL limit {self.cfl_limit:g}")
        m, h, curve = self.m, 0.5 * dt, self.curve
        w0, w, pi = state.w.copy(), np.empty_like(state.w), state.pi.copy()
        coef = (4.0 * np.pi) * self.fe_nodes[:-1]   # _source_coef, 0 beyond the support
        acc, source = np.empty_like(coef), np.empty_like(coef)
        lap = (self.laplacian(w0, np.empty_like(w0), acc) if state.lap is None
               else state.lap.copy())
        sb, omega = state.sb, state.omega
        while True:
            slope = curve.sigma_slope(abs(omega))[1]
            np.multiply(coef, omega + h * float(self.torque(pi)) / slope, out=source)
            self._kick(pi, lap, source, h, acc)
            self._boundary_kick(w0, pi, h)
            np.multiply(pi, dt, out=w)
            w += w0
            self.laplacian(w, lap, acc)
            self._kick(pi, lap, source, h, acc)
            self._boundary_kick(w, pi, h)
            sb_new = sb - float(self.field_spin_support(np.subtract(w[:m], w0[:m], out=acc[:m])))
            guess = min(abs(omega + (sb_new - sb) / slope), curve.omega_cap)
            sb, omega = sb_new, self.omega_of_sb(sb_new, guess)
            w0, w = w, w0
            yield w0, pi, lap, sb, omega

    # -- diagnostics ------------------------------------------------------------
    def dynamic_energy_inside(self, w: np.ndarray, pi: np.ndarray, i_audit: int):
        """Dynamic-sector field energy inside r[i_audit]; w and pi are
        (..., k) with any leading (time) axes and k > i_audit nodes.

        The Coulomb part is constant in time and excluded; the E cross
        term vanishes exactly by the angular reduction.  The magnetic
        part is written in the integrated-by-parts form

            (1/3) int r^4 |w'|^2 dr + (2/3) r^3 |w|^2 |_boundary

        on the staggered cells below r[i_audit], plus the continuum boundary
        term, while poynting_flux takes a centred w' there: not one
        summation by parts, so the balance against the stepper does not
        telescope and the audit defect carries a grid error at any dt.
        """
        r, dr, a = self.r, self.dr, i_audit
        e_part = np.sum(pi[..., 1:a + 1]**2 * r[1:a + 1]**4, axis=-1) * dr / 3.0
        grad = (w[..., 1:a + 1] - w[..., :a]) / dr
        b_part = (np.sum(self._r_half4[:a] * grad**2, axis=-1) * dr / 3.0
                  + (2.0 / 3.0) * r[a]**3 * w[..., a]**2)
        return e_part + b_part

    def poynting_flux(self, w: np.ndarray, pi: np.ndarray, i_audit: int):
        """Outward Poynting flux through the sphere r[i_audit]:
        -(2/3) r^3 pi . (2w + r w'), with the centred w' (w_{a+1} -
        w_{a-1}) / 2 dr; w and pi are (..., k) with any leading axes.  The
        + 0.0 makes a zero product +0, so that a field at rest has the flux
        -0 whatever the sign of w."""
        a = i_audit
        ra = self.r[a]
        wp = (w[..., a + 1] - w[..., a - 1]) / (2.0 * self.dr)
        return -(2.0 / 3.0) * ra**3 * (pi[..., a] * (2.0 * w[..., a] + ra * wp) + 0.0)

    # -- drivers -------------------------------------------------------------
    def _window(self, k: int) -> GyroSolver:
        """A shallow copy of the solver on the leading k nodes: node k-1 is
        its outer node, where the outgoing law applies.  The solver itself
        when k spans the grid."""
        if k >= self.n:
            return self
        win = copy.copy(self)
        win.n, win.r, win.fe_nodes = k, self.r[:k], self.fe_nodes[:k]
        win._r_half4, win._lap_den = self._r_half4[:k - 1], self._lap_den[:k - 2]
        win._outer = win._outer_law()
        return win

    def run(self, state: GyroEvolutionState, horizon: float, dt: float = None) -> Trajectory:
        """Step over the horizon, recording every step; the energy audit
        sphere sits at min(0.8 r_max, 4 R).

        The records read w[:i_audit + 2], pi[:i_audit + 1] and the m support
        nodes.  A grid cut at k nodes errs one node further inward per step
        (the kick, the drift and the carried lap each reach one neighbour):
        after t steps w is exact below k - t, pi and lap below k - t - 1.
        So the run steps only the leading min(n, i_audit + n_steps + 2)
        nodes, the domain of dependence of its records, and they equal the
        full grid's bit for bit.  It takes the steps of `step` in place, on
        one set of buffers, so its records equal those of repeated `step`
        calls bit for bit.  s_e, the energy inside r_audit and the
        flux are evaluated over the time axis of each RECORD_BLOCK steps,
        row by row equal to one state's call, in memory flat in the horizon.
        A horizon that is not positive and finite is refused (ValueError).
        """
        _check_horizon(horizon)
        if dt is None:
            dt = self.cfl_dt()
        r_audit = min(0.8 * self.r[-1], 4.0 * self.fe.R)
        i_audit = int(round(r_audit / self.dr))
        i_audit = min(max(i_audit, int(round(self.fe.R / self.dr)) + 1), self.n - 2)
        n_steps = int(np.ceil(horizon / dt))
        k = min(self.n, i_audit + n_steps + 2)
        steps = self._window(k)._advance(
            replace(state, w=state.w[:k], pi=state.pi[:k],
                    lap=None if state.lap is None else state.lap[:k]), dt)

        nt = n_steps + 1
        t, w_field, flux = np.empty(nt), np.empty(nt), np.empty(nt)
        omega, sb, se = np.empty(nt), np.empty(nt), np.empty(nt)
        block = min(nt, RECORD_BLOCK)
        w_rec = np.empty((block, i_audit + 2))
        pi_rec = np.empty((block, i_audit + 1))
        w, pi, s_now, om_now, t_now = state.w, state.pi, state.sb, state.omega, state.t
        for i in range(nt):
            if i:
                w, pi, _, s_now, om_now = next(steps)
                t_now += dt
            t[i], omega[i], sb[i] = t_now, om_now, s_now
            j = i % block
            w_rec[j], pi_rec[j] = w[:i_audit + 2], pi[:i_audit + 1]
            if j == block - 1 or i == nt - 1:
                rows, w_blk, pi_blk = slice(i - j, i + 1), w_rec[:j + 1], pi_rec[:j + 1]
                se[rows] = self.field_spin_support(w_blk)
                w_field[rows] = self.dynamic_energy_inside(w_blk, pi_blk, i_audit)
                flux[rows] = self.poynting_flux(w_blk, pi_blk, i_audit)
        W_b = np.array([self.curve.mass(abs(om)) for om in omega.tolist()])
        return Trajectory(t, omega, sb, se, W_b, w_field, flux, self.r[i_audit])

    def predicted_equilibrium(self, state: GyroEvolutionState) -> float:
        """|omega| of the stationary state conserving s_b + s_e.

        The support spin s_b + s_e is an exact (machine-level) invariant of
        the discrete dynamics, so the final gyration speed solves
        sigma(w) + kappa w = |s_b + s_e|(0) with kappa the field-spin
        coefficient of the discrete stationary mode.  Beyond
        sigma(cap) + kappa cap no such state exists: ValueError.
        """
        kappa = float(self.field_spin_support(self.stationary_profile(1.0)))
        s_tot = abs(float(state.sb + self.field_spin_support(state.w)))
        cap = self.curve.omega_cap

        def f(w):
            return float(self.curve.sigma(w)) + kappa * w - s_tot

        if s_tot == 0.0:
            return 0.0
        bound = self.curve.sigma_cap + kappa * cap
        if s_tot > bound:
            raise ValueError(f"|s_b + s_e| = {s_tot:.6g} exceeds sigma(cap) + kappa cap = "
                             f"{bound:.6g}: no stationary state conserves it")
        return bracketed_root(f, 0.0, cap, xtol=4.0 * _EPS * cap, rtol=4.0 * _EPS)

    def run_to_stationary(self, state: GyroEvolutionState, horizon: float) -> tuple:
        """Relax toward the stationary state and judge whether it arrived.

        Returns (trajectory, fit), stepped at run's default dt.
        fit.omega_inf is predicted_equilibrium of the initial state, taken
        before any step, so a state with no equilibrium raises ValueError
        and is never stepped.  fit.converged holds when every record of the
        last 2 R has ||omega(t)| - omega_inf| <= SETTLE_TOL omega_inf.  That
        window is longer than the ring period of the least-damped pole
        (1.80 R on the shell at omega R 0.3), so a ringing |omega| that
        crosses omega_inf near the last step does not pass.
        """
        omega_inf = self.predicted_equilibrium(state)
        traj = self.run(state, horizon)
        tail = traj.t >= traj.t[-1] - 2.0 * self.fe.R
        miss = np.abs(np.abs(traj.omega[tail]) - omega_inf)
        return traj, RelaxationFit(omega_inf, bool(np.all(miss <= SETTLE_TOL * omega_inf)))

    def energy_audit(self, traj: Trajectory) -> dict:
        """Energy balance of W_tot = W_b + W_field(<r_audit) against the
        flux through r_audit.

        Returns the radiated energy int flux dt and the cumulative defect
        Delta W_tot + int flux dt, also normalized by the radiated energy.
        A radiated energy within ROUNDOFF_MULTIPLE machine epsilons of
        max |W_tot| is round-off, and the normalized defect is then None.
        """
        wtot = traj.W_b + traj.W_field_inside
        radiated = float(np.trapezoid(traj.flux, traj.t))
        defect = float((wtot[-1] - wtot[0]) + radiated)
        resolved = abs(radiated) > ROUNDOFF_MULTIPLE * _EPS * np.max(np.abs(wtot))
        return {
            "radiated": radiated,
            "cumulative_defect": defect,
            "normalized_defect": abs(defect) / abs(radiated) if resolved else None,
        }

    # -- generalized Picard iteration ---------------------------------------
    def picard_iterate(self, state: GyroEvolutionState, n_max: int,
                       horizon: float, dt: float = None,
                       stop_gap: float = 0.0) -> PicardResult:
        """Successive integration of the quasi-explicit system.

        Starting from histories constant at the initial data, iteration i
        integrates over [0, horizon] (trapezoid in time) pi from the
        stepper's _accel and outgoing law on iterate i-1, then w and s_b
        (torque) from that new pi: the Gauss-Seidel order, which from rest
        (pi = 0) reaches at iteration i the Jacobi order's iterate 2i.  Gap
        diagnostics are sup-norms between consecutive iterates; in the
        contraction regime the tail gaps shrink geometrically, after a
        transient whose length scales with horizon / dr (the norm of the
        discrete spatial operator).  The sweep stops, converged, after the
        first iteration whose three gaps are all below stop_gap.

        The initial data moves on its leading p nodes: p = m, or one past
        the last nonzero (or NaN) rate if that lies beyond the support.
        Beyond p the field is taken to be a static tail, a multiple of the
        stationary profile's, as `make_state` builds it.  Each iteration
        applies one laplacian, so iterate i differs from the initial data
        only on its leading p + i nodes, and beyond them by round-off of the
        static tail.  A grid cut at k nodes errs one node further inward per
        iteration, so iterate i equals the full grid's on its leading k - i
        nodes.  The sweep runs on the leading k = min(n, p + 2 n_max + 2)
        nodes, and the w and pi gaps of iteration i (1-based) are taken over
        the leading k - i of them (all n when k = n), which hold the p + i
        that move.  A state from `step` has a rate of round-off out to the
        outer node, so it is swept on the whole grid.

        s_b reads only pi[:m], so s_b and its gaps equal the full grid's bit
        for bit.  The w and pi gaps, and with them each iteration's largest
        gap and the stop test, equal the full grid's unless the full grid's
        largest is round-off of the static tail beyond the k - i nodes: from
        a start at rest on the stationary state every gap after the first
        is round-off, and the full grid's largest sits at its own outer
        node, which no window holds.  w and pi of the last iterate are
        returned on the k - n_iter nodes where they equal the full grid's.

        One iteration costs one _accel over the (nt+1, k) history (with one
        torque and _outgoing), one omega_many of the nt+1 s_b rows and three
        trapezoid running sums, formed in place in the array they return.
        omega_many starts each row's Newton at the |omega| that the last
        iteration inverted there, the state's |omega| at the first: a
        converging 22-iteration solve of 11 rows takes about 2.0 kernel
        passes a row, where a cold start took 4.2.
        The running sum adds row k-1 into row k, one row at a time: np.cumsum
        along the leading axis of a field history gives the same bits 4-6
        times slower.
        """
        _check_horizon(horizon)
        if n_max < 1:
            raise ValueError(f"Picard needs at least one iteration, got n_max = {n_max}")
        if dt is None:
            dt = self.cfl_dt()
        nt = int(np.ceil(horizon / dt))
        times = np.linspace(0.0, nt * dt, nt + 1)
        moving = np.flatnonzero(state.pi)
        p = max(self.m, int(moving[-1]) + 1 if moving.size else 0)
        k = min(self.n, p + 2 * n_max + 2)
        win = self._window(k)

        w = np.repeat(state.w[None, :k], nt + 1, axis=0)
        pi = np.repeat(state.pi[None, :k], nt + 1, axis=0)
        sb = np.full(nt + 1, state.sb)

        steps = np.diff(times)

        def integrate(x0, f):
            """x0 plus the trapezoid integral of f from t = 0 over the time
            grid (axis 0); row 0 is x0 + 0.0, so -0.0 becomes +0.0.  The sum
            so far is each add's first operand, as in np.cumsum: of two NaNs
            the add keeps the first.  Rows are summed as 2-d views (nt+1, -1)."""
            out = np.empty_like(f)
            rows, f = out.reshape(nt + 1, -1), f.reshape(nt + 1, -1)
            inc = rows[1:]
            np.add(f[1:], f[:-1], out=inc)
            inc *= steps[:, None]
            inc /= 2.0
            for j in range(1, nt):
                np.add(inc[j - 1], inc[j], out=inc[j])
            np.add(x0, 0.0, out=rows[0])
            np.add(x0, inc, out=inc)
            return out

        def gap(x, y):
            d = np.subtract(x, y)
            return float(np.abs(d, out=d).max())

        gaps = []       # per iteration: sup gaps of w, pi and sb
        rn2 = win._outer[0]
        omega = np.full(nt + 1, state.omega)
        for i in range(1, n_max + 1):
            omega = win.omega_many(sb, np.abs(omega))
            rhs_pi = win._accel(w, omega)
            a, b = win._outgoing(w[:, -2], w[:, -1], pi[:, -2])
            rhs_pi[:, -1] = a * pi[:, -1] + b / rn2
            new_pi = integrate(state.pi[:k], rhs_pi)
            new = (integrate(state.w[:k], new_pi), new_pi, integrate(state.sb, win.torque(new_pi)))
            exact = k if k == self.n else k - i   # the leading nodes iterate i has exact
            gaps.append([gap(new[0][:, :exact], w[:, :exact]), gap(new[1][:, :exact], pi[:, :exact]),
                         gap(new[2], sb)])
            w, pi, sb = new
            if max(gaps[-1]) < stop_gap:
                break

        gaps_w, gaps_pi, gaps_sb = np.array(gaps).T
        return PicardResult(times, gaps_w, gaps_pi, gaps_sb, len(gaps), w[:, :exact], pi[:, :exact],
                            sb, max(gaps[-1]) < stop_gap)
