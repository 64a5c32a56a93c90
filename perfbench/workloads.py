"""Benchmark workloads: seeded operations and the oracles that check them.

A workload is an endless sequence of rounds drawn from the seed; a round
is a list of operations run back to back by one closed-loop caller.  Each
operation has a timed `run` and an untimed `check` that raises
`OracleError` when the result is wrong.  Every oracle holds for any
correct solver, so a later optimisation that keeps the physics keeps
them passing.

relax-shell       gyro-sim relax on the default shell grid (n = 201).
                  Two spin inversions per step dominate: the spin layer.
relax-volume-far  gyro-sim relax, volume profile, r_max = 2000 R
                  (n = 40 001).  The radial wave operator, the stepper
                  and solver set-up dominate; inversions matter little.
lib-mix           quick CLI subcommands, slice quadrature in forces,
                  and one converging Picard solve per round, shuffled.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from ledlab import cli, fields, forces
from ledlab.bare_particle import DensityProfile, gyrational_mass
from ledlab.gyrodynamics import GyroSolver

HERE = Path(__file__).resolve().parent
VERDICTS = json.loads((HERE / "admissibility_verdicts.json").read_text())

RELAX_OMEGA = (0.25, 0.35)      # omega R / c
RELAX_PERTURB = (0.4, 0.6)      # initial field = perturb * stationary
SHELL_HORIZON = 5.0             # R/c; 334 steps, before any boundary echo
VOLUME_HORIZON = 4.0            # R/c; 267 steps on n = 40 001
MIX_OMEGA = (0.1, 0.6)
PICARD = dict(r_max_over_R=400.0, horizon=0.15, stop_gap=1e-12, n_max=80)

ENERGY_TOL = 1e-2               # |dW_tot + int flux dt| / |int flux dt|
OMEGA_TOL = 1e-2                # final |omega| against omega_inf
PICARD_TOL = 1e-3               # Picard s_b against the stepper
SYMMETRY_TOL = 1e-9             # vanishing self-force/torque, in q^2/R^n
MASS = 2.0                      # bare rest mass, as the CLI default


class OracleError(Exception):
    pass


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], None]
    cli: bool = False           # goes through ledlab.cli.main


def _require(ok, message):
    if not ok:
        raise OracleError(message)


def _finite(values, what):
    arr = np.asarray(values, dtype=float)
    _require(np.all(np.isfinite(arr)), f"non-finite values in {what}")
    return arr


def _cli_call(argv):
    """ledlab.cli.main in process, its console output swallowed."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return cli.main(argv)


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], _finite([[float(v) for v in row] for row in rows[1:]], path.name)


def _read_json(path):
    return json.loads(path.read_text())


def _exit_ok(rc, argv):
    _require(rc == cli.EXIT_OK, f"{' '.join(argv[:1])} exited {rc}")


# ---------------------------------------------------------------------------
# relax workloads
# ---------------------------------------------------------------------------

def _check_relax(out: Path, rc, argv):
    _exit_ok(rc, argv)
    header, data = _read_csv(out / "timeseries.csv")
    col = {h: data[:, i] for i, h in enumerate(header)}
    t = col["t"]
    w_tot = col["W_b"] + col["W_field_inside"]
    radiated = float(np.trapezoid(col["flux"], t))
    defect = abs((w_tot[-1] - w_tot[0]) + radiated)
    _require(defect <= ENERGY_TOL * abs(radiated),
             f"energy audit {defect:.3g} above {ENERGY_TOL} x radiated {radiated:.3g}")
    _require(np.all(col["sb_x"] == 0.0) and np.all(col["sb_y"] == 0.0),
             "spin left the rotation axis")
    fit = _read_json(out / "relaxation_fit.json")
    omega_inf = float(fit["omega_inf"])
    omega_end = math.sqrt(col["omega_x"][-1] ** 2 + col["omega_y"][-1] ** 2
                          + col["omega_z"][-1] ** 2)
    _require(math.isfinite(omega_inf) and omega_inf > 0, "omega_inf not positive")
    _require(abs(omega_end - omega_inf) <= OMEGA_TOL * omega_inf,
             f"final |omega| {omega_end:.6g} not within 1% of omega_inf {omega_inf:.6g}")


def _relax_rounds(rng, out: Path, extra_args, horizon):
    while True:
        omega = rng.uniform(*RELAX_OMEGA)
        perturb = rng.uniform(*RELAX_PERTURB)
        argv = ["gyro-sim", "--mode", "relax", *extra_args,
                "--omega-over-c", f"{omega:.6f}", "--perturb", f"{perturb:.6f}",
                "--horizon", f"{horizon:g}", "--out-dir", str(out)]
        yield [Op("gyro-sim", lambda argv=argv: _cli_call(argv),
                  lambda rc, argv=argv: _check_relax(out, rc, argv), cli=True)]


def relax_shell(rng, out):
    return _relax_rounds(rng, out, ["--profile", "shell"], SHELL_HORIZON)


def relax_volume_far(rng, out):
    return _relax_rounds(rng, out, ["--profile", "volume", "--r-max-over-R", "2000"],
                         VOLUME_HORIZON)


# ---------------------------------------------------------------------------
# library mix
# ---------------------------------------------------------------------------

def _cli_op(label, argv, check):
    return Op(label, lambda: _cli_call(argv), lambda rc: check(rc, argv), cli=True)


def _check_files(*names, out):
    def check(rc, argv):
        _exit_ok(rc, argv)
        for name in names:
            path = out / name
            if path.suffix == ".csv":
                _read_csv(path)
            else:
                _finite(_numbers(_read_json(path)), name)
    return check


def _numbers(obj):
    if isinstance(obj, dict):
        return [x for v in obj.values() for x in _numbers(v)]
    if isinstance(obj, list):
        return [x for v in obj for x in _numbers(v)]
    return [obj] if isinstance(obj, (int, float)) and not isinstance(obj, bool) else []


def _check_verdict(name, out):
    def check(rc, argv):
        _exit_ok(rc, argv)
        got = _read_json(out / "admissibility_report.json")["verdict"]
        _require(got == VERDICTS[name], f"{name}: verdict {got!r}, expected {VERDICTS[name]!r}")
    return check


def _profiles(kind):
    make = getattr(DensityProfile, kind)
    return make(-1.0, 1.0), make(MASS, 1.0)


def _self_field(kind, omega):
    fe, fm = _profiles(kind)
    omega3 = np.array([0.0, 0.0, omega])
    snap = forces.stationary_snapshot(fields.stationary_state(fe, omega3))
    return fe, fm, omega3, snap


def _check_self_force(fe, pseudo):
    q2 = fe.total ** 2
    _finite(pseudo.m_tilde.m, "pseudo-inertia")
    f = _finite(pseudo.f_tilde.c, "effective force")
    _require(np.max(np.abs(f)) <= SYMMETRY_TOL * q2 / fe.R ** 2,
             f"self-force {np.max(np.abs(f)):.3g} does not vanish")
    _check_symmetric(pseudo.field_term_1.m, "spin-orbit term")


def _check_symmetric(m, what):
    m = _finite(m, what)
    _require(np.max(np.abs(m - m.T)) <= 1e-12 * max(np.max(np.abs(m)), 1e-300),
             f"{what} is not symmetric")


def _pseudo_inertia_op(kind, omega):
    def run():
        fe, fm, omega3, snap = _self_field(kind, omega)
        return fe, forces.pseudo_inertia(snap, fe, omega3, gyrational_mass(fm, omega))
    return Op(f"pseudo_inertia-{kind}", run, lambda res: _check_self_force(*res))


def _torque_op(omega):
    def run():
        fe, _, omega3, snap = _self_field("shell", omega)
        return fe, forces.minkowski_torque(snap, fe, omega3=omega3)

    def check(res):
        fe, torque = res
        m = _finite(torque.m, "torque")
        _require(np.max(np.abs(m)) <= SYMMETRY_TOL * fe.total ** 2 / fe.R,
                 f"self-torque {np.max(np.abs(m)):.3g} does not vanish")
    return Op("minkowski_torque-shell", run, check)


def _nodvik_op(omega):
    def run():
        fe, _, omega3, snap = _self_field("shell", omega)
        return forces.nodvik_mass(snap, fe, omega3=omega3)
    return Op("nodvik_mass-shell", run, lambda m: _check_symmetric(m.m, "Nodvik mass"))


def _picard_op(omega, perturb):
    def run():
        fe, fm = _profiles("shell")
        solver = GyroSolver(fe, fm, r_max=PICARD["r_max_over_R"] * fe.R)
        state = solver.make_state(np.array([0.0, 0.0, omega]), scale=perturb)
        res = solver.picard_iterate(state, n_max=PICARD["n_max"], horizon=PICARD["horizon"],
                                    stop_gap=PICARD["stop_gap"])
        return solver, state, res

    def check(out):
        solver, state, res = out
        _require(res.converged, f"Picard did not converge in {res.n_iter} iterations")
        sb = _finite(res.sb[-1], "Picard s_b")
        ref = solver.run(state, horizon=float(res.times[-1])).sb[-1]
        rel = float(np.linalg.norm(sb - ref) / np.linalg.norm(ref))
        _require(rel <= PICARD_TOL, f"Picard s_b off the stepper by {rel:.3g}")
    return Op("picard_iterate", run, check)


def lib_mix(rng, out):
    o = ["--out-dir", str(out)]
    while True:
        omega = rng.uniform(*MIX_OMEGA)
        perturb = rng.uniform(*RELAX_PERTURB)
        w = f"{omega:.6f}"
        ops = [
            _cli_op("renorm-flow", ["renorm-flow", "--report", *o],
                    _check_files("flow.csv", "limit_constants.json", out=out)),
            _cli_op("stationary-shell", ["stationary", "--omega-over-c", w, *o],
                    _check_files("stationary_profile.csv", "stationary_summary.json", out=out)),
            _cli_op("stationary-volume",
                    ["stationary", "--profile", "volume", "--n-radial", "2000",
                     "--omega-over-c", w, *o],
                    _check_files("stationary_profile.csv", "stationary_summary.json", out=out)),
            _cli_op("selfcheck", ["selfcheck", *o], lambda rc, argv: _exit_ok(rc, argv)),
            *[_cli_op(f"admissibility:{name}", ["admissibility", "--scenario", name, *o],
                      _check_verdict(name, out)) for name in VERDICTS],
            _pseudo_inertia_op("volume", omega),
            _pseudo_inertia_op("shell", omega),
            _torque_op(omega),
            _nodvik_op(omega),
            _picard_op(omega, perturb),
        ]
        rng.shuffle(ops)
        yield ops


WORKLOADS = {
    "relax-shell": relax_shell,
    "relax-volume-far": relax_volume_far,
    "lib-mix": lib_mix,
}


def rounds(name: str, seed: int, out: Path):
    """Endless round generator of a workload; the same seed gives the
    same inputs in the same order."""
    os.makedirs(out, exist_ok=True)
    return WORKLOADS[name](np.random.default_rng(seed), out)
