"""Command-line front end.

Subcommands: renorm-flow, stationary, gyro-sim, admissibility, selfcheck.
A flat key=value config file can seed any run; command-line flags win.
Outputs are deterministic (17 significant digits, no timestamps), so an
identical spec produces byte-identical files.

`main` builds its argument parser once per process, on its first call,
and reuses it; a --config run sets the config values as defaults of its
own freshly built parser, so the shared one never changes.

Exit codes: 0 ok, 1 usage error, 2 domain error, 3 numerical failure or
internal error; every refusal short of an internal error is one line.
Each domain rule lives in the library function that owns the quantity,
whose one-line ValueError opens with the quantity's name; for stationary
and gyro-sim `main` puts the flag that sets it in front (FLAGS).  This
module keeps the rules no library call sees: --n-radial >= 2, stationary's
--r-max-over-R, --picard-iters >= 2, --cells-per-radius >= 1 and the form
of --mb-grid.

Units: c = 1, and hbar = m_e = 1 in renorm-flow.  --radius, --charge and
--mass are physical inputs; --horizon counts R/c and --omega-over-c is
omega R / c.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import traceback

import numpy as np

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_NUMERICAL = 3


def _out_dir(args) -> str:
    d = args.out_dir or os.environ.get("LEDLAB_OUTDIR", ".")
    os.makedirs(d, exist_ok=True)
    return d


def _write(path, text):
    """text into path in one write.  An existing file is overwritten in
    place and then cut to length: truncating it to zero first makes ext4
    flush it on close, about 80 us against 8 us for an admissibility
    report."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(text.encode())
        fh.truncate()


def _write_csv(path, header, rows):
    """The header names, which need no quoting, then each row of numbers to
    17 significant digits, one %-format per row; lines end in CRLF, as csv
    writes them."""
    line = ",".join(["%.17g"] * len(header)) + "\r\n"
    _write(path, ",".join(header) + "\r\n" + "".join(line % tuple(row) for row in rows))


def _write_json(path, obj):
    """obj as indented JSON, keys sorted, and a newline; an array in obj is
    a TypeError."""
    _write(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _open_input(path):
    """open(path) for reading; a file that cannot be opened is a domain
    error that names it."""
    try:
        return open(path)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}") from exc


def load_config(path) -> dict:
    """Flat key=value text file; '#' comments and blank lines ignored."""
    cfg = {}
    with _open_input(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"malformed config line: {line!r}")
            key, val = line.split("=", 1)
            cfg[key.strip()] = val.strip()
    return cfg


def _apply_config(args, parser, argv):
    """Parse argv again with the config values as the subcommand's
    defaults: argparse converts them by each flag's type, and any flag the
    command line sets, in whatever spelling argparse accepts, wins.  Keys
    name the subcommand's own flags; argparse does not check defaults
    against `choices`, so that check is made here."""
    sub = parser.commands[args.command]
    flags = {a.dest: a for a in sub._actions if a.option_strings and a.dest != "help"}
    defaults = {}
    for key, val in load_config(args.config).items():
        action = flags.get(key.replace("-", "_"))
        if action is None:
            raise ValueError(f"unknown config key {key!r}")
        if isinstance(action.default, bool):   # store_true flags
            val = val.lower() in ("1", "true", "on")
        elif action.choices is not None and val not in action.choices:
            raise ValueError(f"config key {key!r}: invalid choice {val!r} "
                             f"(choose from {', '.join(action.choices)})")
        defaults[action.dest] = val
    sub.set_defaults(**defaults)
    return parser.parse_args(argv)


_DATA_FILE_KEYS = ("profile", "model", "E_uniform", "B_uniform", "include_coulomb", "E_curl")


def _finite(x) -> bool:
    """x is a finite JSON number (true and false are not numbers)."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and bool(np.isfinite(x))


def _vector3(x) -> bool:
    return isinstance(x, list) and len(x) == 3 and all(map(_finite, x))


def _entry(spec, key, ok, expected, default=None):
    """spec[key] (default when the key is absent and a default is given) if
    ok(value); anything else is a domain error naming the key."""
    value = spec[key] if default is None else spec.get(key, default)
    if not ok(value):
        raise ValueError(f"malformed data file: {key!r} must be {expected}, not {value!r}")
    return value


# the flags that set each library quantity a stationary or gyro-sim refusal names
FLAGS = {"R": "--radius", "total": "--charge", "mass": "--mass", "omega R": "--omega-over-c",
         "scale": "--perturb", "horizon": "--horizon", "r_max": "--r-max-over-R",
         "|s_b + s_e|": "--perturb (with --omega-over-c, --mass, --charge)"}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_renorm_flow(args) -> int:
    from . import renormflow as rf

    k = rf.PhysicalConstants(include_anomaly=(args.anomaly == "on"))
    try:
        kind, lo, hi, n = args.mb_grid.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError:   # not four fields, or a number that does not parse
        kind = None
    if kind != "log":
        raise ValueError(f"--mb-grid must look like log:LO:HI:N, got {args.mb_grid!r}")
    if n < 1:
        raise ValueError(f"--mb-grid needs at least one point, got N = {n}")
    try:   # eta_of_mb refuses an m_b outside (0, 1), a NaN or inf end included
        with np.errstate(invalid="ignore"):
            grid = np.geomspace(lo, hi, n)
        rows = rf.flow_sweep(grid, k)
    except ValueError as exc:
        raise ValueError(f"--mb-grid {args.mb_grid}: {exc}") from exc

    out = _out_dir(args)
    header = ["mb_over_me", "R_over_RC", "omegaR_over_c", "W_b", "W_f",
              "sb_over_hbar", "sf_over_hbar", "s_over_hbar", "g"]
    path = os.path.join(out, "flow.csv")
    _write_csv(path, header, [[p.as_row()[h] for h in header] for p in rows])
    written = [path]
    if args.report:
        rpath = os.path.join(out, "limit_constants.json")
        _write_json(rpath, rf.limit_constants(k))
        written.append(rpath)
    for p in written:
        print(p)
    return EXIT_OK


def cmd_stationary(args) -> int:
    from .bare_particle import DensityProfile
    from .fields import stationary_state

    if args.n_radial < 2:
        raise ValueError(f"--n-radial must be at least 2, got {args.n_radial}")
    if not 0 < args.r_max_over_R < np.inf:
        raise ValueError(f"--r-max-over-R must be positive and finite, got {args.r_max_over_R:g}")
    fe = DensityProfile(args.profile, -args.charge, args.radius)
    st = stationary_state(fe, [0.0, 0.0, args.omega_over_c / args.radius])

    out = _out_dir(args)
    table = st.profile_table(np.linspace(0.0, args.r_max_over_R * args.radius, args.n_radial))
    cols = ["r", "E_r", "alpha", "B_axial", "B_equatorial"]
    path = os.path.join(out, "stationary_profile.csv")
    _write_csv(path, cols, zip(*[table[c].tolist() for c in cols]))
    spath = os.path.join(out, "stationary_summary.json")
    _write_json(spath, st.summary())
    print(path, spath, sep="\n")
    return EXIT_OK


def cmd_gyro_sim(args) -> int:
    from .bare_particle import DensityProfile
    from .gyrodynamics import GyroSolver

    if args.cells_per_radius < 1:
        raise ValueError(f"--cells-per-radius must be positive, got {args.cells_per_radius}")
    if args.mode == "picard" and args.picard_iters < 2:
        raise ValueError(f"--picard-iters must be at least 2, got {args.picard_iters}: a run "
                         f"contracts when its last gap is below its first, or 0")
    fe = DensityProfile(args.profile, -args.charge, args.radius)
    try:
        fm = DensityProfile(args.profile, args.mass, args.radius)
    except ValueError as exc:   # only its total can fail, fe having passed R
        raise ValueError(f"--mass: {exc}") from exc
    solver = GyroSolver(fe, fm, dr=args.radius / args.cells_per_radius,
                        r_max=args.r_max_over_R * args.radius)
    state = solver.make_state(np.array([0.0, 0.0, args.omega_over_c / args.radius]),
                              scale=args.perturb)
    horizon = args.horizon * args.radius

    if args.mode == "picard":
        res = solver.picard_iterate(state, n_max=args.picard_iters, horizon=horizon)
        written = [os.path.join(_out_dir(args), "picard_gaps.csv")]
        _write_csv(written[0], ["iteration", "gap_w", "gap_pi", "gap_sb"],
                   [[i, *gaps] for i, gaps
                    in enumerate(zip(res.gaps_w, res.gaps_pi, res.gaps_sb))])
        peak = np.max([res.gaps_w, res.gaps_pi, res.gaps_sb], axis=0)
    else:
        traj, fit = solver.run_to_stationary(state, horizon=horizon)
        written = [os.path.join(_out_dir(args), name) for name
                   in ("timeseries.csv", "relaxation_fit.json", "energy_audit.json")]
        zeros = [0.0] * len(traj.t)
        _write_csv(written[0], ["t", "omega_x", "omega_y", "omega_z",
                                "sb_x", "sb_y", "sb_z", "W_b", "W_field_inside", "flux"],
                   zip(traj.t.tolist(), zeros, zeros, traj.omega.tolist(), zeros, zeros,
                       traj.sb.tolist(), traj.W_b.tolist(), traj.W_field_inside.tolist(),
                       traj.flux.tolist()))
        _write_json(written[1], {"omega_inf": fit.omega_inf, "converged": fit.converged})
        _write_json(written[2], solver.energy_audit(traj))
    for p in written:
        print(p)
    if args.mode == "picard" and not (np.all(np.isfinite(peak))
                                      and (peak[-1] < peak[0] or peak[-1] == 0.0)):
        print(f"numerical failure: Picard did not contract, max gap {peak[0]:.3g} at "
              f"iteration 0 and {peak[-1]:.3g} at iteration {len(peak) - 1}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_admissibility(args) -> int:
    from . import admissibility as adm
    from .bare_particle import DensityProfile

    if args.data_file:
        with _open_input(args.data_file) as fh:
            spec = json.load(fh)
        try:
            unknown = sorted(set(spec) - set(_DATA_FILE_KEYS))
            if unknown:
                raise ValueError(f"malformed data file: unknown key {unknown[0]!r} "
                                 f"(known: {', '.join(_DATA_FILE_KEYS)})")
            prof = _entry(spec, "profile", lambda x: isinstance(x, dict), "an object")
            fe = DensityProfile(prof.get("kind", "shell"),
                                *(float(_entry(prof, k, _finite, "a finite number")) for k in ("total", "R")))
            model = _entry(spec, "model", lambda x: isinstance(x, str) and x in adm.CHECKS,
                           f"one of {', '.join(adm.CHECKS)}")
            kwargs = dict(
                e_uniform=_entry(spec, "E_uniform", _vector3, "3 finite numbers", [0.0] * 3),
                b_uniform=_entry(spec, "B_uniform", _vector3, "3 finite numbers", [0.0] * 3),
                include_coulomb=_entry(spec, "include_coulomb", lambda x: isinstance(x, bool),
                                       "true or false", True),
                e_curl=_entry(spec, "E_curl", _finite, "a finite number", 0.0))
        except KeyError as exc:
            raise ValueError(f"malformed data file: missing {exc}") from exc
        except TypeError as exc:
            raise ValueError(f"malformed data file: {exc}") from exc
        data = adm.make_initial_data(fe, **kwargs)
    else:
        data, model = adm.build_scenario(args.scenario)
    report = adm.run_check(data, model)
    out = _out_dir(args)
    path = os.path.join(out, "admissibility_report.json")
    _write_json(path, report.as_dict())
    print(path)
    print(f"{report.model}: {report.verdict} (family dim {report.dim_family})")
    return EXIT_OK


def cmd_selfcheck(args) -> int:
    """Fast internal identity battery; exit 3 on any numerical failure."""
    from . import renormflow as rf
    from .bare_particle import DensityProfile, GyrationCurve, gyrational_mass
    from .fields import field_spin, field_energy, stationary_state

    checks = []

    def check(name, ok):
        checks.append((name, bool(ok)))
        print(f"{'PASS' if ok else 'FAIL'}  {name}")

    fe = DensityProfile.shell(-1.0, 1.0)
    fm = DensityProfile.shell(1.0, 1.0)
    check("shell gyrational mass closed form",
          abs(gyrational_mass(fm, 0.5) - 2.0 * np.arctanh(0.5)) < 1e-12)
    curve = GyrationCurve(fm)
    check("spin inversion round trip", abs(curve.invert(curve.sigma(0.5)) - 0.5) < 1e-10)

    st = stationary_state(fe, [0.0, 0.0, 0.5])
    check("shell field energy closed form",
          abs(field_energy(st) - 0.5 * (1.0 + 2.0 / 9.0 * 0.25)) < 1e-12)
    try:
        sf = field_spin(st)
        check("field spin representations agree",
              abs(np.linalg.norm(sf) - (2.0 / 9.0) * 0.5) < 1e-8)
    except Exception:
        check("field spin representations agree", False)

    k = rf.PhysicalConstants(include_anomaly=False)
    lc = rf.limit_constants(k)
    check("flow limit radius 1.5 R_C",
          abs(lc["R_lim_over_RC"] - 1.5) < 1e-14)
    check("spin decomposition identity", rf.spin_decomposition_identity())

    ok = all(flag for _, flag in checks)
    print(f"{sum(f for _, f in checks)}/{len(checks)} checks passed")
    return EXIT_OK if ok else EXIT_NUMERICAL


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ledlab",
        description="Spinning extended-charge electrodynamics laboratory")
    sub = p.add_subparsers(dest="command", required=True)
    p.commands = sub.choices   # subcommand name -> its parser

    def common(sp):
        sp.add_argument("--out-dir", default=None,
                        help="output directory (default $LEDLAB_OUTDIR or .)")
        sp.add_argument("--config", default=None,
                        help="flat key=value config file; flags win")

    sp = sub.add_parser("renorm-flow", help="flow table and limit constants")
    common(sp)
    sp.add_argument("--mb-grid", default="log:1e-6:0.99:40",
                    help="log:LO:HI:N bare-mass grid in units of m_e")
    sp.add_argument("--anomaly", choices=("on", "off"), default="on")
    sp.add_argument("--report", action="store_true",
                    help="also write limit_constants.json")

    sp = sub.add_parser("stationary", help="stationary bound-state fields")
    common(sp)
    sp.add_argument("--profile", choices=("shell", "volume"), default="shell")
    sp.add_argument("--radius", type=float, default=1.0)
    sp.add_argument("--charge", type=float, default=1.0, help="e > 0; total is -e")
    sp.add_argument("--omega-over-c", type=float, default=0.5,
                    help="equatorial speed omega R / c")
    sp.add_argument("--n-radial", type=int, default=200)
    sp.add_argument("--r-max-over-R", type=float, default=5.0)

    sp = sub.add_parser("gyro-sim", help="fixed-center gyration dynamics")
    common(sp)
    sp.add_argument("--mode", choices=("relax", "picard"), default="relax")
    sp.add_argument("--profile", choices=("shell", "volume"), default="shell")
    sp.add_argument("--radius", type=float, default=1.0)
    sp.add_argument("--charge", type=float, default=1.0)
    sp.add_argument("--mass", type=float, default=2.0, help="bare rest mass")
    sp.add_argument("--omega-over-c", type=float, default=0.3)
    sp.add_argument("--perturb", type=float, default=0.5,
                    help="initial dynamic field = perturb * stationary")
    sp.add_argument("--horizon", type=float, default=60.0,
                    help="run time in units of R/c")
    sp.add_argument("--cells-per-radius", type=int, default=20)
    sp.add_argument("--r-max-over-R", type=float, default=10.0)
    sp.add_argument("--picard-iters", type=int, default=20,
                    help="iterations of --mode picard: pi, then w and s_b from it")

    sp = sub.add_parser("admissibility", help="singular-limit data classifier")
    common(sp)
    sp.add_argument("--scenario", default="uniform-E-coulomb-abraham",
                    help="built-in case, e.g. uniform-B-nodvik")
    sp.add_argument("--data-file", default=None,
                    help="JSON description of analytic initial data")

    sp = sub.add_parser("selfcheck", help="run the internal identity battery")
    common(sp)
    return p


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = None
    try:
        args = _shared_parser().parse_args(argv)
        if args.config:
            args = _apply_config(args, build_parser(), argv)
        return {"renorm-flow": cmd_renorm_flow, "stationary": cmd_stationary,
                "gyro-sim": cmd_gyro_sim, "admissibility": cmd_admissibility,
                "selfcheck": cmd_selfcheck}[args.command](args)
    except SystemExit as exc:  # argparse usage errors
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    except (ValueError, KeyError) as exc:
        msg = str(exc)
        if getattr(args, "command", None) in ("stationary", "gyro-sim"):
            msg = next((f"{f}: {msg}" for q, f in FLAGS.items() if msg.startswith(q + " ")), msg)
        print(f"error: {msg}", file=sys.stderr)
        return EXIT_DOMAIN
    except (ArithmeticError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except Exception as exc:
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
