"""Command-line front end.

Subcommands: renorm-flow, stationary, gyro-sim, admissibility, selfcheck.
A flat key=value config file can seed any run; command-line flags win.
Outputs are deterministic (17 significant digits, no timestamps), so an
identical spec produces byte-identical files.

Exit codes: 0 ok, 1 usage error, 2 domain error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_NUMERICAL = 3


def fmt(x) -> str:
    return f"{float(x):.17g}"


def _out_dir(args) -> str:
    d = args.out_dir or os.environ.get("LEDLAB_OUTDIR", ".")
    os.makedirs(d, exist_ok=True)
    return d


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        for row in rows:
            wr.writerow([fmt(v) if isinstance(v, (int, float, np.floating)) else v
                         for v in row])


def _write_json(path, obj):
    def default(o):
        if isinstance(o, np.ndarray):
            return o.tolist()
        if isinstance(o, (np.floating, np.integer)):
            return float(o)
        raise TypeError(type(o))

    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=default)
        fh.write("\n")


def load_config(path) -> dict:
    """Flat key=value text file; '#' comments and blank lines ignored."""
    cfg = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"malformed config line: {line!r}")
            key, val = line.split("=", 1)
            cfg[key.strip()] = val.strip()
    return cfg


def _apply_config(args, parser):
    if getattr(args, "config", None):
        cfg = load_config(args.config)
        for key, val in cfg.items():
            dest = key.replace("-", "_")
            if not hasattr(args, dest):
                raise ValueError(f"unknown config key {key!r}")
            if f"--{key}" in getattr(args, "_explicit", set()):
                continue  # flags given on the command line win
            current = getattr(args, dest)
            typ = type(current) if current is not None else str
            setattr(args, dest, typ(val) if typ is not bool else val.lower() in ("1", "true", "on"))
    return args


def _profile_from_args(args, total):
    from .bare_particle import DensityProfile

    if args.profile == "shell":
        return DensityProfile.shell(total, args.radius)
    if args.profile == "volume":
        return DensityProfile.volume(total, args.radius)
    raise ValueError(f"unknown profile {args.profile!r}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_renorm_flow(args) -> int:
    from . import renormflow as rf

    k = rf.PhysicalConstants(include_anomaly=(args.anomaly == "on"))
    spec = args.mb_grid.split(":")
    if len(spec) != 4 or spec[0] != "log":
        raise ValueError("mb-grid must look like log:LO:HI:N (units of m_e)")
    lo, hi, n = float(spec[1]), float(spec[2]), int(spec[3])
    if not (0.0 < lo < hi < 1.0):
        raise ValueError("mb grid must lie strictly inside (0, 1) m_e")
    grid = np.geomspace(lo, hi, n) * k.m_e
    rows = rf.flow_sweep(grid, k)

    out = _out_dir(args)
    header = ["mb_over_me", "R_over_RC", "omegaR_over_c", "W_b", "W_f",
              "sb_over_hbar", "sf_over_hbar", "s_over_hbar", "g"]
    path = os.path.join(out, "flow.csv")
    _write_csv(path, header, [[p.as_row(k)[h] for h in header] for p in rows])
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

    omega = args.omega_over_c * args.c / args.radius
    fe = _profile_from_args(args, -args.charge)
    st = stationary_state(fe, [0.0, 0.0, omega], c=args.c)

    out = _out_dir(args)
    r = np.linspace(0.0, args.r_max_over_R * args.radius, args.n_radial)
    table = st.profile_table(r)
    cols = ["r", "E_r", "alpha", "B_axial", "B_equatorial"]
    path = os.path.join(out, "stationary_profile.csv")
    _write_csv(path, cols, zip(*[table[c] for c in cols]))
    spath = os.path.join(out, "stationary_summary.json")
    _write_json(spath, st.summary())
    print(path)
    print(spath)
    return EXIT_OK


def cmd_gyro_sim(args) -> int:
    from .bare_particle import DensityProfile
    from .gyrodynamics import GyroSolver

    fe = _profile_from_args(args, -args.charge)
    fm = _profile_from_args(args, args.mass)
    solver = GyroSolver(fe, fm, c=args.c, dr=args.radius / args.cells_per_radius,
                        r_max=args.r_max_over_R * args.radius)
    omega0 = np.array([0.0, 0.0, args.omega_over_c * args.c / args.radius])
    state = solver.make_state(omega0, field="stationary", scale=args.perturb)
    out = _out_dir(args)
    written = []

    if args.mode == "picard":
        res = solver.picard_iterate(state, n_max=args.picard_iters,
                                    horizon=args.horizon * args.radius / args.c)
        path = os.path.join(out, "picard_gaps.csv")
        _write_csv(path, ["iteration", "gap_w", "gap_pi", "gap_sb"],
                   [[i, *gaps] for i, gaps
                    in enumerate(zip(res.gaps_w, res.gaps_pi, res.gaps_sb))])
        written.append(path)
    else:
        traj, fit = solver.run_to_stationary(
            state, horizon=args.horizon * args.radius / args.c)
        path = os.path.join(out, "timeseries.csv")
        _write_csv(path, ["t", "omega_x", "omega_y", "omega_z",
                          "sb_x", "sb_y", "sb_z", "W_b", "W_field_inside", "flux"],
                   [[traj.t[i], *traj.omega[i], *traj.sb[i], traj.W_b[i],
                     traj.W_field_inside[i], traj.flux[i]]
                    for i in range(len(traj.t))])
        written.append(path)
        fpath = os.path.join(out, "relaxation_fit.json")
        _write_json(fpath, {"omega_inf": fit.omega_inf, "rate": fit.rate,
                            "log_residual": fit.log_residual,
                            "window": list(fit.window),
                            "converged": fit.converged, "note": fit.note})
        written.append(fpath)
        audit = solver.energy_audit(traj)
        apath = os.path.join(out, "energy_audit.json")
        _write_json(apath, {"radiated": audit["radiated"],
                            "cumulative_defect": audit["cumulative_defect"],
                            "normalized_defect": audit["normalized_defect"]})
        written.append(apath)
    for p in written:
        print(p)
    return EXIT_OK


def cmd_admissibility(args) -> int:
    from . import admissibility as adm
    from .bare_particle import DensityProfile

    if args.data_file:
        with open(args.data_file) as fh:
            spec = json.load(fh)
        try:
            prof = spec["profile"]
            fe = (DensityProfile.shell(prof["total"], prof["R"])
                  if prof.get("kind", "shell") == "shell"
                  else DensityProfile.volume(prof["total"], prof["R"]))
            data = adm.make_initial_data(
                fe,
                e_uniform=spec.get("E_uniform", (0.0, 0.0, 0.0)),
                b_uniform=spec.get("B_uniform", (0.0, 0.0, 0.0)),
                include_coulomb=spec.get("include_coulomb", True),
                e_curl=spec.get("E_curl", 0.0))
            model = spec["model"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed data file: missing {exc}") from exc
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
    from . import minkowski as mk
    from . import renormflow as rf
    from .bare_particle import DensityProfile, bare_spin, gyrational_mass, omega_from_spin
    from .fields import field_spin, field_energy, stationary_state, stress_energy

    checks = []

    def check(name, ok):
        checks.append((name, bool(ok)))
        print(f"{'PASS' if ok else 'FAIL'}  {name}")

    g = mk.METRIC_TENSOR
    check("trace(metric) == 4", abs(mk.trace(g) - 4.0) < 1e-14)
    rng = np.random.default_rng(7)
    a = mk.FourVector(rng.normal(size=4))
    b = mk.FourVector(rng.normal(size=4))
    check("antisymmetric trace vanishes", abs(mk.trace(mk.wedge_up(a, b))) < 1e-12)
    check("metric acts as identity",
          np.allclose(g.dot(a).c, a.c, atol=1e-15))

    fe = DensityProfile.shell(-1.0, 1.0)
    fm = DensityProfile.shell(1.0, 1.0)
    check("shell gyrational mass closed form",
          abs(gyrational_mass(fm, 0.5) - 2.0 * np.arctanh(0.5)) < 1e-12)
    s = bare_spin(fm, [0.0, 0.0, 0.5])
    check("spin inversion round trip",
          abs(np.linalg.norm(omega_from_spin(fm, s)) - 0.5) < 1e-10)

    st = stationary_state(fe, [0.0, 0.0, 0.5])
    check("shell field energy closed form",
          abs(field_energy(st) - 0.5 * (1.0 + 2.0 / 9.0 * 0.25)) < 1e-12)
    try:
        sf = field_spin(st)
        check("field spin representations agree",
              abs(np.linalg.norm(sf) - (2.0 / 9.0) * 0.5) < 1e-8)
    except Exception:
        check("field spin representations agree", False)

    t = stress_energy(rng.normal(size=3), rng.normal(size=3))
    check("stress-energy traceless", abs(mk.trace(t)) < 1e-12)

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
    sp.set_defaults(func=cmd_renorm_flow)

    sp = sub.add_parser("stationary", help="stationary bound-state fields")
    common(sp)
    sp.add_argument("--profile", choices=("shell", "volume"), default="shell")
    sp.add_argument("--radius", type=float, default=1.0)
    sp.add_argument("--charge", type=float, default=1.0, help="e > 0; total is -e")
    sp.add_argument("--omega-over-c", type=float, default=0.5,
                    help="equatorial speed omega R / c")
    sp.add_argument("--c", type=float, default=1.0)
    sp.add_argument("--n-radial", type=int, default=200)
    sp.add_argument("--r-max-over-R", type=float, default=5.0)
    sp.set_defaults(func=cmd_stationary)

    sp = sub.add_parser("gyro-sim", help="fixed-center gyration dynamics")
    common(sp)
    sp.add_argument("--mode", choices=("relax", "picard"), default="relax")
    sp.add_argument("--profile", choices=("shell", "volume"), default="shell")
    sp.add_argument("--radius", type=float, default=1.0)
    sp.add_argument("--charge", type=float, default=1.0)
    sp.add_argument("--mass", type=float, default=2.0, help="bare rest mass")
    sp.add_argument("--omega-over-c", type=float, default=0.3)
    sp.add_argument("--perturb", type=float, default=1.0,
                    help="initial dynamic field = perturb * stationary")
    sp.add_argument("--horizon", type=float, default=60.0,
                    help="run time in units of R/c")
    sp.add_argument("--cells-per-radius", type=int, default=20)
    sp.add_argument("--r-max-over-R", type=float, default=10.0)
    sp.add_argument("--picard-iters", type=int, default=40)
    sp.add_argument("--c", type=float, default=1.0)
    sp.set_defaults(func=cmd_gyro_sim)

    sp = sub.add_parser("admissibility", help="singular-limit data classifier")
    common(sp)
    sp.add_argument("--scenario", default="uniform-E-coulomb-abraham",
                    help="built-in case, e.g. uniform-B-nodvik")
    sp.add_argument("--data-file", default=None,
                    help="JSON description of analytic initial data")
    sp.set_defaults(func=cmd_admissibility)

    sp = sub.add_parser("selfcheck", help="run the internal identity battery")
    common(sp)
    sp.set_defaults(func=cmd_selfcheck)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        args._explicit = {a.split("=", 1)[0] for a in argv if a.startswith("--")}
        args = _apply_config(args, parser)
        return args.func(args)
    except SystemExit as exc:  # argparse usage errors
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (ArithmeticError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
