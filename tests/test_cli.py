"""Command-line front end: config precedence, config and data-file
validation, output columns, exit codes, refusals that name their flag in
one stderr line, an admissibility report, the
default flow table and the default stationary outputs against pinned
files, byte-identical reruns, the CSV
writer against csv with one format per cell, and one shared parser that
--config runs leave unchanged."""

import csv
import filecmp
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from ledlab import cli
from ledlab.bare_particle import DensityProfile
from ledlab.gyrodynamics import GyroSolver

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parents[1] / "src"


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _main(argv, capsys):
    """The exit code of cli.main(argv) and its stderr lines, with one more
    line per warning it issued, which a command-line run would print."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(argv)
    return code, capsys.readouterr().err.splitlines() + [str(w.message) for w in caught]


def _assert_one_line_refusal(code, lines):
    """An exit 2, or an exit 3 that is not an internal error, prints one line."""
    if code == cli.EXIT_DOMAIN or (code == cli.EXIT_NUMERICAL
                                   and not any("internal error" in x for x in lines)):
        assert len(lines) == 1, lines


@pytest.fixture
def config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# stationary run\nradius=2.0\nn-radial=11\n")
    return path


@pytest.mark.parametrize("flag", [["--radius", "3.0"], ["--radius=3.0"],
                                  ["--rad=3.0"], ["--rad", "3.0"]])
def test_explicit_flag_beats_config(tmp_path, config, flag):
    rc = cli.main(["stationary", *flag, "--config", str(config), "--out-dir", str(tmp_path)])
    assert rc == cli.EXIT_OK
    rows = _rows(tmp_path / "stationary_profile.csv")
    assert len(rows) == 1 + 11                          # n-radial from the config
    assert float(rows[-1][0]) == 5.0 * 3.0              # r_max = 5 R with R from the flag


def test_config_fills_unset_flags(tmp_path, config):
    assert cli.main(["stationary", "--config", str(config), "--out-dir", str(tmp_path)]) == 0
    assert float(_rows(tmp_path / "stationary_profile.csv")[-1][0]) == 5.0 * 2.0


def test_config_switches_flags_and_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "flow.cfg"
    cfg.write_text("report=on\n")
    assert cli.main(["renorm-flow", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "limit_constants.json").exists()
    cfg.write_text("no-such-key=1\n")
    assert cli.main(["renorm-flow", "--config", str(cfg),
                     "--out-dir", str(tmp_path)]) == cli.EXIT_DOMAIN


@pytest.mark.parametrize("command, line, word", [
    ("renorm-flow", "anomaly=maybe", "anomaly"),       # value outside the flag's choices
    ("selfcheck", "func=x", "func"),                    # namespace attribute, not a flag
    ("selfcheck", "command=stationary", "command"),     # the top-level parser's destination
    ("gyro-sim", "c=1", "c"),                           # c = 1 is the unit, not a setting
    ("stationary", "c=1", "c"),
])
def test_config_rejects_what_the_command_line_rejects(tmp_path, capsys, command, line, word):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(cfg), "--out-dir", str(out)]) == cli.EXIT_DOMAIN
    assert repr(word) in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_data_file_rejects_unknown_profile_kind(tmp_path, capsys):
    spec = {"profile": {"kind": "shel", "total": -1.0, "R": 1.0}, "model": "nodvik"}
    path = tmp_path / "data.json"
    out = tmp_path / "out"
    argv = ["admissibility", "--data-file", str(path), "--out-dir", str(out)]
    for kind in ("shel", "cube"):
        spec["profile"]["kind"] = kind
        path.write_text(json.dumps(spec))
        assert cli.main(argv) == cli.EXIT_DOMAIN
        err = capsys.readouterr().err
        assert repr(kind) in err and "internal error" not in err
        assert not (out / "admissibility_report.json").exists()
    spec["profile"]["kind"] = "volume"
    path.write_text(json.dumps(spec))
    assert cli.main(argv) == cli.EXIT_OK


@pytest.mark.parametrize("profile, word", [
    (3, "'profile'"),
    ({"kind": "shell", "total": "x", "R": 1.0}, "'total'"),
    ({"kind": "shell", "total": -1.0, "R": [1.0]}, "'R'"),
])
def test_data_file_rejects_malformed_profiles(tmp_path, capsys, profile, word):
    path = tmp_path / "data.json"
    path.write_text(json.dumps({"profile": profile, "model": "nodvik"}))
    out = tmp_path / "out"
    argv = ["admissibility", "--data-file", str(path), "--out-dir", str(out)]
    assert cli.main(argv) == cli.EXIT_DOMAIN
    err = capsys.readouterr().err
    assert "malformed data file" in err and word in err
    assert not (out / "admissibility_report.json").exists()


@pytest.mark.parametrize("key, value", [
    ("E_curl", "x"),
    ("E_curl", True),
    ("E_uniform", [1, 2]),
    ("E_uniform", [0.0, 0.0, float("nan")]),
    ("B_uniform", [0, "x", 0]),
    ("B_uniform", 0.1),
    ("include_coulomb", "no"),
    ("include_coulomb", 0),
    ("model", "nosuch"),
    ("model", ["nodvik"]),
    ("E_unifrom", [0.0, 0.0, 0.0]),
])
def test_data_file_rejects_malformed_keys(tmp_path, capsys, key, value):
    spec = {"profile": {"kind": "shell", "total": -1.0, "R": 1.0}, "model": "nodvik"}
    path = tmp_path / "data.json"
    path.write_text(json.dumps({**spec, key: value}))
    out = tmp_path / "out"
    argv = ["admissibility", "--data-file", str(path), "--out-dir", str(out)]
    assert cli.main(argv) == cli.EXIT_DOMAIN
    err = capsys.readouterr().err
    assert "malformed data file" in err and repr(key) in err
    assert not (out / "admissibility_report.json").exists()


@pytest.mark.parametrize("spec, code, word", [
    ({"profile": {"kind": "shell", "total": 0, "R": 1}, "model": "nodvik"},
     cli.EXIT_DOMAIN, "error: the profile's total"),
    ({"profile": {"kind": "volume", "total": -1e-320, "R": 1}, "model": "abraham_spin",
      "E_uniform": [1, 0, 0]}, cli.EXIT_DOMAIN, "error: the profile's total"),
    ({"profile": {"kind": "shell", "total": -1, "R": 1}, "model": "abraham_spin",
      "E_curl": 1e308}, cli.EXIT_NUMERICAL, "numerical failure: the abraham_spin constraint"),
    ({"profile": {"kind": "shell", "total": -1, "R": 1e300}, "model": "nodvik",
      "B_uniform": [0, 0, 1]}, cli.EXIT_NUMERICAL, "numerical failure: the field moments"),
])
def test_data_file_without_a_finite_average_writes_no_report(tmp_path, capsys, spec, code, word):
    # a zero or subnormal total leaves no charge-weighted average to form;
    # moments or a residual that overflow are a numerical failure
    path = tmp_path / "data.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "out"
    got, lines = _main(["admissibility", "--data-file", str(path), "--out-dir", str(out)], capsys)
    assert got == code and word in lines[0]
    _assert_one_line_refusal(got, lines)
    assert not out.exists()


@pytest.mark.parametrize("spec, word", [
    ({"profile": {"kind": "shell", "total": -1, "R": 1}, "model": "abraham_spin",
      "E_curl": 1e308}, "numerical failure: the abraham_spin constraint"),
    ({"profile": {"kind": "shell", "total": -1, "R": 1e300}, "model": "nodvik",
      "B_uniform": [0, 0, 1]}, "numerical failure: the field moments"),
])
def test_overflowing_data_file_prints_one_line_in_a_subprocess(tmp_path, spec, word):
    # numpy prints an overflow warning, source line included, unless the
    # classifier's numerics run under np.errstate
    path = tmp_path / "data.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-W", "always", "-m", "ledlab.cli", "admissibility",
                           "--data-file", str(path), "--out-dir", str(out)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == cli.EXIT_NUMERICAL
    assert proc.stderr.splitlines() == [proc.stderr.strip()] and word in proc.stderr
    assert not out.exists()


def test_data_file_radius_is_not_the_radius_flag(tmp_path, capsys):
    # the file's R is a quantity of the data, not --radius
    path = tmp_path / "data.json"
    path.write_text(json.dumps({"profile": {"kind": "shell", "total": -1, "R": -1},
                                "model": "nodvik"}))
    out = tmp_path / "out"
    code, lines = _main(["admissibility", "--data-file", str(path), "--out-dir", str(out)], capsys)
    assert code == cli.EXIT_DOMAIN and lines == ["error: R must be positive and finite, got -1"]
    assert not out.exists()


def test_data_file_with_every_key_matches_the_scenario(tmp_path, capsys):
    spec = {"profile": {"kind": "shell", "total": -1, "R": 1.0}, "model": "abraham_spin",
            "E_uniform": [0, 0, 0], "B_uniform": [0.0, 0.0, 0.08],
            "include_coulomb": True, "E_curl": 0.04}
    path = tmp_path / "data.json"
    path.write_text(json.dumps(spec))
    for name, source in (("file", ["--data-file", str(path)]),
                         ("scenario", ["--scenario", "curlE-uniform-B-abraham"])):
        assert cli.main(["admissibility", *source, "--out-dir", str(tmp_path / name)]) == cli.EXIT_OK
    report = "admissibility_report.json"
    assert (tmp_path / "file" / report).read_bytes() == (tmp_path / "scenario" / report).read_bytes()


def _numbers(obj):
    if isinstance(obj, dict):
        return [x for key in sorted(obj) for x in _numbers(obj[key])]
    if isinstance(obj, list):
        return [x for v in obj for x in _numbers(v)]
    return [obj] if isinstance(obj, float) else []


def test_admissibility_report_matches_the_pinned_file(tmp_path, capsys):
    pinned = json.loads((DATA / "admissibility_curlE-uniform-B-abraham.json").read_text())
    argv = ["admissibility", "--scenario", "curlE-uniform-B-abraham", "--out-dir", str(tmp_path)]
    assert cli.main(argv) == cli.EXIT_OK
    got = json.loads((tmp_path / "admissibility_report.json").read_text())
    assert (got["verdict"], got["dim_family"]) == (pinned["verdict"], pinned["dim_family"])
    assert sorted(got) == sorted(pinned)
    np.testing.assert_allclose(_numbers(got), _numbers(pinned), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("argv", [
    ["stationary"],
    ["renorm-flow", "--report"],
    ["gyro-sim", "--horizon", "1", "--perturb", "0.5"],
    ["admissibility", "--scenario", "curlE-uniform-B-nodvik"],
    ["gyro-sim", "--mode", "picard", "--horizon", "0.05", "--picard-iters", "4"],
])
def test_rerun_is_byte_identical(tmp_path, capsys, argv):
    first, second = tmp_path / "first", tmp_path / "second"
    assert cli.main([*argv, "--out-dir", str(first)]) == cli.EXIT_OK
    assert cli.main([*argv, "--out-dir", str(second)]) == cli.EXIT_OK
    names = sorted(p.name for p in first.iterdir())
    assert names and names == sorted(p.name for p in second.iterdir())
    for name in names:
        assert filecmp.cmp(first / name, second / name, shallow=False), name


def test_picard_gaps_has_every_state_variable(tmp_path):
    argv = ["gyro-sim", "--mode", "picard", "--horizon", "0.05", "--picard-iters", "4",
            "--r-max-over-R", "3", "--out-dir", str(tmp_path)]
    assert cli.main(argv) == cli.EXIT_OK
    rows = _rows(tmp_path / "picard_gaps.csv")
    assert rows[0] == ["iteration", "gap_w", "gap_pi", "gap_sb"]

    fe, fm = DensityProfile.shell(-1.0, 1.0), DensityProfile.shell(2.0, 1.0)
    solver = GyroSolver(fe, fm, dr=1.0 / 20, r_max=3.0)
    state = solver.make_state(np.array([0.0, 0.0, 0.3]), scale=0.5)   # the --perturb default
    res = solver.picard_iterate(state, n_max=4, horizon=0.05)
    got = np.array(rows[1:], dtype=float)
    np.testing.assert_array_equal(got[:, 0], np.arange(4))
    np.testing.assert_array_equal(got[:, 1:], np.column_stack([res.gaps_w, res.gaps_pi,
                                                               res.gaps_sb]))


@pytest.mark.parametrize("horizon, iters, flags, code", [
    ("0.05", "4", [], cli.EXIT_OK),
    ("1", "40", [], cli.EXIT_NUMERICAL),
    # no charge: the first iterate is exact, and every gap is 0
    ("0.05", "4", ["--charge", "0"], cli.EXIT_OK),
    ("0.05", "4", ["--charge", "0", "--profile", "volume"], cli.EXIT_OK),
])
def test_picard_exits_3_unless_its_gaps_contract(tmp_path, capsys, horizon, iters, flags, code):
    argv = ["gyro-sim", "--mode", "picard", "--horizon", horizon, "--picard-iters", iters,
            *flags, "--out-dir", str(tmp_path)]
    assert cli.main(argv) == code
    gaps = np.array(_rows(tmp_path / "picard_gaps.csv")[1:], dtype=float)[:, 1:]
    assert len(gaps) == int(iters) and np.all(np.isfinite(gaps))
    first, last = gaps[0].max(), gaps[-1].max()
    assert (last < first or last == 0.0) == (code == cli.EXIT_OK)
    assert ("did not contract" in capsys.readouterr().err) == (code != cli.EXIT_OK)


@pytest.mark.parametrize("argv, code", [
    (["no-such-command"], cli.EXIT_USAGE),
    (["renorm-flow", "--mb-grid", "log:0.5:2.0:4"], cli.EXIT_DOMAIN),
    (["gyro-sim", "--omega-over-c", "1.5", "--horizon", "0.1"], cli.EXIT_DOMAIN),
    (["gyro-sim", "--horizon", "0"], cli.EXIT_DOMAIN),
    (["gyro-sim", "--horizon", "-1"], cli.EXIT_DOMAIN),
    (["gyro-sim", "--mode", "picard", "--horizon", "0"], cli.EXIT_DOMAIN),
    (["gyro-sim", "--mode", "picard", "--horizon", "-1"], cli.EXIT_DOMAIN),
    (["gyro-sim", "--mode", "picard", "--horizon", "0.05", "--picard-iters", "0"],
     cli.EXIT_DOMAIN),
    (["gyro-sim", "--mode", "picard", "--horizon", "0.05", "--picard-iters", "-2"],
     cli.EXIT_DOMAIN),
    (["selfcheck"], cli.EXIT_OK),
    (["gyro-sim", "--mode", "picard", "--horizon", "0.05", "--picard-iters", "1"],
     cli.EXIT_DOMAIN),
    (["gyro-sim", "--mode", "picard", "--horizon", "0.05", "--picard-iters", "2"], cli.EXIT_OK),
    (["gyro-sim", "--cells-per-radius", "0"], cli.EXIT_DOMAIN),
    (["gyro-sim", "--cells-per-radius", "-5"], cli.EXIT_DOMAIN),
    (["gyro-sim", "--c", "1"], cli.EXIT_USAGE),
    (["stationary", "--c", "1"], cli.EXIT_USAGE),
    (["gyro-sim", "--omega-over-c", "nan"], cli.EXIT_DOMAIN),
    (["gyro-sim", "--perturb", "nan"], cli.EXIT_DOMAIN),
    (["gyro-sim", "--radius", "nan"], cli.EXIT_DOMAIN),
    (["gyro-sim", "--r-max-over-R", "nan"], cli.EXIT_DOMAIN),
    (["gyro-sim", "--mass", "0"], cli.EXIT_DOMAIN),
    (["stationary", "--radius", "0"], cli.EXIT_DOMAIN),
    (["stationary", "--r-max-over-R", "-1"], cli.EXIT_DOMAIN),
    (["stationary", "--n-radial", "0"], cli.EXIT_DOMAIN),
    (["stationary", "--n-radial", "1"], cli.EXIT_DOMAIN),
    (["stationary", "--omega-over-c", "nan"], cli.EXIT_DOMAIN),
    (["stationary", "--n-radial", "2"], cli.EXIT_OK),
    (["renorm-flow", "--mb-grid", "log:0.1:0.5:0"], cli.EXIT_DOMAIN),
    (["renorm-flow", "--mb-grid", "log:0.1:0.5:-3"], cli.EXIT_DOMAIN),
    (["renorm-flow", "--mb-grid", "log:0.1:0.5:1"], cli.EXIT_OK),
    (["stationary", "--charge", "nan"], cli.EXIT_DOMAIN),
    (["stationary", "--charge", "inf"], cli.EXIT_DOMAIN),
    (["stationary", "--charge", "0"], cli.EXIT_OK),
    (["stationary", "--charge", "-1"], cli.EXIT_OK),
    (["gyro-sim", "--charge", "nan"], cli.EXIT_DOMAIN),
    (["gyro-sim", "--charge", "inf"], cli.EXIT_DOMAIN),
    (["gyro-sim", "--charge=-inf"], cli.EXIT_DOMAIN),
    (["gyro-sim", "--charge", "0", "--horizon", "0.1"], cli.EXIT_OK),
    (["gyro-sim", "--charge", "-1", "--horizon", "0.1"], cli.EXIT_OK),
    (["gyro-sim", "--perturb", "100", "--horizon", "0.5"], cli.EXIT_DOMAIN),
    (["gyro-sim", "--horizon", "inf"], cli.EXIT_DOMAIN),
    (["gyro-sim", "--horizon", "nan"], cli.EXIT_DOMAIN),
    (["gyro-sim", "--mode", "picard", "--horizon", "inf"], cli.EXIT_DOMAIN),
    (["renorm-flow", "--mb-grid", "log:0.1:0.5:x"], cli.EXIT_DOMAIN),
    (["renorm-flow", "--mb-grid", "log:0.1:x:3"], cli.EXIT_DOMAIN),
    (["renorm-flow", "--mb-grid", "log:x:0.5:3"], cli.EXIT_DOMAIN),
    (["renorm-flow", "--mb-grid", "log:0.1:0.5:2.5"], cli.EXIT_DOMAIN),
    (["renorm-flow", "--mb-grid", "lin:0.1:0.5:3"], cli.EXIT_DOMAIN),
    (["renorm-flow", "--mb-grid", "log:0.1:nan:3"], cli.EXIT_DOMAIN),
    (["renorm-flow", "--mb-grid", "log:0.1:inf:3"], cli.EXIT_DOMAIN),
    (["renorm-flow", "--mb-grid", "log:inf:0.5:2"], cli.EXIT_DOMAIN),
    (["renorm-flow", "--mb-grid", "log:-0.1:0.5:3"], cli.EXIT_DOMAIN),
    (["renorm-flow", "--mb-grid", "log:0:0.5:3"], cli.EXIT_DOMAIN),
    (["gyro-sim", "--r-max-over-R", "0.5"], cli.EXIT_DOMAIN),
    (["gyro-sim", "--r-max-over-R", "inf"], cli.EXIT_DOMAIN),
    (["gyro-sim", "--mass", "inf"], cli.EXIT_DOMAIN),
    (["gyro-sim", "--mass", "-1"], cli.EXIT_DOMAIN),
    (["gyro-sim", "--perturb", "inf"], cli.EXIT_DOMAIN),
    (["gyro-sim", "--omega-over-c", "inf"], cli.EXIT_DOMAIN),
    (["stationary", "--omega-over-c=-inf"], cli.EXIT_DOMAIN),
])
def test_exit_codes(tmp_path, capsys, argv, code):
    out = tmp_path / "out"
    got, lines = _main([*argv, "--out-dir", str(out)], capsys)
    assert got == code
    assert not any("internal error" in x for x in lines)
    _assert_one_line_refusal(got, lines)
    if code == cli.EXIT_DOMAIN:
        assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (["--cells-per-radius", "0"], "--cells-per-radius"),
    (["--cells-per-radius", "-5"], "--cells-per-radius"),
    (["--mode", "picard", "--picard-iters", "1"], "--picard-iters must be at least 2"),
    (["--mode", "picard", "--picard-iters", "0"], "--picard-iters must be at least 2"),
    (["--mode", "picard", "--picard-iters", "-2"], "--picard-iters must be at least 2"),
    (["--mode", "picard", "--cells-per-radius", "0"], "--cells-per-radius"),
    (["--omega-over-c", "nan"], "--omega-over-c: omega R must be finite"),
    (["--perturb", "nan"], "--perturb: scale must be finite"),
    (["--radius", "nan"], "--radius: R must be positive"),
    (["--r-max-over-R", "nan"], "--r-max-over-R: r_max must be positive"),
    (["--mass", "0"], "--mass: mass must be positive"),
    (["--charge", "nan"], "--charge: total must be finite"),
    (["--charge", "inf"], "--charge: total must be finite"),
    (["--horizon", "inf"], "--horizon: horizon must be positive and finite"),
    (["--horizon", "0"], "--horizon: horizon must be positive and finite"),
    (["--mode", "picard", "--horizon", "inf"], "--horizon: horizon must be positive and finite"),
    (["--omega-over-c", "1.0", "--horizon", "0.5"],
     "--omega-over-c: omega R must be finite and lie strictly between"),
    (["--omega-over-c", "-1.5", "--mode", "picard"],
     "--omega-over-c: omega R must be finite and lie strictly between"),
    (["--r-max-over-R", "0.5"], "--r-max-over-R: r_max must be positive, finite and exceed the "
                                "support radius"),
    (["--mass", "inf"], "--mass: total must be finite"),
    (["--mass", "-1"], "--mass: mass must be positive"),
    (["--mode", "picard", "--charge", "inf"], "--charge: total must be finite"),
])
def test_gyro_sim_refusal_names_the_flag(tmp_path, capsys, argv, flag):
    code, lines = _main(["gyro-sim", *argv, "--out-dir", str(tmp_path)], capsys)
    assert code == cli.EXIT_DOMAIN
    assert f"error: {flag}" in lines[0]
    _assert_one_line_refusal(code, lines)


@pytest.mark.parametrize("argv, flag", [
    (["stationary", "--radius", "0"], "--radius: R must be positive"),
    (["stationary", "--radius", "inf"], "--radius: R must be positive and finite"),
    (["stationary", "--r-max-over-R", "-1"], "--r-max-over-R must be positive"),
    (["stationary", "--n-radial", "1"], "--n-radial must be at least 2"),
    (["stationary", "--omega-over-c", "nan"], "--omega-over-c: omega R must be finite"),
    (["renorm-flow", "--mb-grid", "log:0.1:0.5:0"], "--mb-grid needs at least one point"),
    (["renorm-flow", "--mb-grid", "log:0.1:0.5:-3"], "--mb-grid needs at least one point"),
    (["stationary", "--charge", "nan"], "--charge: total must be finite"),
    (["renorm-flow", "--mb-grid", "log:0.1:0.5:x"], "--mb-grid must look like log:LO:HI:N"),
    (["renorm-flow", "--mb-grid", "log:0.1:x:3"], "--mb-grid must look like log:LO:HI:N"),
    (["renorm-flow", "--mb-grid", "log:0.5:2.0:4"],
     "--mb-grid log:0.5:2.0:4: m_b must lie strictly between 0 and m_e = 1"),
    (["stationary", "--omega-over-c", "1.5"],
     "--omega-over-c: omega R must be finite and lie strictly between"),
    (["stationary", "--omega-over-c", "-1", "--radius", "3"],
     "--omega-over-c: omega R must be finite and lie strictly between"),
    (["stationary", "--charge=-inf"], "--charge: total must be finite"),
    (["renorm-flow", "--mb-grid", "log:0.1:inf:3"],
     "--mb-grid log:0.1:inf:3: m_b must lie strictly between 0 and m_e = 1"),
])
def test_stationary_and_flow_refusal_names_the_flag(tmp_path, capsys, argv, flag):
    code, lines = _main([*argv, "--out-dir", str(tmp_path)], capsys)
    assert code == cli.EXIT_DOMAIN
    assert f"error: {flag}" in lines[0]
    _assert_one_line_refusal(code, lines)


@pytest.mark.parametrize("command, flag", [("admissibility", "--data-file"),
                                           ("selfcheck", "--config")])
def test_unreadable_input_file_is_a_domain_error(tmp_path, capsys, command, flag):
    path = tmp_path / "nonexistent.txt"
    assert cli.main([command, flag, str(path), "--out-dir", str(tmp_path)]) == cli.EXIT_DOMAIN
    err = capsys.readouterr().err
    assert f"error: cannot read {path}" in err and "internal error" not in err


def test_unexpected_exception_is_an_internal_error(tmp_path, capsys, monkeypatch):
    def broken(args):
        raise IndexError("list index out of range")

    monkeypatch.setattr(cli, "cmd_selfcheck", broken)
    assert cli.main(["selfcheck", "--out-dir", str(tmp_path)]) == cli.EXIT_NUMERICAL
    assert "internal error: IndexError: list index out of range" in capsys.readouterr().err


def test_default_flow_table_matches_the_pinned_file(tmp_path, capsys):
    assert cli.main(["renorm-flow", "--out-dir", str(tmp_path)]) == cli.EXIT_OK
    assert (tmp_path / "flow.csv").read_bytes() == (DATA / "renorm_flow_default.csv").read_bytes()


@pytest.mark.parametrize("profile", ["shell", "volume"])
def test_default_stationary_outputs_match_the_pinned_files(tmp_path, capsys, profile):
    # the volume's s_f is (4/35) q^2 R omega = 2/35 rounded once
    assert cli.main(["stationary", "--profile", profile, "--out-dir", str(tmp_path)]) == cli.EXIT_OK
    for name in ("profile.csv", "summary.json"):
        pinned = DATA / f"stationary_{profile}_default_{name}"
        assert (tmp_path / f"stationary_{name}").read_bytes() == pinned.read_bytes()
    s_f = json.loads((tmp_path / "stationary_summary.json").read_text())["s_f"]
    assert s_f == [0.0, 0.0, 1.0 / 9.0 if profile == "shell" else 2.0 / 35.0]


@pytest.mark.parametrize("grid, code", [("log:1e-320:0.5:2", cli.EXIT_DOMAIN),
                                        ("log:1e-307:0.5:2", cli.EXIT_OK)])
def test_tiny_bare_mass_grid_ends_in_a_subprocess(tmp_path, grid, code):
    # in a subprocess with a timeout, so that a bracketing loop that never
    # ends fails the test instead of hanging it
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "ledlab.cli", "renorm-flow", "--mb-grid", grid,
                           "--out-dir", str(tmp_path)], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == code, proc.stderr
    assert (f"error: --mb-grid {grid}: " in proc.stderr) == (code == cli.EXIT_DOMAIN)
    assert (tmp_path / "flow.csv").exists() == (code == cli.EXIT_OK)


def reference_csv(path, header, rows):
    """The writer as it was: csv.writer with one format call per cell."""
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        for row in rows:
            wr.writerow([f"{float(v):.17g}" for v in row])


def test_write_csv_matches_csv_with_a_format_per_cell(tmp_path):
    cells = [-0.0, 0.0, float("inf"), -float("inf"), float("nan"), 5e-324, 0.1 + 0.2,
             2**53 + 1, 0, -7, 3, 1e308, -2.5e-300, np.float64(1.0) / 3.0, np.float64(-0.0),
             np.float64("nan"), np.float64(2.0**-1074), *np.array([1e-7, 123456789.123456789])]
    header = ["a", "b", "c"]
    rows = [cells[i:i + 3] for i in range(0, len(cells) - 2)]
    rows += [tuple(row) for row in rows] + [np.array(row, dtype=float) for row in rows]
    cli._write_csv(tmp_path / "got.csv", header, rows)
    reference_csv(tmp_path / "ref.csv", header, rows)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_write_csv_over_a_longer_file_is_a_fresh_write(tmp_path):
    header = ["a", "b"]
    cli._write_csv(tmp_path / "fresh.csv", header, [[0.5, -1.0]])
    cli._write_csv(tmp_path / "rerun.csv", header, [[float(i), 1.0 / 3.0] for i in range(100)])
    cli._write_csv(tmp_path / "rerun.csv", header, [[0.5, -1.0]])
    assert (tmp_path / "rerun.csv").read_bytes() == (tmp_path / "fresh.csv").read_bytes()


def _assert_json_dump_and_a_newline(path, obj):
    cli._write_json(path, obj)
    ref = io.StringIO()
    json.dump(obj, ref, indent=2, sort_keys=True)
    assert path.read_bytes() == (ref.getvalue() + "\n").encode()


@pytest.mark.parametrize("obj", [
    {"z": -0.0, "a": 0.0, "nan": float("nan"), "inf": float("inf"), "-inf": -float("inf")},
    [5e-324, -5e-324, 1e308, 0.1 + 0.2, 2**53 + 1, True, None, "é\n\"q\""],
    {"b": [[1.0, [2.0, {"y": [], "x": {}}]], []], "a": {"d": [-0.0], "c": {"e": [[]]}}},
    [], {}, 1.5, "text",
])
def test_write_json_is_json_dump_and_a_newline(tmp_path, obj):
    _assert_json_dump_and_a_newline(tmp_path / "got.json", obj)


def test_write_json_over_a_longer_file_leaves_only_the_new_bytes(tmp_path):
    _assert_json_dump_and_a_newline(tmp_path / "got.json", {"long": list(range(100))})
    _assert_json_dump_and_a_newline(tmp_path / "got.json", {"short": 1})


def test_write_json_of_the_reports_is_json_dump_and_a_newline(tmp_path):
    from ledlab import admissibility, fields, renormflow
    shell = DensityProfile.shell(-1.0, 1.0)
    for obj in [renormflow.limit_constants(),
                fields.stationary_state(shell, [0.0, 0.0, 0.3]).summary(),
                *(admissibility.run_check(*admissibility.build_scenario(name)).as_dict()
                  for name in ("uniform-B-abraham", "curlE-uniform-B-nodvik"))]:
        _assert_json_dump_and_a_newline(tmp_path / "got.json", obj)


def _files(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


@pytest.mark.parametrize("argv, line", [
    (["stationary"], "radius=2.0\nn-radial=11\nprofile=volume\n"),
    (["renorm-flow"], "report=on\nanomaly=off\n"),
])
def test_config_run_leaves_the_shared_parser_unchanged(tmp_path, capsys, argv, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line)
    assert cli.main([*argv, "--out-dir", str(tmp_path / "alone")]) == cli.EXIT_OK
    assert cli.main([*argv, "--config", str(cfg),
                     "--out-dir", str(tmp_path / "config")]) == cli.EXIT_OK
    assert cli.main([*argv, "--out-dir", str(tmp_path / "after")]) == cli.EXIT_OK
    assert _files(tmp_path / "config") != _files(tmp_path / "alone")
    assert _files(tmp_path / "after") == _files(tmp_path / "alone")


def test_main_builds_one_parser_for_its_plain_runs(tmp_path, capsys, monkeypatch):
    calls = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: calls.append(1) or build())
    cli._shared_parser.cache_clear()
    try:
        for argv in (["selfcheck"], ["admissibility"], ["stationary", "--n-radial", "3"],
                     ["no-such-command"], ["selfcheck"]):
            cli.main([*argv, "--out-dir", str(tmp_path)])
    finally:
        cli._shared_parser.cache_clear()
    assert len(calls) == 1
