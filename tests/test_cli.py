"""Command-line front end: config precedence, output columns, exit codes."""

import csv

import numpy as np
import pytest

from ledlab import cli
from ledlab.bare_particle import DensityProfile
from ledlab.gyrodynamics import GyroSolver


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.fixture
def config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# stationary run\nradius=2.0\nn-radial=11\n")
    return path


@pytest.mark.parametrize("flag", [["--radius", "3.0"], ["--radius=3.0"]])
def test_explicit_flag_beats_config(tmp_path, config, flag):
    rc = cli.main(["stationary", *flag, "--config", str(config), "--out-dir", str(tmp_path)])
    assert rc == cli.EXIT_OK
    rows = _rows(tmp_path / "stationary_profile.csv")
    assert len(rows) == 1 + 11                          # n-radial from the config
    assert float(rows[-1][0]) == 5.0 * 3.0              # r_max = 5 R with R from the flag


def test_config_fills_unset_flags(tmp_path, config):
    assert cli.main(["stationary", "--config", str(config), "--out-dir", str(tmp_path)]) == 0
    assert float(_rows(tmp_path / "stationary_profile.csv")[-1][0]) == 5.0 * 2.0


def test_picard_gaps_has_every_state_variable(tmp_path):
    argv = ["gyro-sim", "--mode", "picard", "--horizon", "0.05", "--picard-iters", "4",
            "--r-max-over-R", "3", "--out-dir", str(tmp_path)]
    assert cli.main(argv) == cli.EXIT_OK
    rows = _rows(tmp_path / "picard_gaps.csv")
    assert rows[0] == ["iteration", "gap_w", "gap_pi", "gap_sb"]

    fe, fm = DensityProfile.shell(-1.0, 1.0), DensityProfile.shell(2.0, 1.0)
    solver = GyroSolver(fe, fm, dr=1.0 / 20, r_max=3.0)
    state = solver.make_state(np.array([0.0, 0.0, 0.3]))
    res = solver.picard_iterate(state, n_max=4, horizon=0.05)
    got = np.array(rows[1:], dtype=float)
    np.testing.assert_array_equal(got[:, 0], np.arange(4))
    np.testing.assert_array_equal(got[:, 1:], np.column_stack([res.gaps_w, res.gaps_pi,
                                                               res.gaps_sb]))


@pytest.mark.parametrize("argv, code", [
    (["no-such-command"], cli.EXIT_USAGE),
    (["renorm-flow", "--mb-grid", "log:0.5:2.0:4"], cli.EXIT_DOMAIN),
    (["gyro-sim", "--omega-over-c", "1.5", "--horizon", "0.1"], cli.EXIT_DOMAIN),
    (["selfcheck"], cli.EXIT_OK),
])
def test_exit_codes(tmp_path, capsys, argv, code):
    assert cli.main([*argv, "--out-dir", str(tmp_path)]) == code
