"""The CLI matrix as a characterization test: 31 runs replayed in process
through `cli.main`, each compared with the sha256 digests recorded in
`tests/data/golden.json` of every data file it writes, of its stdout (the
output directory masked), of its stderr and of its exit code.

The digests depend on numpy's and libm's float results, as the pinned
files under `tests/data` do; golden.json records the numpy version it was
made with.  A change that moves an output rewrites the digests with

    PYTHONPATH=src python tests/test_golden.py

and names the run and the reason in CHANGES.md; before it writes, it
prints each run whose digests moved and the streams and files that moved,
and each run that the old golden.json lacks as new.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

from ledlab import cli

GOLDEN = Path(__file__).parent / "data" / "golden.json"
SCENARIOS = ("uniform-E-coulomb", "coulomb-only", "uniform-B", "uniform-EB-crossed",
             "curlE-uniform-B")
RUNS = [
    ["stationary"],
    ["stationary", "--profile", "volume"],
    ["stationary", "--profile", "volume", "--n-radial", "2000", "--omega-over-c", "0.9"],
    ["stationary", "--omega-over-c", "-0.3", "--radius", "2.5", "--charge", "0.7"],
    # linspace(0, 2, 11) holds r = 0 and r = R exactly: the origin row and
    # the shell's midpoint values
    ["stationary", "--n-radial", "11", "--r-max-over-R", "2"],
    ["stationary", "--profile", "volume", "--n-radial", "11", "--r-max-over-R", "2"],
    ["selfcheck"],
    ["renorm-flow", "--report"],
    ["gyro-sim"],
    ["gyro-sim", "--profile", "volume"],
    ["gyro-sim", "--profile", "volume", "--r-max-over-R", "2000", "--horizon", "4",
     "--perturb", "0.4"],
    ["gyro-sim", "--omega-over-c", "-0.25", "--horizon", "5"],
    ["gyro-sim", "--omega-over-c", "0", "--horizon", "2"],
    ["gyro-sim", "--mode", "picard", "--horizon", "0.05", "--picard-iters", "4"],
    ["gyro-sim", "--perturb", "100"],
    ["gyro-sim", "--omega-over-c", "1.0"],
    *(["admissibility", "--scenario", f"{s}-{m}"]
      for s in SCENARIOS for m in ("nodvik", "abraham-nospin", "abraham")),
]


def _sha(data) -> str:
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()


def replay(argv, out: Path) -> dict:
    """Digests of one run of `cli.main(argv)` into the fresh directory out,
    and the warnings it issued, which a command-line run would print."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with (warnings.catch_warnings(record=True) as caught,
          contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr)):
        warnings.simplefilter("always")
        code = cli.main([*argv, "--out-dir", str(out)])
    files = sorted(out.iterdir()) if out.exists() else []
    return {"exit_code": _sha(str(code)),
            "stdout": _sha(stdout.getvalue().replace(str(out), "OUT")),
            "stderr": _sha(stderr.getvalue()),
            "files": {p.name: _sha(p.read_bytes()) for p in files},
            "warnings": [str(w.message) for w in caught]}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_names_each_run_once(golden):
    assert list(golden["runs"]) == [" ".join(argv) for argv in RUNS]


@pytest.mark.parametrize("argv", RUNS, ids=" ".join)
def test_run_matches_its_digests(tmp_path, golden, argv):
    got = replay(argv, tmp_path / "out")
    assert got.pop("warnings") == []
    assert got == golden["runs"][" ".join(argv)], (
        f"made with numpy {golden['numpy']}, run with numpy {np.__version__}")


def moved(old: dict, new: dict) -> list:
    """The streams and files whose digests differ between two digest
    records of one run, a file that only one of them has included."""
    out = [key for key in ("exit_code", "stdout", "stderr") if old[key] != new[key]]
    files = old["files"]
    return out + [name for name in sorted(set(files) | set(new["files"]))
                  if files.get(name) != new["files"].get(name)]


def report(old: dict, runs: dict) -> list:
    """The rewrite's account of the runs against the old digests: each run
    the old record lacks as new, each run that moved with what moved in it,
    then a count of both."""
    new = [name for name in runs if name not in old]
    changed = {name: moved(old[name], runs[name]) for name in runs if name in old}
    return ([f"{name}: new" for name in new]
            + [f"{name}: {', '.join(what)}" for name, what in changed.items() if what]
            + [f"{len(new)} new and {sum(map(bool, changed.values()))} moved of {len(runs)} runs"])


def test_the_rewrite_reports_new_runs_apart_from_moved_ones(golden):
    first, second, third = list(golden["runs"])[:3]
    runs = {name: golden["runs"][name] for name in (first, second, third)}
    old = {first: dict(runs[first], stdout="0" * 64), second: runs[second]}
    assert report(old, runs) == [f"{third}: new", f"{first}: stdout", "1 new and 1 moved of 3 runs"]


if __name__ == "__main__":
    old = json.loads(GOLDEN.read_text())["runs"] if GOLDEN.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        runs = {}
        for i, argv in enumerate(RUNS):
            runs[" ".join(argv)] = replay(argv, Path(tmp) / str(i))
            if runs[" ".join(argv)].pop("warnings"):
                sys.exit(f"{' '.join(argv)} issued warnings")
    print("\n".join(report(old, runs)))
    GOLDEN.write_text(json.dumps({"numpy": np.__version__, "runs": runs}, indent=1) + "\n")
