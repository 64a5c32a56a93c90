"""Tests of the benchmark's own machinery (not part of the library suite).

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import layers  # noqa: E402
from spans import SpanSummary, Tracer, self_times  # noqa: E402

import ledlab  # noqa: E402
from ledlab import bare_particle, gyrodynamics  # noqa: E402
from ledlab.bare_particle import DensityProfile  # noqa: E402


def test_self_time_subtracts_merged_clipped_children():
    # parent [0, 10]; children [1, 3] and [2, 5] overlap, [8, 12] sticks out
    parent = [-1, 0, 0, 0, 1]
    start = [0.0, 1.0, 2.0, 8.0, 1.5]
    end = [10.0, 3.0, 5.0, 12.0, 2.5]
    out = self_times(parent, start, end)
    assert out[0] == pytest.approx(10.0 - 4.0 - 2.0)   # covered: [1, 5] and [8, 10]
    assert out[1] == pytest.approx(2.0 - 1.0)           # its child [1.5, 2.5]
    assert out[2] == pytest.approx(3.0)
    assert out[4] == pytest.approx(1.0)


def test_summary_counts_and_inclusive_time():
    s = SpanSummary(["a", "b"], [0, 1, 1, 0, 0], [-1, 0, 0, -1, 3],
                    [0.0, 1.0, 3.0, 10.0, 11.0], [5.0, 2.0, 4.0, 14.0, 12.0], {})
    assert s.calls("b") == 2 and s.calls("b", parent="a") == 2
    assert s.self_s("a") == pytest.approx(3.0 + 3.0 + 1.0)
    # the nested "a" inside the second "a" is not counted twice
    assert s.total_s("a") == pytest.approx(5.0 + 4.0)
    assert s.calls_under("b", "a") == 2


@pytest.fixture
def tracer():
    t = Tracer(work=layers.WORK)
    t.install()
    yield t
    t.uninstall()


def test_rebinding_reaches_every_namespace(tracer):
    original = bare_particle.gyrational_mass.__wrapped__
    # imported by name into gyrodynamics and re-exported by the package
    assert gyrodynamics.gyrational_mass is bare_particle.gyrational_mass
    assert ledlab.gyrational_mass is bare_particle.gyrational_mass
    assert bare_particle.gyrational_mass is not original

    fe, fm = DensityProfile.shell(-1.0, 1.0), DensityProfile.shell(2.0, 1.0)
    solver = gyrodynamics.GyroSolver(fe, fm, r_max=3.0)
    tracer.active = True
    solver.omega_of_sb(np.array([0.0, 0.0, 0.5]))   # spin_kernel is re-imported per call
    gyrodynamics.gyrational_mass(fm, 0.3)
    tracer.active = False
    s = tracer.summary()
    inversion = layers.OMEGA_OF_SB
    assert s.calls(inversion) == 1
    assert s.calls_under(layers.SPIN_KERNEL, inversion) == s.calls(layers.SPIN_KERNEL) > 0
    assert s.calls("bare_particle.gyrational_mass") == 1
    assert s.work(layers.SPIN_KERNEL) == s.calls(layers.SPIN_KERNEL)   # one beta per call


def test_uninstall_restores_originals():
    before = (bare_particle.spin_kernel, gyrodynamics.gyrational_mass,
              gyrodynamics.GyroSolver.__dict__["step"], DensityProfile.__dict__["shell"])
    t = Tracer()
    t.install()
    assert bare_particle.spin_kernel is not before[0]
    t.uninstall()
    after = (bare_particle.spin_kernel, gyrodynamics.gyrational_mass,
             gyrodynamics.GyroSolver.__dict__["step"], DensityProfile.__dict__["shell"])
    assert all(a is b for a, b in zip(before, after))


def test_missing_traced_name_is_absent_not_an_error():
    t = Tracer()
    t.wrap(layers.STEP, lambda: None)     # as if everything else had been merged away
    values, absent = layers.evaluate(t.summary())
    assert "bare_particle.spin_kernel.calls" in absent
    assert values["bare_particle.spin_kernel.calls"] == (0.0, "count")
    assert "gyrodynamics.step.calls" not in absent


def test_benchmark_json_lists_the_reported_metrics():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    per_layer = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    assert per_layer == [(m.name, m.unit) for m in layers.METRICS] + layers.TRACE_METRICS
    assert [m["name"] for m in bench["end_to_end"]] == ["setup_s", "wall_s", "peak_rss_mb",
                                                        "cli_ms_p50"]


def test_compare_verdicts():
    base = {s: 10.0 + 0.1 * s for s in range(10)}          # spread ~0.45 on 10.45
    assert compare.verdict(base, {s: v * 0.8 for s, v in base.items()}, "lower", 0.1) == "better"
    assert compare.verdict(base, {s: v * 1.2 for s, v in base.items()}, "lower", 0.1) == "worse"
    assert compare.verdict(base, {s: v * 1.01 for s, v in base.items()}, "lower", 0.1) == "within-bound"
    noisy = {s: 10.0 * (1 + (s % 2)) for s in range(10)}
    assert compare.verdict(noisy, noisy, "lower", 0.1) == "unresolved"
    assert compare.verdict(base, {s: v * 0.8 for s, v in base.items()}, "higher", None) == "worse"
