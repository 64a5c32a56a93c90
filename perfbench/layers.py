"""Per-layer metrics of the traced run, computed from the span summary.

Each metric names the spans it reads.  When one of them is not among the
traced names (the function was renamed, merged or deleted), the metric
is reported as absent with value 0 instead of failing the run.  Which
end-to-end metric each layer should move, and on which workload, is in
RATIONALE.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

G = "gyrodynamics.GyroSolver."
SPIN_KERNEL = "bare_particle.spin_kernel"
OMEGA_OF_SB = G + "omega_of_sb"
STEP = G + "step"
LAPLACIAN = G + "laplacian"
RUN = G + "run"
RADIAL_RULE = "bare_particle.DensityProfile.radial_rule"
SUPPORT_RULE = "bare_particle.DensityProfile.support_rule"
PICARD = G + "picard_iterate"
DIAGNOSTICS = ("bare_particle.gyrational_mass", G + "field_spin_support",
               G + "dynamic_energy_inside", G + "poynting_flux")

# counts a span adds beyond its call: f(args, kwargs, result)
WORK = {
    SPIN_KERNEL: lambda a, k, r: r.size,
    LAPLACIAN: lambda a, k, r: a[1].nbytes + r.nbytes,   # computed: read w, write out
    PICARD: lambda a, k, r: r.n_iter,
    SUPPORT_RULE: lambda a, k, r: len(r[1]),
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    spans: tuple
    value: Callable


def _ratio(num, den):
    return num / den if den else 0.0


def _calls(span):
    return Metric(f"{_short(span)}.calls", "count", (span,), lambda s: s.calls(span))


def _self(span):
    return Metric(f"{_short(span)}.self_s", "s", (span,), lambda s: s.self_s(span))


def _short(span):
    """'gyrodynamics.GyroSolver.step' -> 'gyrodynamics.step'."""
    parts = span.split(".")
    return f"{parts[0]}.{parts[-1]}"


METRICS = [
    # spin map and its inverse
    _calls(SPIN_KERNEL),
    Metric("bare_particle.spin_kernel.evals", "count", (SPIN_KERNEL,),
           lambda s: s.work(SPIN_KERNEL)),
    _self(SPIN_KERNEL),
    _calls(OMEGA_OF_SB),
    _self(OMEGA_OF_SB),
    Metric("gyrodynamics.omega_of_sb.total_s", "s", (OMEGA_OF_SB,),
           lambda s: s.total_s(OMEGA_OF_SB)),
    Metric("gyrodynamics.kernel_calls_per_inversion", "ratio", (SPIN_KERNEL, OMEGA_OF_SB),
           lambda s: _ratio(s.calls_under(SPIN_KERNEL, OMEGA_OF_SB), s.calls(OMEGA_OF_SB))),
    Metric("gyrodynamics.inversions_per_step", "ratio", (OMEGA_OF_SB, STEP),
           lambda s: _ratio(s.calls(OMEGA_OF_SB, parent=STEP), s.calls(STEP))),
    Metric("gyrodynamics.omega_share_of_step", "ratio", (OMEGA_OF_SB, STEP),
           lambda s: _ratio(s.total_s(OMEGA_OF_SB, parent=STEP), s.total_s(STEP))),
    # stepper and radial wave operator
    _calls(STEP),
    _self(STEP),
    Metric("gyrodynamics.step.total_s", "s", (STEP,), lambda s: s.total_s(STEP)),
    _calls(LAPLACIAN),
    _self(LAPLACIAN),
    Metric("gyrodynamics.laplacian.bytes", "bytes", (LAPLACIAN,), lambda s: s.work(LAPLACIAN)),
    _self(G + "torque"),
    # diagnostics recording inside run
    Metric("gyrodynamics.diagnostics.self_s", "s", DIAGNOSTICS + (RUN,),
           lambda s: sum(s.total_s(n, parent=RUN) for n in DIAGNOSTICS)),
    _self(G + "energy_audit"),
    _self(G + "run_to_stationary"),
    # set-up
    Metric("gyrodynamics.GyroSolver.init_s", "s", (G + "__init__",),
           lambda s: s.total_s(G + "__init__")),
    Metric("bare_particle.GyroMassCurve.init_s", "s", ("bare_particle.GyroMassCurve.__init__",),
           lambda s: s.total_s("bare_particle.GyroMassCurve.__init__")),
    _calls(RADIAL_RULE),
    _self(RADIAL_RULE),
    _self(G + "stationary_profile"),
    # Picard sweep
    _self(PICARD),
    Metric("gyrodynamics.picard_iterate.iterations", "count", (PICARD,),
           lambda s: s.work(PICARD)),
    _self(G + "omega_many"),
    # slice quadrature
    _self("forces.pseudo_inertia"),
    _self("forces.nodvik_mass"),
    _self("forces.minkowski_force"),
    _self("forces.minkowski_torque"),
    _calls(SUPPORT_RULE),
    Metric("bare_particle.support_rule.nodes", "count", (SUPPORT_RULE,),
           lambda s: s.work(SUPPORT_RULE)),
    _self("admissibility.field_moments"),
    _self("admissibility.run_check"),
    # fields, flow and the CLI path
    _self("fields.stationary_state"),
    _self("fields.StationaryState.profile_table"),
    _self("renormflow.flow_sweep"),
    _calls("renormflow.eta_of_mb"),
    _self("cli.main"),
]

# filled in by the worker, not from spans
TRACE_METRICS = [("trace.overhead_s", "s"), ("trace.spans", "count")]


def evaluate(summary):
    """{name: (value, unit)} for every metric, and the sorted absent names."""
    values, absent = {}, []
    for m in METRICS:
        if all(summary.known(span) for span in m.spans):
            values[m.name] = (float(m.value(summary)), m.unit)
        else:
            values[m.name] = (0.0, m.unit)
            absent.append(m.name)
    return values, sorted(absent)
