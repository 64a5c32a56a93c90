"""Guard against library code that nothing runs.

Every top-level name of src/ledlab (function, class or assigned constant)
must be reachable from `cli.main` or from perfbench/: a name is reached
when the source of a reached definition uses it as an identifier, and
every word of perfbench's sources (its code and its traced layer names)
is a starting point.  Tests do not count.  The one exception is ORACLES,
functions kept only as independent checks of code that does run.  A name
that perfbench's words reach and `cli.main` does not must be reached from
BENCHMARK_ONLY, the listed names that only the benchmark runs.  Every
public method of a public class must be used through attribute access
(`.name`) in the code of src/ledlab or perfbench/, or be a word of a
perfbench string constant that is neither a docstring nor part of an
f-string; a bare identifier of the same spelling (a local variable, an
argument) is no use of the method.  ORACLE_METHODS are the exceptions,
methods kept only as independent checks.  The package's re-export list
in src/ledlab/__init__.py counts as neither.  Every defaulted parameter,
a dataclass field with a default included, must be passed, by keyword,
by position or through `*`/`**`, by some call of its function's (or
class's) name in src/ledlab or perfbench/: a default that no run
overrides is a constant, and UNPASSED_PARAMETERS are the exceptions.
Importing every module of the package must not load scipy, which is a
test-only dependency, nor build the CLI parser, a Gauss-Legendre rule or
a support rule.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ledlab"
INIT = PACKAGE / "__init__.py"

ORACLES = (
    # the classifiers' family members, substituted back into the constraints
    "constraint_residuals",
    # f.u from the gyration coupling against minkowski_force's integrand
    "force_dot_u",
    # the flow's R-parametrization against flow_sweep / flow_point
    "mb_of_R",
    "omega_of_R",
)

BENCHMARK_ONLY = (
    # perfbench's lib-mix quadrature: the stationary self-field as a snapshot,
    # and its pseudo-inertia, Minkowski torque and Nodvik mass
    "stationary_snapshot",
    "pseudo_inertia",
    "minkowski_torque",
    "nodvik_mass",
    # a traced layer of perfbench/layers.py; no workload calls it
    "minkowski_force",
)

ORACLE_METHODS = (
    # x cross A of the stationary potential against field_spin_potential
    "StationaryState.A",
    # the classifiers' family members, substituted back into the constraints
    "ConstraintReport.family_member",
)


UNPASSED_PARAMETERS = (
    # the dt-halving study of the energy audit (ROADMAP.md, energy audit)
    "GyroSolver.run.dt",
    # the second-order check of a windowed Picard solve (ROADMAP.md, Picard)
    "GyroSolver.picard_iterate.dt",
    # gyration-rate terms of the effective force, which goes with the rest
    # of the force layer in the next change of the benchmark (ROADMAP.md)
    "pseudo_inertia.omega_dot3",
    "pseudo_inertia.m_gyro_dot",
    # the supplied dE/dt of a time-dependent snapshot (term 3), which also
    # goes with the force layer
    "FieldSnapshot.e_dot_fn",
)


def _identifiers(node):
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rpartition(".")[2])
    return out


def top_level_uses():
    """(module, name) -> identifiers used by its definition."""
    uses = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path == INIT:
            continue
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                uses.setdefault((path.stem, name), set()).update(_identifiers(node))
    return uses


def reached(uses, roots):
    """Definitions reachable from `roots`, by name."""
    by_name = {}
    for key in uses:
        by_name.setdefault(key[1], []).append(key)
    seen, todo = set(), [key for name in roots for key in by_name.get(name, [])]
    while todo:
        key = todo.pop()
        if key not in seen:
            seen.add(key)
            todo += [k for name in uses[key] for k in by_name.get(name, [])]
    return seen


def perfbench_words():
    return {name for path in (ROOT / "perfbench").glob("*.py")
            for name in re.findall(r"\w+", path.read_text())}


def runtime_reached(uses):
    """Definitions reachable from cli.main or from perfbench's words."""
    return reached(uses, perfbench_words() | {"main"})


def test_every_top_level_name_is_reached_or_an_oracle():
    uses = top_level_uses()
    live = runtime_reached(uses) | reached(uses, ORACLES)
    dead = sorted(f"{module}.{name}" for module, name in set(uses) - live)
    assert not dead, "top-level names no run reaches:\n" + "\n".join(dead)


def test_every_oracle_is_defined_and_reached_by_no_run():
    uses = top_level_uses()
    defined = {name for _, name in uses}
    assert not set(ORACLES) - defined, "ORACLES names undefined functions"
    runtime = {name for _, name in runtime_reached(uses)}
    assert not set(ORACLES) & runtime, "ORACLES names functions a run reaches"


def test_every_name_only_perfbench_reaches_is_benchmark_only():
    uses = top_level_uses()
    only_bench = runtime_reached(uses) - reached(uses, {"main"})
    unlisted = sorted(f"{module}.{name}"
                      for module, name in only_bench - reached(uses, BENCHMARK_ONLY))
    assert not unlisted, "names only perfbench reaches, not in BENCHMARK_ONLY:\n" + "\n".join(unlisted)


def test_every_benchmark_only_name_is_defined_and_reached_by_perfbench_alone():
    uses = top_level_uses()
    assert not set(BENCHMARK_ONLY) - {name for _, name in uses}, \
        "BENCHMARK_ONLY names undefined functions"
    assert set(BENCHMARK_ONLY) <= perfbench_words(), "BENCHMARK_ONLY names words perfbench lacks"
    from_main = {name for _, name in reached(uses, {"main"})}
    assert not set(BENCHMARK_ONLY) & from_main, "BENCHMARK_ONLY names functions cli.main reaches"


def public_methods():
    """(Class.method, file, line) of each public method of a public class."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                out.extend((f"{node.name}.{item.name}", path, item.lineno) for item in node.body
                           if isinstance(item, ast.FunctionDef)
                           and not item.name.startswith("_"))
    return out


def _attributes(tree):
    return {sub.attr for sub in ast.walk(tree) if isinstance(sub, ast.Attribute)}


def runtime_references():
    """Attribute names accessed in src/ledlab outside __init__.py and in
    perfbench/, and the words of perfbench's string constants (its traced
    span names); docstrings, f-string pieces and comments do not count."""
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path != INIT:
            used |= _attributes(ast.parse(path.read_text(), filename=str(path)))
    for path in (ROOT / "perfbench").glob("*.py"):
        tree = ast.parse(path.read_text(), filename=str(path))
        skip = {id(node.body[0].value) for node in ast.walk(tree)
                if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                and ast.get_docstring(node) is not None}
        skip |= {id(part) for node in ast.walk(tree) if isinstance(node, ast.JoinedStr)
                 for part in node.values}
        used |= _attributes(tree)
        used |= {word for sub in ast.walk(tree) if isinstance(sub, ast.Constant)
                 and isinstance(sub.value, str) and id(sub) not in skip
                 for word in re.findall(r"\w+", sub.value)}
    return used


def test_every_public_name_has_a_reference():
    used = runtime_references()
    dead = [f"{path.relative_to(ROOT)}:{line} {name}"
            for name, path, line in public_methods()
            if name.rpartition(".")[2] not in used and name not in ORACLE_METHODS]
    assert not dead, "public methods no run uses:\n" + "\n".join(dead)


def test_every_oracle_method_is_defined_and_used_by_no_run():
    defined = {name for name, _, _ in public_methods()}
    assert not set(ORACLE_METHODS) - defined, "ORACLE_METHODS names undefined methods"
    used = runtime_references()
    live = [name for name in ORACLE_METHODS if name.rpartition(".")[2] in used]
    assert not live, "ORACLE_METHODS names methods a run uses: " + ", ".join(live)


def _after_importing_every_module(code, before=""):
    """Standard output of `before`, perfbench's set-up snippet (worker.IMPORT_ALL,
    read without importing worker.py, which imports scipy itself) and `code`
    in a fresh interpreter."""
    tree = ast.parse((ROOT / "perfbench" / "worker.py").read_text())
    snippet, = [ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
                and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["IMPORT_ALL"]]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", before + snippet + code], env=env,
                         capture_output=True, text=True, check=True, timeout=60)
    return out.stdout.strip()


def test_importing_every_module_loads_no_scipy():
    check = "import sys\nprint(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    assert _after_importing_every_module(check) == "[]"


def test_importing_every_module_builds_no_parser_and_no_rule():
    # the CLI parser, the Gauss-Legendre rules and the support rules are
    # built on first use, so that importing the package costs none of them
    count = ("import argparse\nbuilt = []\ninit = argparse.ArgumentParser.__init__\n"
             "def counted(self, *args, **kwargs):\n"
             "    built.append(1)\n"
             "    init(self, *args, **kwargs)\n"
             "argparse.ArgumentParser.__init__ = counted\n")
    check = ("from ledlab import bare_particle, cli\n"
             "print(len(built), cli._shared_parser.cache_info().currsize,\n"
             "      bare_particle._gauss.cache_info().currsize,\n"
             "      bare_particle._support_rule.cache_info().currsize)\n")
    assert _after_importing_every_module(check, before=count) == "0 0 0 0"


def _call_name(call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def call_sites():
    """name -> [(positional count, keywords)] of every call by that name
    (`f(...)` or `x.f(...)`) in src/ledlab and perfbench/; a `*` argument
    counts as every position and a `**` argument as every keyword (None)."""
    sites = {}
    paths = [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    for path in paths:
        for call in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(call, ast.Call) and _call_name(call):
                star = any(isinstance(a, ast.Starred) for a in call.args)
                keywords = {k.arg for k in call.keywords}
                sites.setdefault(_call_name(call), []).append(
                    (float("inf") if star else len(call.args),
                     None if None in keywords else keywords))
    return sites


def _is_dataclass(node):
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
               for d in node.decorator_list)


def defaulted_parameters():
    """(qualified parameter, call name, position or None) of each defaulted
    parameter of a top-level function or of a method of a top-level class
    in src/ledlab, but not of ORACLES and ORACLE_METHODS, which no run
    calls, and of each field with a default of a top-level dataclass.
    Calls of a class name are calls of its __init__, a method's positions
    start after self, and a field's position is its place among the fields."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                fields = [item for item in node.body
                          if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]
                out += [(f"{node.name}.{item.target.id}", node.name, i)
                        for i, item in enumerate(fields) if item.value is not None]
            defs = [(None, node)] if isinstance(node, ast.FunctionDef) else []
            if isinstance(node, ast.ClassDef):
                defs = [(node.name, item) for item in node.body if isinstance(item, ast.FunctionDef)]
            for owner, fn in defs:
                static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
                args = fn.args.posonlyargs + fn.args.args
                if owner and not static:
                    args = args[1:]
                name = owner if fn.name == "__init__" else fn.name
                qual = f"{owner}.{fn.name}" if owner else fn.name
                if qual in ORACLES + ORACLE_METHODS:
                    continue
                first = len(args) - len(fn.args.defaults)
                out += [(f"{qual}.{arg.arg}", name, i)
                        for i, arg in enumerate(args[first:], first)]
                out += [(f"{qual}.{arg.arg}", name, None) for arg, default
                        in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if default is not None]
    return out


def unpassed_parameters():
    sites = call_sites()
    return sorted(qual for qual, name, pos in defaulted_parameters()
                  if not any(keywords is None or qual.rpartition(".")[2] in keywords
                             or (pos is not None and pos < n_pos)
                             for n_pos, keywords in sites.get(name, ())))


def test_every_defaulted_parameter_is_passed_by_a_run():
    # a default that no call in src/ledlab or perfbench/ overrides is a
    # constant spelled as an option
    unlisted = sorted(set(unpassed_parameters()) - set(UNPASSED_PARAMETERS))
    assert not unlisted, "defaulted parameters no run passes:\n" + "\n".join(unlisted)


def test_every_unpassed_parameter_is_defined_and_passed_by_no_run():
    defined = {qual for qual, _, _ in defaulted_parameters()}
    assert not set(UNPASSED_PARAMETERS) - defined, "UNPASSED_PARAMETERS names undefined parameters"
    passed = sorted(set(UNPASSED_PARAMETERS) - set(unpassed_parameters()))
    assert not passed, "UNPASSED_PARAMETERS names parameters a run passes: " + ", ".join(passed)
