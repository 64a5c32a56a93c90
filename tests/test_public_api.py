"""Guard against library code that nothing runs.

Every top-level name of src/ledlab (function, class or assigned constant)
must be reachable from `cli.main` or from perfbench/: a name is reached
when the source of a reached definition uses it as an identifier, and
every word of perfbench's sources (its code and its traced layer names)
is a starting point.  Tests do not count.  The one exception is ORACLES,
functions kept only as independent checks of code that does run.  Every
public method must be referenced, as a whole word, somewhere in the
Python sources of src/, tests/ or perfbench/ other than its own def line.
The package's re-export list in src/ledlab/__init__.py counts as neither.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ledlab"
INIT = PACKAGE / "__init__.py"

ORACLES = (
    # the classifiers' family members, substituted back into the constraints
    "constraint_residuals",
    # f.u from the gyration coupling against minkowski_force's integrand
    "force_dot_u",
    # the flow's R-parametrization against flow_sweep / observables_from_mb
    "R_of_mb",
    "mb_of_R",
    "omega_of_R",
    "observables",
    # the inverse of dual_tensor, which forces.gyration_tensor calls
    "dual_vector",
    # the node-by-node Nodvik mass against forces.nodvik_mass
    "anticommutator",
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


def runtime_reached(uses):
    """Definitions reachable from cli.main or from perfbench's words."""
    roots = {name for path in (ROOT / "perfbench").glob("*.py")
             for name in re.findall(r"\w+", path.read_text())}
    return reached(uses, roots | {"main"})


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


def public_methods():
    """(name, file, line) of each public method of a public class."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                out.extend((item.name, path, item.lineno) for item in node.body
                           if isinstance(item, ast.FunctionDef)
                           and not item.name.startswith("_"))
    return out


def test_every_public_name_has_a_reference():
    counts = Counter()
    for top in ("src", "tests", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if path != INIT:
                for text in path.read_text().splitlines():
                    counts.update(set(re.findall(r"\w+", text)))
    # a method's own def line holds its name once
    dead = [f"{path.relative_to(ROOT)}:{line} {name}"
            for name, path, line in public_methods() if counts[name] <= 1]
    assert not dead, "public methods with no reference:\n" + "\n".join(dead)
