"""Guard against dead public names in the library.

Every public top-level function, public class and public method defined
in src/ledlab must be referenced, as a whole word, somewhere in the
Python sources of src/, tests/ or perfbench/ other than its own
def/class line.  The package's re-export list in src/ledlab/__init__.py
does not count as a use.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ledlab"
SEARCHED = ("src", "tests", "perfbench")


def public_definitions():
    """(name, file, line) of each public function, class and method."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                out.append((node.name, path, node.lineno))
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                out.extend((item.name, path, item.lineno) for item in node.body
                           if isinstance(item, ast.FunctionDef)
                           and not item.name.startswith("_"))
    return out


def lines_with_each_word():
    """Word -> number of lines of the searched Python files holding it."""
    skip = PACKAGE / "__init__.py"
    counts = Counter()
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            if path != skip:
                for text in path.read_text().splitlines():
                    counts.update(set(re.findall(r"\w+", text)))
    return counts


def test_every_public_name_has_a_reference():
    counts = lines_with_each_word()
    # a name's own def/class line holds it once
    dead = [f"{path.relative_to(ROOT)}:{line} {name}"
            for name, path, line in public_definitions() if counts[name] <= 1]
    assert not dead, "public names with no reference:\n" + "\n".join(dead)
