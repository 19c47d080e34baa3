"""Every definition in `src/tlcga` has a caller outside the tests, or a reason.

A function, class or method counts as used when some module of the
package other than `__init__`, some file of `perfbench/` or the README
names it outside its own body. Test-only helpers belong in `tests/`;
the rest must be listed in `KEPT` with the reason they stay.
"""

import ast
import pathlib
import re
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tlcga"

KEPT = {
    "are_bisimilar": "public API (tlcga.are_bisimilar)",
    "atl_check": "public API, and the independent ATL reference in tests",
    "default_cases": "the corpus's one list of ready-made instances",
    "ecl": "the paper's closure behind the finite model property",
    "formula_satisfiable": "the paper's one-step satisfiability of formulas",
    "hm_agreement": "public API: the paper's bisimulation invariance",
    "monotone_closure": "the monotone normal form of goal assignments",
    "parse_path_formula": "public API (tlcga.parse_path_formula)",
}


def _names(node: ast.AST) -> Counter:
    """How often each identifier is named, as a name or an attribute."""
    counts: Counter = Counter()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            counts[child.id] += 1
        elif isinstance(child, ast.Attribute):
            counts[child.attr] += 1
    return counts


def _exempt(name: str) -> bool:
    # Dunders are called by Python; `_scheme_*` by transforms' globals() dispatch.
    return (name.startswith("__") and name.endswith("__")) or name.startswith(
        "_scheme_"
    )


def unreferenced() -> set[str]:
    readers = [path for path in PACKAGE.glob("*.py") if path.name != "__init__.py"]
    readers += (ROOT / "perfbench").rglob("*.py")
    named: Counter = Counter()
    for path in readers:
        named += _names(ast.parse(path.read_text(encoding="utf-8")))
    readme = set(re.findall(r"\w+", (ROOT / "README.md").read_text(encoding="utf-8")))
    found = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) or _exempt(node.name):
                continue
            outside = named[node.name] - _names(node)[node.name]
            if outside == 0 and node.name not in readme:
                found.add(node.name)
    return found


def test_unreferenced_definitions_are_exactly_the_kept_ones():
    assert unreferenced() == set(KEPT)
