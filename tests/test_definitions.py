"""Every definition in `src/tlcga` is reachable from a real caller, or kept for a reason.

A reachability scan over names. Its roots are the module-level code of
the package outside `__init__`, every file of `perfbench/`, the README's
words, `cli.main`, and the bodies of the `KEPT` entries. A function,
class or method named by reached code is reached, and so is everything
its own body names; a class's dunder methods are reached with the class,
its other methods only by name.
Mutually recursive helpers that nothing else calls are therefore
unreached. Test-only helpers belong in `tests/`; the rest must be listed
in `KEPT` with the reason they stay.
"""

import ast
import pathlib
import re
from collections import defaultdict

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

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(*nodes: ast.AST) -> set[str]:
    """Every identifier the nodes name, as a name or an attribute."""
    found = set()
    for node in nodes:
        for child in ast.walk(node):
            if isinstance(child, ast.Name):
                found.add(child.id)
            elif isinstance(child, ast.Attribute):
                found.add(child.attr)
    return found


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def unreached() -> set[str]:
    """The non-dunder definitions of the package that no root reaches."""
    bodies: dict[str, set[str]] = defaultdict(set)
    roots = {"main"} | set(re.findall(r"\w+", (ROOT / "README.md").read_text("utf-8")))
    for path in (ROOT / "perfbench").rglob("*.py"):
        roots |= _names(ast.parse(path.read_text("utf-8")))
    for path in PACKAGE.glob("*.py"):
        module = ast.parse(path.read_text("utf-8"))
        if path.name != "__init__.py":
            roots |= _names(*(s for s in module.body if not isinstance(s, _DEFINITIONS)))
        for node in ast.walk(module):
            if not isinstance(node, _DEFINITIONS):
                continue
            if not isinstance(node, ast.ClassDef):
                bodies[node.name] |= _names(node)
                continue
            # A class reaches its bases, decorators, class-level code and
            # dunders; its other methods are reached by name.
            members = [child for child in node.body if isinstance(child, _DEFINITIONS)]
            rest = [child for child in node.body if child not in members]
            bodies[node.name] |= _names(*node.bases, *node.keywords,
                                        *node.decorator_list, *rest)
            bodies[node.name] |= {m.name for m in members if _is_dunder(m.name)}
    pending = roots
    for name in KEPT:
        # `get`, not indexing: a KEPT name that is no longer defined must
        # not become a definition, so the final comparison catches it.
        pending |= bodies.get(name, set()) - {name}
    reached: set[str] = set()
    while pending:
        name = pending.pop()
        if name not in reached:
            reached.add(name)
            pending |= bodies.get(name, set())
    return {name for name in bodies if not _is_dunder(name)} - reached


def test_unreferenced_definitions_are_exactly_the_kept_ones():
    assert unreached() == set(KEPT)
