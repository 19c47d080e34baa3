"""The library imports nothing outside the standard library and itself."""

import ast
import pathlib
import sys

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "tlcga"


def imported_modules() -> dict[str, set[str]]:
    """Each absolute import's top-level module, with the files that import it."""
    found: dict[str, set[str]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # not an import, or a relative one (the package)
            for name in names:
                found.setdefault(name.split(".")[0], set()).add(path.name)
    return found


def test_every_import_is_stdlib_or_the_package():
    modules = imported_modules()
    assert "json" in modules  # the scan sees the package's imports
    foreign = {
        module: sorted(files)
        for module, files in modules.items()
        if module not in sys.stdlib_module_names and module != "tlcga"
    }
    assert foreign == {}
