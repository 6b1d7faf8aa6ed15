"""The package imports nothing outside the standard library.

It declares no dependencies, so an import of an installed third-party
module would pass locally and fail wherever only the package is installed.
Every module's imports are read with `ast`, without importing it.
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "joinfd"


def _foreign_imports(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            if top != "joinfd" and top not in sys.stdlib_module_names:
                found.append(f"{path.name}:{node.lineno}: {name}")
    return found


def test_package_imports_only_the_standard_library():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    assert [hit for path in modules for hit in _foreign_imports(path)] == []
