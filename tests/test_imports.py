"""The package imports nothing outside the standard library, and nothing
it does not use.

It declares no dependencies, so an import of an installed third-party
module would pass locally and fail wherever only the package is installed.
An unused import is left over from removed code. Every module's imports are
read with `ast`, without importing it.
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


def _annotation_names(node: ast.AST) -> set[str]:
    """Names inside an annotation, string annotations parsed."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names |= _annotation_names(ast.parse(sub.value, mode="eval"))
    return names


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used |= _annotation_names(node.returns)
    return [
        f"{path.name}:{line}: {name}"
        for name, line in imported.items()
        if name not in used
    ]


def test_package_modules_use_every_name_they_import():
    modules = [p for p in sorted(PACKAGE.rglob("*.py")) if p.name != "__init__.py"]
    assert modules
    assert [hit for path in modules for hit in _unused_imports(path)] == []
