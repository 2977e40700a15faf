"""The package runs on the standard library and numpy alone."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "selectmae"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "selectmae"}


def _imported_roots(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_package_imports_only_stdlib_and_numpy():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 10
    outside = [
        f"{path.relative_to(PACKAGE)}:{line} imports {root}"
        for path in modules
        for line, root in _imported_roots(ast.parse(path.read_text(), str(path)))
        if root not in ALLOWED
    ]
    assert not outside, outside
