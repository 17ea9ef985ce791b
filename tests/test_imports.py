"""Every import in the package sits at module level, where a reader and an
import-cycle check can see it."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "umbralog"


def function_level_imports(path: Path) -> set:
    """``file:line`` of every import inside a function, method or lambda."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = set()
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    found.add(f"{path.name}:{node.lineno}")
    return found


def test_package_is_found():
    assert (PACKAGE / "__init__.py").is_file()


def test_no_import_inside_a_function():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        found |= function_level_imports(path)
    assert not found, sorted(found)
