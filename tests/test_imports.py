"""Every import in the package sits at module level, where a reader and an
import-cycle check can see it."""

import ast
from pathlib import Path

import umbralog

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


def public_definitions(path: Path) -> set:
    """``file:name`` of every public module-level function and class, and
    of every public method of a module-level class."""
    tree = ast.parse(path.read_text(), filename=str(path))
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    found = set()
    for node in tree.body:
        if not isinstance(node, kinds):
            continue
        members = node.body if isinstance(node, ast.ClassDef) else []
        for defn in [node, *members]:
            if isinstance(defn, kinds) and not defn.name.startswith("_"):
                found.add(f"{path.name}:{defn.name}")
    return found


def referenced_names(paths) -> set:
    """Every identifier read as an AST ``Name`` or ``Attribute``."""
    found = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
    return found


def test_every_public_name_is_used_or_exported():
    """A public function, class or method that nothing in the package or in
    perfbench calls, and that ``umbralog.__all__`` does not export, is dead
    code."""
    sources = sorted(PACKAGE.glob("*.py"))
    used = referenced_names(sources + sorted((PACKAGE.parents[1] / "perfbench").glob("*.py")))
    used |= set(umbralog.__all__)
    defined = set().union(*map(public_definitions, sources))
    unused = sorted(d for d in defined if d.split(":")[1] not in used)
    assert not unused, unused


def test_the_scan_flags_exactly_an_unused_public_name(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "class Used:\n"
        "    def called(self): ...\n"
        "    def idle(self): ...\n"
        "    def _private(self): ...\n"
        "def idle_function(): ...\n"
        "def _helper(): return Used().called()\n"
    )
    defined = public_definitions(module)
    assert defined == {"mod.py:Used", "mod.py:called", "mod.py:idle", "mod.py:idle_function"}
    used = referenced_names([module])
    assert sorted(d for d in defined if d.split(":")[1] not in used) == [
        "mod.py:idle", "mod.py:idle_function"]


def test_every_exported_name_exists():
    """``umbralog.__all__`` is the escape hatch of the unused-name check, so
    each name in it must be a real attribute of the package."""
    missing = [name for name in umbralog.__all__ if not hasattr(umbralog, name)]
    assert not missing, missing
    assert len(set(umbralog.__all__)) == len(umbralog.__all__)
