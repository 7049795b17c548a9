"""The public API: every export and every public definition has a user in
the library itself."""

import ast
import pathlib

import nilfill

SRC = pathlib.Path(nilfill.__file__).parent


def _used_names() -> set:
    """Every name read as a ``Name`` or an ``Attribute`` in the package's
    modules, ``__init__.py`` aside (it only re-exports)."""
    used = set()
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_export_has_a_caller():
    # no public API exists only for tests: helpers that only tests call
    # live in tests/helpers.py
    used = _used_names()
    assert sorted(name for name in nilfill.__all__ if name not in used) == []


def test_every_public_definition_has_a_caller():
    # a public top-level function or class of a module is read somewhere in
    # the package; a reference kept only for tests lives in tests/helpers.py
    used = _used_names()
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(), str(path)).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_") and node.name not in used):
                unused.append(f"{path.stem}.{node.name}")
    assert unused == []
