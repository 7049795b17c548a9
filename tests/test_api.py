"""The public API: every export has a user in the library itself."""

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
