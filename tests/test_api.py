"""The public API: every export and every public definition has a user in
the library itself, and no check of the library is an ``assert``."""

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


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(ast.unparse(dec).startswith("dataclass") for dec in node.decorator_list)


def _self_targets(target):
    """The names ``X`` that an assignment target sets as ``self.X``."""
    if isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _self_targets(elt)
    elif (isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name)
            and target.value.id == "self"):
        yield target.attr


def test_every_public_member_is_read_in_the_package():
    # a public method or a public ``self.X = ...`` attribute of a class is
    # read as an attribute somewhere in the package, not only by tests;
    # dataclass fields are the class's record and are exempt
    read = set()
    classes = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ClassDef) and not _is_dataclass(node):
                classes.append((path.stem, node))
    unread = []
    for module, cls in classes:
        members = set()
        for item in cls.body:
            if isinstance(item, ast.FunctionDef):
                members.add(item.name)
                for node in ast.walk(item):
                    if isinstance(node, ast.Assign):
                        for target in node.targets:
                            members.update(_self_targets(target))
                    elif isinstance(node, ast.AnnAssign):
                        members.update(_self_targets(node.target))
        unread += [f"{module}.{cls.name}.{name}" for name in sorted(members)
                   if not name.startswith("_") and name not in read]
    assert unread == []


def test_no_assert_statement_in_the_package():
    # ``python -O`` strips ``assert``; every check raises explicitly
    asserts = [f"{path.name}:{node.lineno}"
               for path in sorted(SRC.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(), str(path)))
               if isinstance(node, ast.Assert)]
    assert asserts == []
