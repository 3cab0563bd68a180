"""Every public function and class of ``cli``, ``euler``, ``grading``,
``hscalar``, ``projmod``, ``variants`` and ``verify`` has a caller in the
package.

A convenience spelling that only the tests call belongs in the tests
(``tests/oracles.py``).  Callers are read with ``ast``, so docstrings,
doctests and comments do not count, and neither does an import alone (the
re-exports of ``__init__`` among them): a name is called where it is read,
as a bare name in its own module or where it was imported by name, or as an
attribute of the imported module.  Every public method and property of a
package class has its name read somewhere in the package.

The package also holds no ``assert`` statement and reads no ``__debug__``,
the two things ``python -O`` changes, so the suite run under ``-O`` runs
the same package code as the plain run.
"""

import ast
import pathlib

import equibezout

PACKAGE = pathlib.Path(equibezout.__file__).parent
GUARDED = ("cli", "euler", "grading", "hscalar", "projmod", "variants", "verify")


def public_defs(tree: ast.Module) -> list[str]:
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def bindings(tree: ast.Module, module: str) -> tuple[set[str], dict[str, str]]:
    """The local names bound to ``module`` itself, and the local names of
    the attributes imported from it (local name -> attribute name)."""
    aliases, imported = set(), {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.module is None or node.module == "equibezout":  # from . import hscalar
            aliases |= {a.asname or a.name for a in node.names if a.name == module}
        elif node.module in (module, f"equibezout.{module}"):
            imported.update((a.asname or a.name, a.name) for a in node.names)
    return aliases, imported


def called_names(tree: ast.Module, module: str, own: bool) -> set[str]:
    """The names of ``module`` that ``tree`` reads; ``own`` when ``tree``
    is ``module`` itself, whose bare names are its own."""
    aliases, imported = bindings(tree, module)
    called = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if own:
                called.add(node.id)
            elif node.id in imported:
                called.add(imported[node.id])
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in aliases):
            called.add(node.attr)
    return called


def uncalled(module: str, package: pathlib.Path = PACKAGE) -> list[str]:
    trees = {path.stem: ast.parse(path.read_text()) for path in package.glob("*.py")}
    called = set()
    for stem, tree in trees.items():
        called |= called_names(tree, module, own=stem == module)
    return [name for name in public_defs(trees[module]) if name not in called]


def unread_methods(package: pathlib.Path = PACKAGE) -> list[str]:
    """The public methods and properties, as ``module.Class.name``, whose
    name no package code reads as an attribute or a bare name."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    read = {node.attr if isinstance(node, ast.Attribute) else node.id
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{stem}.{cls.name}.{node.name}"
            for stem, tree in trees.items() for cls in tree.body
            if isinstance(cls, ast.ClassDef) for node in cls.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("__")
            and node.name not in read]


def copy_package(tmp_path: pathlib.Path) -> None:
    for path in PACKAGE.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())


def test_every_public_name_has_a_caller_in_the_package():
    assert {module: uncalled(module) for module in GUARDED} == {m: [] for m in GUARDED}


def test_the_guard_sees_a_name_that_only_the_tests_call(tmp_path):
    # a spelling added to hscalar and called only from a docstring and a
    # re-export in __init__ is reported
    copy_package(tmp_path)
    hscalar = tmp_path / "hscalar.py"
    hscalar.write_text(hscalar.read_text() + '\n\ndef spare() -> HElement:\n'
                       '    """>>> spare()"""\n    return HElement(1, 1, 1)\n')
    init = tmp_path / "__init__.py"
    init.write_text(init.read_text() + "from .hscalar import spare\n")
    assert uncalled("hscalar", tmp_path) == ["spare"]
    assert uncalled("variants", tmp_path) == []


def test_every_method_is_read_in_the_package():
    # by name only: a method sharing its name with one that is read
    # (``HElement.zero`` beside ``ModuleElement.zero``) counts as read
    assert unread_methods() == []


def test_the_method_guard_sees_a_method_that_only_the_tests_read(tmp_path):
    copy_package(tmp_path)
    projmod = tmp_path / "projmod.py"
    projmod.write_text(projmod.read_text().replace(
        "    @property\n    def mclass(self)",
        '    @property\n    def spare(self) -> int:\n        """>>> x.spare"""\n'
        "        return self.mclass\n\n    @property\n    def mclass(self)"))
    assert unread_methods(tmp_path) == ["projmod.BasisMonomial.spare"]


def debug_only(package: pathlib.Path = PACKAGE) -> list[str]:
    """Every ``assert`` statement and read of ``__debug__`` in the package,
    as ``module:line``."""
    return [f"{path.stem}:{node.lineno}"
            for path in sorted(package.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Assert)
            or isinstance(node, ast.Name) and node.id == "__debug__"]


def test_the_package_has_no_assert_and_no_debug_branch():
    assert debug_only() == []


def test_the_assert_guard_sees_an_assert_and_a_debug_branch(tmp_path):
    copy_package(tmp_path)
    projmod = tmp_path / "projmod.py"
    text = projmod.read_text()
    lines = text.count("\n")
    projmod.write_text(text + "assert ProjSpace(1, 1)\nif __debug__:\n    pass\n")
    assert debug_only(tmp_path) == [f"projmod:{lines + 1}", f"projmod:{lines + 2}"]
