"""Source hygiene of the package and its tests: no module imports a name it
never uses, and every name ``gmarr.__all__`` lists is bound.

Each module under ``src/gmarr`` and ``tests`` is read with ``ast``, so
nothing is imported or run to check it.  A name counts as used when it
appears as an identifier anywhere in the module (attribute chains count by
their first name); a name listed in ``__all__`` (only ``__init__`` has one)
counts as used too.  The benchmark under ``gmbench`` is not scanned.

A private (``_name``, not dunder) module-level function or class of the
package, or method of one of its module-level classes, must also be
referenced outside its own definition, in the package or the tests: as an
identifier, an attribute or an imported name, matched by name alone across
modules.
"""

import ast
from collections import Counter
from pathlib import Path

import gmarr

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "gmarr"


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of the import."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _used(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return used


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py"))
    assert PACKAGE / "cli.py" in modules and TESTS / "_helpers.py" in modules
    unused = []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        used = _used(tree)
        unused += [f"{path.relative_to(TESTS.parent)}:{line} {name}"
                   for name, line in _imported(tree).items() if name not in used]
    assert not unused, unused


def test_every_exported_name_is_bound():
    assert len(set(gmarr.__all__)) == len(gmarr.__all__)
    assert [name for name in gmarr.__all__ if not hasattr(gmarr, name)] == []


def _references(node: ast.AST) -> Counter:
    """How often each name is referenced under ``node``."""
    refs = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            refs[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            refs[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            refs.update(alias.name for alias in sub.names)
    return refs


def test_every_private_helper_is_referenced():
    modules = sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py"))
    refs = Counter()
    helpers = []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        refs += _references(tree)
        if path.parent == PACKAGE:
            methods = [node for cls in tree.body if isinstance(cls, ast.ClassDef) for node in cls.body]
            helpers += [(path, node) for node in tree.body + methods
                        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                        and node.name.startswith("_") and not node.name.startswith("__")]
    assert helpers
    unused = [f"{path.relative_to(TESTS.parent)}:{node.lineno} {node.name}"
              for path, node in helpers if refs[node.name] == _references(node)[node.name]]
    assert not unused, unused
