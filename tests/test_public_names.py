"""Every public name of logsurf, and every top-level function and class of
its modules, has a caller outside the tests, or a listed reason; and every
module, script and test file reads each name it imports.

The exports are the names that src/logsurf/__init__.py imports from the
package's modules.  A caller is any use of the name, as an identifier or
an attribute, in a module of the package other than __init__, a script
or the benchmark harness; a definition is not a use, nor is a read of a
name that the reading function binds itself, as a parameter or an
assignment target.  So a refactor cannot leave a helper behind without a
caller, and a parameter that shares its name does not stand in for one.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Names that nothing calls yet, each with the ROADMAP item that gives it a
# caller, or the test that needs it.
AWAITING_A_CALLER = {
    "normalize": "item 2: curved and lens corners through the CLI",
    "compose_germ_lp": "item L1: resonant orders; acceptance criterion 2 in tests/test_acceptance.py",
    "compose_pow": "item L1: gamma carried through a root stage",
    "tail_bound": "acceptance criterion 2; item 3 step 3: the rigorous bound beside the estimate",
    "poisson_disk": "acceptance criterion 8: the disc potentials",
    "monomial": "item L1: the z**beta log z term at a resonant order; acceptance criterion 2",
    "evaluate_image": "item L1: the log-power image chain, as compose_germ_lp",
    "binom_coefficients": "tests/test_acceptance.py's series of (1 - w)**-0.5 for the tail bound",
}


def _exports() -> set:
    tree = ast.parse((ROOT / "src" / "logsurf" / "__init__.py").read_text())
    return {alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names}


def _definitions() -> set:
    return {node.name
            for path in (ROOT / "src" / "logsurf").glob("*.py")
            for node in ast.parse(path.read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _binds(fn) -> set:
    """The names fn binds: its parameters and the names it, or a scope inside it, assigns."""
    a = fn.args
    params = {p.arg for p in [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg] if p}
    return params | {n.id for n in ast.walk(fn) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}


def _uses(node, bound=frozenset()):
    """The names node uses, less the reads of a name an enclosing function binds."""
    if isinstance(node, _SCOPES):
        bound = bound | _binds(node)
    if isinstance(node, ast.Name) and node.id not in bound:
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    for child in ast.iter_child_nodes(node):
        yield from _uses(child, bound)


def _callers() -> set:
    paths = [p for p in (ROOT / "src" / "logsurf").glob("*.py") if p.name != "__init__.py"]
    paths += [*(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    return {name for path in paths for name in _uses(ast.parse(path.read_text()))}


def test_every_public_name_has_a_caller_or_a_roadmap_item():
    exports, callers = _exports() | _definitions(), _callers()
    assert sorted(exports - callers - AWAITING_A_CALLER.keys()) == []
    # a name that has found a caller, or left the package, leaves the list
    assert sorted(AWAITING_A_CALLER.keys() - (exports - callers)) == []


def _unused_imports(path: Path) -> list:
    """The names path imports at its top level and never reads as a Name."""
    tree = ast.parse(path.read_text())
    imported = [alias.asname or alias.name.split(".")[0]
                for node in tree.body
                if isinstance(node, ast.Import)
                or isinstance(node, ast.ImportFrom) and node.module != "__future__"
                for alias in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [name for name in imported if name not in read]


def test_every_module_import_is_used():
    # __init__'s imports are the exports, which the test above covers
    paths = [p for p in (ROOT / "src" / "logsurf").glob("*.py") if p.name != "__init__.py"]
    paths += [*(ROOT / "scripts").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    unused = {p.relative_to(ROOT).as_posix(): _unused_imports(p) for p in sorted(paths)}
    assert {path: names for path, names in unused.items() if names} == {}
