"""Every public name of logsurf, and every top-level function and class of
its modules, has a caller outside the tests, or a listed reason.

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
    "normalize": "open items 2 and 3: curved and lens corners through the CLI",
    "compose_germ_lp": "open items 4 and 5: resonant orders and gamma in the normalized chart",
    "compose_pow": "open items 4 and 5: gamma carried through a root stage",
    "arg_shift_bound": "open item 5: the curved envelope's pi/2 haircut",
    "sqd_contains": "open item 5: membership in the quadratic domain",
    "tail_bound": "open item 6: the per-level tail estimate",
    "wasow_exponents": "open item 7: the sector's exponent lattice",
    "poisson_disk": "aim 1: an evaluator measured layer by layer",
    "monomial": "open item 4: the solver's z**beta log z term at a resonant order",
    "evaluate_image": "open items 4 and 5: the log-power image chain, as compose_germ_lp",
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
