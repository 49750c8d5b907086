"""Every tolerance lives in ``_linalg``'s table, and every ``tol`` decides.

A source check on the package: outside ``_linalg.py`` no code holds a small
float literal (a tolerance written in place), and no function takes a
``tol`` or ``seed`` that its body never reads (an option that silently does
not reach the decision it names).  Docstrings are strings, so they may quote
values.
"""

import ast
from pathlib import Path

import pytest

import invalg

SOURCES = sorted(Path(invalg.__file__).parent.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _small_literals(tree):
    """Line numbers of nonzero numeric constants of modulus below 1e-3."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Constant)
            and isinstance(node.value, (float, complex))
            and 0 < abs(node.value) < 1e-3]


def _unread_parameters(tree, names=("tol", "seed")):
    """``(line, function, parameter)`` for each parameter in ``names`` that
    the function's body (nested functions included) never loads."""
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = fn.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        body = fn.body if isinstance(fn.body, list) else [fn.body]
        read = {node.id for stmt in body for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        out += [(fn.lineno, getattr(fn, "name", "<lambda>"), p)
                for p in params if p in names and p not in read]
    return out


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"_linalg.py", "algebras.py", "reps.py"}


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "_linalg.py"],
                         ids=lambda p: p.name)
def test_no_tolerance_literal_outside_linalg(path):
    assert _small_literals(_tree(path)) == [], \
        f"{path.name}: name the tolerance in _linalg instead"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_tol_and_seed_parameter_is_read(path):
    assert _unread_parameters(_tree(path)) == []


def test_the_checks_see_what_they_look_for():
    tree = ast.parse('''
def f(x, tol=1e-8, seed=0):
    """Docstring quoting 1e-6."""
    return x > 1e-6

def g(x, tol, seed):
    return (lambda tol: 0.0)(seed) + x * tol

h = lambda seed: 1e-4j
''')
    assert sorted(_small_literals(tree)) == [2, 4, 9]
    assert sorted(_unread_parameters(tree)) == [
        (2, "f", "seed"), (2, "f", "tol"), (7, "<lambda>", "tol"), (9, "<lambda>", "seed")]
