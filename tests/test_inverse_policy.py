"""Inverses of representation matrices are read off the group table.

A source check on the package: no module hands a ``.matrices`` expression to
``linalg.inv`` (``Representation.inverses`` gives ``rho(g)^-1`` as
``rho(g^-1) / alpha(g, g^-1)``, in any basis), and none reads a ``.unitary``
attribute (a declared flag that nothing checked once chose the inverse).
"""

import ast
import dataclasses
from pathlib import Path

import pytest

import invalg
from invalg.reps import Representation

SOURCES = sorted(Path(invalg.__file__).parent.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _is_inv(func):
    """Whether a call target is ``inv`` or ``<...>.linalg.inv``."""
    if isinstance(func, ast.Name):
        return func.id == "inv"
    return (isinstance(func, ast.Attribute) and func.attr == "inv"
            and isinstance(func.value, ast.Attribute) and func.value.attr == "linalg")


def _inverted_matrices(tree):
    """Line numbers of ``inv`` calls with a ``.matrices`` attribute in an argument."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and _is_inv(node.func)
            and any(isinstance(sub, ast.Attribute) and sub.attr == "matrices"
                    for arg in node.args + [k.value for k in node.keywords]
                    for sub in ast.walk(arg))]


def _unitary_attributes(tree):
    """Line numbers of every ``.unitary`` attribute."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "unitary"]


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"reps.py", "algebras.py", "classify.py"}


def test_representation_declares_no_unitarity():
    assert "unitary" not in {f.name for f in dataclasses.fields(Representation)}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_representation_matrix_is_inverted_by_lapack(path):
    assert _inverted_matrices(_tree(path)) == [], \
        f"{path.name}: use Representation.inverses"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unitary_attribute_is_read(path):
    assert _unitary_attributes(_tree(path)) == []


def test_the_checks_see_what_they_look_for():
    tree = ast.parse('''
a = np.linalg.inv(rep.matrices[g])
b = np.linalg.inv(mats)
c = inv(w_rep.matrices)
d = group.inv[rep.matrices]
e = rep.unitary or x.unitary_deviation
f = numpy.linalg.inv(a=s @ rep.matrices)
''')
    assert sorted(_inverted_matrices(tree)) == [2, 4, 7]
    assert _unitary_attributes(tree) == [6]
