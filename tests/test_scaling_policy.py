"""Induction pairs scale with |G|: a source check and a behaviour check.

Character tables come from the class algebra's spectral split alone, so
``reps.py`` runs no QR (the (k^2, k) QR of the class-algebra stack cost
k^4).  Induction pairs sweep only the subgroups whose index divides dim V,
so they never need the whole lattice of ``all_subgroups``.  Verification
of an enumerated list splits nothing and solves no centralizer: it reads
the centralizers from the memo and each partner's Wedderburn data off the
entry's own idempotents.  The Lie layer is exact integer arithmetic with
no numpy, and a weight sweep computes each combined dimension once.
"""

import ast
import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

import invalg
import invalg.lie
from invalg import (HighestWeight, RootSystem, catalog, enumerate_invariant_subalgebras,
                    induction_pairs, tensor_irreducible, verify_classification, weyl_dim)
from invalg.groups import build_from_mult_table
from invalg.reps import Representation

REPS = Path(invalg.__file__).parent / "reps.py"
LIE = Path(invalg.__file__).parent / "lie.py"


def _qr_calls(tree):
    """Line numbers of calls to ``qr`` or ``<...>.linalg.qr``."""
    def is_qr(func):
        if isinstance(func, ast.Name):
            return func.id == "qr"
        return (isinstance(func, ast.Attribute) and func.attr == "qr"
                and isinstance(func.value, ast.Attribute) and func.value.attr == "linalg")
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and is_qr(node.func)]


def test_reps_runs_no_qr():
    assert _qr_calls(ast.parse(REPS.read_text(encoding="utf-8"))) == []


def test_the_qr_check_sees_what_it_looks_for():
    tree = ast.parse("a = np.linalg.qr(m)\nb = qr(m)\nc = x.qr\nd = scipy.linalg.qr(m)[0]\n")
    assert _qr_calls(tree) == [1, 2, 4]


def _dihedral_std(n):
    """D_n on the plane, ``k + n*e`` standing for ``r^k s^e``."""
    k = np.arange(n)
    mult = np.empty((2 * n, 2 * n), dtype=np.intp)
    for e in range(2):
        for f in range(2):
            rot = (k[:, None] + (-1) ** e * k[None, :]) % n
            mult[e * n:(e + 1) * n, f * n:(f + 1) * n] = rot + n * ((e + f) % 2)
    th = 2 * np.pi * k / n
    rots = np.stack([np.stack([np.cos(th), -np.sin(th)], -1),
                     np.stack([np.sin(th), np.cos(th)], -1)], 1)
    mats = np.concatenate([rots, rots @ np.diag([1.0, -1.0])]).astype(complex)
    return Representation(group=build_from_mult_table(mult), dim=2, matrices=mats)


def _fresh(key):
    """The input on a group with no cached subgroups or tables."""
    if key == "D12":
        return _dihedral_std(12)
    rep = next(iter(catalog.get(key).reps.values()))
    group = build_from_mult_table(rep.group.mult)
    return Representation(group=group, dim=rep.dim, matrices=rep.matrices)


def _summary(pairs):
    return [(p.subgroup.members, p.w_rep.dim) for p in pairs]


def _forbid(monkeypatch, name):
    """Make every ``invalg`` module's ``name`` raise."""
    def boom(*args, **kwargs):
        raise AssertionError(f"{name} was called")

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("invalg") and hasattr(mod, name):
            monkeypatch.setattr(mod, name, boom)


@pytest.mark.parametrize("key", ["D12", "S4", "S3xS3"])
def test_induction_pairs_never_build_the_whole_lattice(key, monkeypatch):
    want = _summary(induction_pairs(_fresh(key)))
    _forbid(monkeypatch, "all_subgroups")
    assert _summary(induction_pairs(_fresh(key))) == want


@pytest.mark.parametrize("key,rep_name", [("S3xS3", "stdXstd"), ("A4", "std3")])
def test_verify_splits_nothing_and_solves_no_centralizer(key, rep_name, monkeypatch):
    _, rep = catalog.get(key, rep_name)
    subs, _ = enumerate_invariant_subalgebras(rep, seed=0)
    for name in ("_spectral_split", "wedderburn_decompose", "intertwiners"):
        _forbid(monkeypatch, name)
    assert verify_classification(subs, rep, seed=0).ok


def _imported_modules(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names.add(node.module.split(".")[0])
    return names


def test_lie_imports_no_numpy():
    assert "numpy" not in _imported_modules(ast.parse(LIE.read_text(encoding="utf-8")))


def test_the_import_check_sees_what_it_looks_for():
    tree = ast.parse("import numpy as np\nfrom numpy.linalg import qr\nfrom . import numpy\n")
    assert _imported_modules(tree) == {"numpy"}
    assert "numpy" not in _imported_modules(ast.parse("from .errors import numpy"))


def test_lie_sweep_computes_each_combined_dimension_once(monkeypatch):
    """A B4 sweep over the box 0..2: 81^2 pairs, 5^4 distinct sums."""
    rs = RootSystem.from_name("B4")
    fills = []
    memo_dim = invalg.lie._memo_dim
    monkeypatch.setattr(invalg.lie, "_memo_dim",
                        lambda *args: fills.append(args[1]) or memo_dim(*args))
    weights = [HighestWeight(rs, c) for c in itertools.product(range(3), repeat=4)]
    for lam in weights:
        for mu in weights:
            assert tensor_irreducible(lam, mu) == (lam.is_zero or mu.is_zero)
    assert len(rs.dim_memo) == len(fills) == len(set(fills)) == 5 ** 4
    fresh = RootSystem.from_name("B4")
    assert all(dim == weyl_dim(HighestWeight(fresh, c)) for c, dim in rs.dim_memo.items())
