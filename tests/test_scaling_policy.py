"""Induction pairs scale with |G|: a source check and a behaviour check.

Character tables come from the class algebra's spectral split alone, so
``reps.py`` runs no QR (the (k^2, k) QR of the class-algebra stack cost
k^4).  Induction pairs sweep only the subgroups whose index divides dim V,
so they never need the whole lattice of ``all_subgroups``.  Verification
of an enumerated list splits nothing and solves no centralizer: it reads
the centralizers from the memo and each partner's Wedderburn data off the
entry's own idempotents.  A W of dimension 1 or prime runs no conjugation
scan (its central simple list is the scalars and End(W)), and induction
pairs form no character table at all: W is read off the commutant of the
restriction.  Nor does ``ideals``: V's invariant subspaces are read off the
commutant End_G(V).  The conjugation scan reads its isotypic components off
the class sums of the action, so no CLI command (``validate``, ``ideals``,
``subalgebras``, ``factor``) builds a character table.  ``subalgebras`` on a
V whose conjugation action is multiplicity-free reads its whole list off one
scan of V, forming no induction pair and solving no centralizer; any other
V builds no class sum before it takes the induction route.  The Lie layer is
exact integer arithmetic with no numpy, and a weight sweep computes each
combined dimension once.
"""

import ast
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import invalg
import invalg.lie
from invalg import (HighestWeight, Parametrization, RootSystem, catalog,
                    central_simple_invariant_subalgebras, enumerate_invariant_subalgebras,
                    induction_pairs, invariant_ideals, invariant_subspaces, multfree_scan,
                    tensor_irreducible, verify_classification, weyl_dim)
from invalg.cli import main
from invalg.algebras import center, semisimplicity_certificate
from invalg.catalog import pair_to_json
from invalg.classify import _induction_route
from invalg.factor import factor
from invalg.groups import build_from_mult_table
from invalg.reps import Representation

from conftest import outer

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


def _fresh(key, rep_name=None):
    """The input on a group with no cached subgroups or tables."""
    if key.startswith("D") and key[1:].isdigit():
        return _dihedral_std(int(key[1:]))
    entry = catalog.get(key)
    rep = entry.reps[rep_name] if rep_name else next(iter(entry.reps.values()))
    group = build_from_mult_table(rep.group.mult)
    return Representation(group=group, dim=rep.dim, matrices=rep.matrices)


def _summary(pairs):
    return [(p.subgroup.members, p.w_rep.dim) for p in pairs]


def _forbid(monkeypatch, name, when=None):
    """Make every ``invalg`` module's ``name`` raise, on the calls ``when``
    accepts if it is given."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("invalg") and hasattr(mod, name):
            def guarded(*args, _inner=getattr(mod, name), **kwargs):
                if when is None or when(*args, **kwargs):
                    raise AssertionError(f"{name} was called")
                return _inner(*args, **kwargs)

            monkeypatch.setattr(mod, name, guarded)


@pytest.mark.parametrize("key", ["D12", "S4", "S3xS3"])
def test_induction_pairs_never_build_the_whole_lattice(key, monkeypatch):
    want = _summary(induction_pairs(_fresh(key)))
    _forbid(monkeypatch, "all_subgroups")
    assert _summary(induction_pairs(_fresh(key))) == want


@pytest.mark.parametrize("key,rep_name", [("S3xS3", "stdXstd"), ("A4", "std3")])
def test_verify_splits_nothing_and_solves_no_centralizer(key, rep_name, monkeypatch):
    _, rep = catalog.get(key, rep_name)
    subs, _ = enumerate_invariant_subalgebras(rep)
    for name in ("_spectral_split", "wedderburn_decompose", "intertwiners"):
        _forbid(monkeypatch, name)
    assert verify_classification(subs, rep).ok


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


# -- the theorem in place of the scan ---------------------------------------------

IRREDUCIBLE_INPUTS = [("S3", "triv"), ("S3", "sign"), ("S3", "std"), ("Q8", "std"),
                      ("D4", "std"), ("A4", "std3"), ("S4", "std3"), ("SL23", "std"),
                      ("S3xS3", "stdXstd")] + [(f"D{n}", None) for n in range(6, 25)]


def _scan_route(w_rep):
    """The central simple list by the conjugation scan: every unital closed
    sum of dimension a^2 with a | dim W that is semisimple with center the
    scalars, in the scan's order."""
    unital, _, _ = multfree_scan(w_rep)
    d = w_rep.dim
    return [sp for sp in unital
            if math.isqrt(sp.dim) ** 2 == sp.dim and d % math.isqrt(sp.dim) == 0
            and semisimplicity_certificate(sp)[1] is None and center(sp).dim == 1]


@pytest.mark.parametrize("key,rep_name", IRREDUCIBLE_INPUTS)
def test_prime_dimensional_w_matches_the_scan(key, rep_name):
    """For d = dim W of 1 or prime, C = M_a in End(W) needs a | d, so the
    list is the scalars and End(W); the scan route finds the same spaces."""
    checked = 0
    for pair in induction_pairs(_fresh(key, rep_name)):
        d = pair.w_rep.dim
        if any(d % p == 0 for p in range(2, d)):
            continue
        theorem, certified = central_simple_invariant_subalgebras(pair.w_rep)
        assert certified and [sp.dim for sp in theorem] == sorted({1, d * d})
        scanned = _scan_route(pair.w_rep)
        assert len(scanned) == len(theorem)
        assert all(s.equals(t) for s, t in zip(scanned, theorem))
        checked += 1
    assert checked


def _answer(subs, complete, rep):
    return ([(b.space.dim, b.component_dims, b.multiplicities) for b in subs],
            complete, verify_classification(subs, rep).violations)


def _count(monkeypatch, name):
    """Count the calls to every ``invalg`` module's ``name``."""
    calls = []
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("invalg") and hasattr(mod, name):
            def counted(*args, _inner=getattr(mod, name), **kwargs):
                calls.append(name)
                return _inner(*args, **kwargs)

            monkeypatch.setattr(mod, name, counted)
    return calls


@pytest.mark.parametrize("key,rep_name", [("D12", None), ("S4", "std3"), ("SL23", "std")])
def test_subalgebras_of_a_multiplicity_free_v_run_one_scan_and_no_induction(
        key, rep_name, monkeypatch):
    """V's conjugation action is multiplicity-free, so the list is read off
    one split of it; no induction pair is formed.  The route decision's
    count of components is handed to the scan, not recomputed."""
    before = _fresh(key, rep_name)
    want_subs, want_complete = _induction_route(before)
    rep = _fresh(key, rep_name)
    _forbid(monkeypatch, "induction_pairs")
    splits = _count(monkeypatch, "_conjugation_split")
    counts = _count(monkeypatch, "_conjugation_count")
    subs, complete = enumerate_invariant_subalgebras(rep)
    assert len(splits) == len(counts) == 1
    assert _answer(subs, complete, rep) == _answer(want_subs, want_complete, before)
    assert all(s.space.equals(t.space) for s, t in zip(subs, want_subs))


def test_subalgebras_of_a4_build_no_class_sum_and_run_no_scan(monkeypatch):
    """A4 std3 is not multiplicity-free (its 3 appears twice in End(V)): the
    route decision reads the class trace form alone, and every W has
    dimension 1 or 3, so the induction route runs no scan either."""
    before = _fresh("A4", "std3")
    want_subs, want_complete = _induction_route(before)
    rep = _fresh("A4", "std3")
    for name in ("_reach_table", "multfree_scan", "_conjugation_class_sums"):
        _forbid(monkeypatch, name)
    subs, complete = enumerate_invariant_subalgebras(rep)
    assert _answer(subs, complete, rep) == _answer(want_subs, want_complete, before)
    assert all(s.space.equals(t.space) for s, t in zip(subs, want_subs))


@pytest.mark.parametrize("key", ["S3:std", "Q8:std", "D4:std", "S4:std3", "SL23:std",
                                 "S3xS3:stdXstd"])
def test_certified_subalgebras_solve_no_centralizer(key, tmp_path, monkeypatch):
    """On a certified scan of V each entry's centralizer and center are read
    off the masks: the ``subalgebras`` command, enumeration and verification
    alike, calls no ``intertwiners``."""
    calls = _count(monkeypatch, "intertwiners")
    out = tmp_path / "out.json"
    assert main(["subalgebras", f"catalog:{key}", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["complete"] and payload["verification"]["ok"]
    assert calls == []


@pytest.mark.parametrize("command,key", [
    ("subalgebras", "S3:std"), ("subalgebras", "Q8:std"), ("subalgebras", "S3xS3:stdXstd"),
    ("factor", "S3xS3:stdXstd"), ("factor", "S3xPauli")])
def test_certified_scans_form_no_projector_stack(command, key, tmp_path, monkeypatch):
    """A certified scan reads its tables off the split's eigenvectors: the
    command runs one split of the class sums and forms no isotypic
    projector (``conjugation_decomposition``)."""
    if key == "S3xPauli":
        rep = outer("S3:std", "C2xC2:pauli")
        source = tmp_path / "input.json"
        source.write_text(json.dumps(pair_to_json(rep.group, rep)))
    else:
        source = f"catalog:{key}"
    _forbid(monkeypatch, "conjugation_decomposition")
    splits = _count(monkeypatch, "_conjugation_split")
    out = tmp_path / "out.json"
    assert main([command, str(source), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload.get("complete", payload.get("certified")) is True
    assert len(splits) == 1


@pytest.mark.parametrize("parts,solves", [(("S3:std",) * 3, 0),
                                          (("S3:std", "C2xC2:pauli"), 1)],
                         ids=["S3^3", "S3xPauli"])
def test_certified_library_subalgebras_solve_no_centralizer(parts, solves, monkeypatch):
    """The library call on S3^3 solves nothing either; projective S3 x Pauli
    solves one commutant, ``is_irreducible``'s (a linear V uses its
    character)."""
    rep = outer(*parts)
    calls = _count(monkeypatch, "intertwiners")
    tests = _count(monkeypatch, "commutant_dimension")
    subs, complete = enumerate_invariant_subalgebras(rep)
    assert complete and verify_classification(subs, rep).ok
    assert len(calls) == len(tests) == solves


def test_factor_runs_no_scan_on_prime_dimensional_w(monkeypatch):
    rep = _fresh("S3", "std")
    want = factor(central_simple_invariant_subalgebras(rep)[0], rep)
    for name in ("multfree_scan", "conjugation_decomposition"):
        _forbid(monkeypatch, name)
    cs_list, certified = central_simple_invariant_subalgebras(rep)
    got = factor(cs_list, rep)
    assert certified and [(f.a, f.b) for f in got] == [(f.a, f.b) for f in want]
    assert all(f.b_space.equals(g.b_space) and f.residual < 1e-10 for f, g in zip(got, want))


@pytest.mark.parametrize("key", ["D12", "S3xS3"])
def test_the_pair_g_v_needs_no_character_table_of_g(key, monkeypatch):
    """(G, V) is built directly from V's own matrices."""
    want = _summary(induction_pairs(_fresh(key)))
    rep = _fresh(key)
    _forbid(monkeypatch, "character_table", when=lambda g: g.order == rep.group.order)
    pairs = induction_pairs(rep)
    assert _summary(pairs) == want
    whole = pairs[-1]
    assert whole.subgroup.order == rep.group.order and whole.w_rep.dim == rep.dim
    assert np.array_equal(whole.w_rep.matrices, rep.matrices)


@pytest.mark.parametrize("key,rep_name", [("D12", None), ("A4", "std3"), ("S4", "std3"),
                                          ("SL23", "std"), ("S3xS3", "stdXstd")])
def test_induction_pairs_use_no_characters(key, rep_name, monkeypatch):
    """Each W is an image of a central idempotent of End_H(V), and the rank of
    the translates certifies Ind W = V: no character table, no character
    comparison."""
    want = _summary(induction_pairs(_fresh(key, rep_name)))
    for name in ("character_table", "is_induced_from"):
        _forbid(monkeypatch, name)
    assert _summary(induction_pairs(_fresh(key, rep_name))) == want


LINEAR_CATALOG = [(key, name) for key, entry in sorted(catalog.catalog().items())
                  for name, rep in sorted(entry.reps.items()) if not rep.is_projective]


def _lattice(rep):
    """The invariant subspace lattice, with both ideal lattices' dims when finite."""
    subs = invariant_subspaces(rep)
    if isinstance(subs, Parametrization):
        return subs.factors
    return ([(s.dim, s.projector().round(9).tobytes()) for s in subs],
            [[i.dim for i in invariant_ideals(rep, side)] for side in ("left", "right")])


@pytest.mark.parametrize("key,rep_name", LINEAR_CATALOG)
def test_ideals_use_no_characters(key, rep_name, monkeypatch, capsys):
    """The library's lattice and the ``ideals`` command build no character
    table and read no character, and give the same answers without them."""
    want = _lattice(_fresh(key, rep_name))
    assert main(["ideals", f"catalog:{key}:{rep_name}"]) == 0
    want_out = capsys.readouterr().out
    for name in ("character_table", "character"):
        _forbid(monkeypatch, name)
    assert _lattice(_fresh(key, rep_name)) == want
    assert main(["ideals", f"catalog:{key}:{rep_name}"]) == 0
    assert capsys.readouterr().out == want_out


# the outer tensor products given to the CLI as JSON files
TENSOR_JSON = {"S3xPauli": ("S3:std", "C2xC2:pauli"), "Q8xS3": ("Q8:std", "S3:std")}


@pytest.mark.parametrize("source", [f"catalog:{key}:{name}"
                                    for key, entry in sorted(catalog.catalog().items())
                                    for name in sorted(entry.reps)] + sorted(TENSOR_JSON))
@pytest.mark.parametrize("command", ["validate", "ideals", "subalgebras", "factor"])
def test_no_command_builds_a_character_table(command, source, monkeypatch, capsys, tmp_path):
    """Every classification decision reads the commutant or the class sums of
    the conjugation action, never a character table: each command answers
    the same with ``character_table`` forbidden."""
    if source in TENSOR_JSON:
        rep = outer(*TENSOR_JSON[source])
        path = tmp_path / f"{source}.json"
        path.write_text(json.dumps(pair_to_json(rep.group, rep)), encoding="utf-8")
        source = str(path)
    want = main([command, source]), capsys.readouterr()
    _forbid(monkeypatch, "character_table")
    assert (main([command, source]), capsys.readouterr()) == want
