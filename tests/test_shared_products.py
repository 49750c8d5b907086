"""Work the ``factor`` path now does once, against the code that did it twice.

``_as_projective_rep`` recovers the cocycle and certifies the law from the
n |S| products over the generators; the all-pairs two-pass code (recovery,
then ``validate``) is kept here as the oracle.  The reach and commute tables
are built a row at a time; the per-pair loop is the oracle.  Centralizers
are solved once per space, and on a certified scan not at all: the masks
they are read off are checked against the solves.
"""

import itertools
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import invalg.factor
import invalg.reps
from invalg import (NotARepresentation, Representation, TwoCocycle, catalog,
                    validate)
from invalg._linalg import row_norms, scalar_multiple_of_identity
from invalg.algebras import center, centralizer
from invalg.catalog import pair_to_json
from invalg.cli import main
from invalg.errors import ToleranceFailure
from invalg.groups import build_from_mult_table
from invalg.factor import _reach_table
from invalg.reps import _as_projective_rep, _pair_blocks, conjugation_decomposition
from invalg.spaces import MatrixSubspace

from conftest import outer


# -- one pair table for the cocycle and the law ------------------------------------


def _two_pass(group, mats, name=None):
    """The cocycle recovery followed by a separate ``validate`` run."""
    n, k = group.order, mats.shape[1]
    if np.linalg.norm(mats[group.identity] - np.eye(k)) < 1e-8:
        mats[group.identity] = np.eye(k)
    inv_mats = np.linalg.inv(mats)
    vals = np.ones((n, n), dtype=complex)
    for rows in _pair_blocks(n, n * k * k):
        c, ok = scalar_multiple_of_identity(
            mats[rows, None] @ mats @ inv_mats[group.mult[rows]], tol=1e-6)
        if not ok.all():
            g, h = divmod(int(np.argmin(ok)), n)
            raise ToleranceFailure(
                f"rho(g)rho(h)rho(gh)^-1 is not scalar at ({rows.start + g}, {h})")
        vals[rows] = c
    vals[group.identity, :] = 1.0
    vals[:, group.identity] = 1.0
    cocycle = None
    if np.max(np.abs(vals - 1.0)) > 1e-8:
        cocycle = TwoCocycle(group, vals)
    rep = Representation(group=group, dim=k, matrices=mats,
                         cocycle=cocycle, name=name)
    validate(rep, tol=1e-6)
    return rep


def _scrambled(rep, seed, phase_size):
    """The matrices in a random basis, each times a scalar near one or not."""
    rng = np.random.default_rng(seed)
    d, n = rep.dim, rep.group.order
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    phases = np.exp(1j * phase_size * rng.standard_normal(n))
    phases[rep.group.identity] = 1.0
    return phases[:, None, None] * (q.conj().T @ rep.matrices @ q)


def _pair_inputs():
    """(name, rep): linear and projective, with the group identity at 0."""
    out = [(f"{k}:{r}", catalog.get(k, r)[1])
           for k, r in (("S3", "std"), ("Q8", "std"), ("A4", "std3"),
                        ("S3xS3", "stdXstd"), ("C2xC2", "pauli"))]
    return out + [("S3xPauli", outer("S3:std", "C2xC2:pauli"))]


@pytest.fixture
def law_results(monkeypatch):
    """Every ``((deviation, pair), bound)`` that ``reps._generator_law`` returns."""
    seen, law = [], invalg.reps._generator_law

    def record(*args):
        seen.append(law(*args))
        return seen[-1]

    monkeypatch.setattr(invalg.reps, "_generator_law", record)
    return seen


@pytest.mark.parametrize("rows", [None, 1, 3])
@pytest.mark.parametrize("phase_size", [0.0, 1e-11, 1.0])
@pytest.mark.parametrize("name,rep", _pair_inputs(), ids=[n for n, _ in _pair_inputs()])
def test_one_pass_matches_the_two_pass_recovery(name, rep, phase_size, rows,
                                                monkeypatch, law_results):
    """The cocycle read off the generator pairs and filled along the word
    layers is the all-pairs oracle's within 1e-10 (the oracle runs in row
    blocks of ``rows``).  Phases of 1e-11 leave a cocycle within 1e-8 of one,
    which is dropped.  The generator pairs are some of validate's pairs, and
    the bound covers all of them."""
    n, k = rep.group.order, rep.dim
    if rows is not None:
        monkeypatch.setattr(invalg.reps, "_PAIR_BLOCK", rows * n * k * k)
    mats = _scrambled(rep, 11, phase_size)
    want = _two_pass(rep.group, mats.copy())
    law_results.clear()
    got = _as_projective_rep(rep.group, mats.copy(), None)
    assert np.array_equal(got.matrices, want.matrices)
    assert (got.cocycle is None) == (want.cocycle is None)
    if phase_size == 1e-11 and not rep.is_projective:
        assert got.cocycle is None
    if got.cocycle is not None:
        assert np.max(np.abs(got.cocycle.values - want.cocycle.values)) <= 1e-10
    (dev, (g, s)), bound = law_results[0]
    assert s in rep.group.generators
    report = validate(got, tol=1e-6)
    assert dev <= report.max_deviation <= bound + 1e-13 and bound <= 1e-6


def _raised(fn, *args):
    with pytest.raises((ToleranceFailure, ValueError, NotARepresentation)) as exc:
        fn(*args)
    return exc


def _named_pair(exc):
    """The ``(g, s)`` a non-scalar or law failure names."""
    if exc.type is NotARepresentation:
        return exc.value.worst_pair
    g, s = re.search(r"not scalar at \((\d+), (\d+)\)$", str(exc.value)).groups()
    return int(g), int(s)


@pytest.mark.parametrize("rows", [None, 1, 3])
@pytest.mark.parametrize("case", ["later_non_scalar", "law", "cocycle_and_law"])
def test_errors_come_in_the_two_pass_order(case, rows, monkeypatch):
    """A non-scalar pair beats a law failure at the identity, and a failing
    cocycle identity beats a failing law, as in the all-pairs oracle (run in
    row blocks of ``rows``); a failing pair is a generator pair."""
    rep = outer("S3:std", "C2xC2:pauli")
    n, k, e = rep.group.order, rep.dim, rep.group.identity
    if rows is not None:
        monkeypatch.setattr(invalg.reps, "_PAIR_BLOCK", rows * n * k * k)
    mats = np.array(rep.matrices)
    # rho(1) = (1 + delta) I: every product stays scalar, but the identity
    # row of the law fails by delta sqrt(k) and the cocycle picks up delta
    delta = {"later_non_scalar": 7e-7, "law": 7e-7, "cocycle_and_law": 5e-6}[case]
    mats[e] = (1 + delta) * np.eye(k)
    if case == "later_non_scalar":
        mats[17] = mats[17] @ np.diag([1.0, 2.0, 3.0, 4.0])
    want = _raised(_two_pass, rep.group, mats.copy())
    got = _raised(_as_projective_rep, rep.group, mats.copy(), None)
    assert got.type is want.type
    expected_type = {"later_non_scalar": ToleranceFailure, "law": NotARepresentation,
                     "cocycle_and_law": ValueError}[case]
    assert got.type is expected_type
    if case != "cocycle_and_law":
        assert _named_pair(got)[1] in rep.group.generators
    if case == "law":
        # the generator pair (1, s) fails by delta |rho(s)| = delta sqrt(k)
        assert got.value.deviation == pytest.approx(delta * np.sqrt(k), rel=1e-6)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_generator_recovery_rejects_what_the_all_pairs_oracle_rejects(data):
    """Scrambled inputs with one element (perhaps the identity) bent by up
    to 10%: whenever the all-pairs recovery raises, so does the generator one.
    (Conversely only away from the thresholds: the two cocycle tables
    differ in their last digits off the generator pairs.)"""
    name, rep = data.draw(st.sampled_from(_pair_inputs()), label="input")
    n, k = rep.group.order, rep.dim
    seed = data.draw(st.integers(0, 2 ** 16), label="seed")
    mats = _scrambled(rep, seed, data.draw(st.sampled_from([0.0, 1e-11, 1.0])))
    g = data.draw(st.integers(0, n - 1), label="element")
    size = 10.0 ** data.draw(st.floats(-9.0, -1.0), label="log10 size")
    rng = np.random.default_rng(seed)
    bend = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    if data.draw(st.booleans(), label="scalar bend"):
        bend = np.eye(k)
    mats[g] = mats[g] + size * bend / np.linalg.norm(bend)
    try:
        _two_pass(rep.group, mats.copy())
    except (ToleranceFailure, ValueError, NotARepresentation):
        _raised(_as_projective_rep, rep.group, mats.copy(), None)


def _skewed(rep, decades, seed=0):
    """The matrices in a basis of condition number ``10 ** decades``."""
    rng = np.random.default_rng(seed)
    q1, _ = np.linalg.qr(rng.standard_normal((rep.dim,) * 2))
    q2, _ = np.linalg.qr(rng.standard_normal((rep.dim,) * 2))
    t = q1 @ np.diag(np.logspace(0, decades, rep.dim)) @ q2
    return Representation(group=rep.group, dim=rep.dim, cocycle=rep.cocycle,
                          matrices=np.linalg.inv(t) @ rep.matrices @ t)


def _law_bound_recurrence(group, mats, cocycle=None):
    """The law bound with every cocycle term, ``alpha = 1`` when linear:
    the oracle for the linear path, which drops ``f = 0`` and ``|alpha| = 1``."""
    n, k, e = group.order, mats.shape[-1], group.identity
    gens = np.array(group.generators, dtype=np.intp)
    alpha = np.ones((n, n)) if cocycle is None else cocycle.values
    diff = mats[:, None] @ mats[gens] - alpha[:, gens, None, None] * mats[group.mult[:, gens]]
    w, v = np.linalg.eigh(np.einsum("gji,gjk->ik", mats.conj(), mats))
    root = np.sqrt(w)
    t, t_inv = root[:, None] * v.conj().T, v / root
    mats_t = t @ mats @ t_inv
    frob = row_norms(mats_t)
    spec = np.sqrt(1.0 + row_norms(np.swapaxes(mats_t.conj(), 1, 2) @ mats_t - np.eye(k)))
    devs_t = np.linalg.norm((t @ diff @ t_inv).reshape(n, len(gens), -1), axis=2)
    bound = np.empty((n, n))
    bound[:, e] = row_norms(t @ (mats @ mats[e] - alpha[:, e, None, None] * mats) @ t_inv)
    bound[:, gens] = devs_t
    size = np.abs(alpha)
    for h, p, j in group.word_layers:
        s, gp = gens[j], group.mult[:, p]
        f = np.abs(alpha[:, p] * alpha[gp, s] - alpha[p, s] * alpha[:, h])
        bound[:, h] = (f * frob[group.mult[:, h]] + size[:, p] * devs_t[gp, j]
                       + bound[:, p] * spec[s] + spec[:, None] * devs_t[p, j]) / size[p, s]
    return max(float(np.linalg.norm(mats[e] - np.eye(k))),
               root[-1] / root[0] * float(np.max(bound)))


@pytest.mark.parametrize("key", [f"{k}:{r}" for k, e in sorted(catalog.catalog().items())
                                 for r in sorted(e.reps)])
def test_law_bound_matches_the_full_recurrence(key):
    """On every catalog rep, in its own basis and a skewed one, the bound is
    the full recurrence's to the last bit."""
    rep = catalog.get(*key.split(":"))[1]
    for mats in (rep.matrices, _skewed(rep, 1).matrices):
        got = invalg.reps._generator_law(rep.group, mats, rep.cocycle)[1]
        assert got == _law_bound_recurrence(rep.group, mats, rep.cocycle)


@pytest.mark.parametrize("key", ["S4:std3", "SL23:std"])
def test_law_bound_runs_in_the_unitary_frame(key, monkeypatch):
    """In a basis of condition number 100 the bound stays below 1e-8, where
    a product of spectral norms (about 100 per word letter) would not.  At
    condition number 1e3 it exceeds 1e-6, so every pair is checked, once,
    instead: a valid representation is not rejected, a broken one is."""
    rep = catalog.get(*key.split(":"))[1]
    law = invalg.reps._generator_law
    assert law(rep.group, _skewed(rep, 2).matrices, rep.cocycle)[1] < 1e-8
    skew = _skewed(rep, 3)
    assert law(rep.group, skew.matrices, rep.cocycle)[1] > 1e-6
    calls = []
    monkeypatch.setattr(invalg.reps, "validate", lambda r, tol: calls.append(tol) or validate(r, tol))
    invalg.reps.check_law(skew, tol=1e-6)
    assert calls == [1e-6]
    broken = np.array(skew.matrices)
    broken[3] *= 1 + 1e-5
    with pytest.raises(NotARepresentation):
        invalg.reps.check_law(Representation(group=rep.group, dim=rep.dim,
                                             matrices=broken, cocycle=rep.cocycle), tol=1e-6)


# -- the reach table ----------------------------------------------------------------


def _reach_loop(spaces, projs, tol):
    """One einsum, one projection and two norms per ordered pair; and every
    commutator of the pair's basis matrices."""
    m, w = len(spaces), spaces[0].shape[0]
    projs = np.stack(projs)
    reach = [[0] * m for _ in range(m)]
    commute = [0] * m
    for i, j in itertools.product(range(m), repeat=2):
        x, y = spaces[i].basis(), spaces[j].basis()
        prods = np.einsum("aij,bjk->abik", x, y).reshape(-1, w * w)
        parts = np.linalg.norm(projs @ prods.T, axis=1)
        hit = np.any(parts > tol * 10 * np.linalg.norm(prods, axis=1), axis=1)
        reach[i][j] = sum(1 << int(k) for k in np.flatnonzero(hit))
        comm = max(np.linalg.norm(a @ b - b @ a) for a in x for b in y)
        commute[i] |= int(comm <= tol * 10) << j
    return reach, commute


def _components(rep, tol=1e-8):
    """The scan's table, its component bases, the inverse of their stack, and
    the projectors along the components (the oracle's input)."""
    table = invalg.factor._isotypic_table(rep, tol)
    bases = [sp.flat for sp in table.spaces]
    stacked = np.concatenate(bases)
    coords = np.linalg.inv(stacked)
    starts = np.cumsum([0] + [len(b) for b in bases])
    # x = (x @ coords) @ stacked, so the part in C_k is x @ coords[:, k] @ stacked[k]
    projs = [(coords[:, i:j] @ stacked[i:j]).T for i, j in zip(starts, starts[1:])]
    return table, bases, coords, projs


def _reach_inputs():
    out = [f"{k}:{r}" for k, entry in sorted(catalog.catalog().items())
           for r in sorted(entry.reps)]
    return out + ["S3xPauli"]


def _rep(name):
    if name == "S3xPauli":
        return outer("S3:std", "C2xC2:pauli")
    return catalog.get(*name.split(":"))[1]


def _check_against_the_pair_loop(rep, monkeypatch, blocks):
    """The table's reach and commute tables equal the pair loop's on the
    same components, also at each of ``blocks`` entries a block; the
    components' projectors are the class-sum split's, and the scalar one
    fixes I."""
    table, bases, coords, projs = _components(rep)
    want = _reach_loop(table.spaces, projs, 1e-8)
    assert (table.reach, table.commute) == want
    split, _ = conjugation_decomposition(rep)
    assert len(split) == len(projs)
    for p in projs:
        assert min(np.max(np.abs(p - q)) for q in split) < 1e-10
    eye = np.eye(rep.dim).ravel()
    assert np.linalg.norm(projs[table.scalar] @ eye - eye) < 1e-10
    for block in blocks:
        monkeypatch.setattr(invalg.reps, "_PAIR_BLOCK", block)
        assert _reach_table(bases, coords, 1e-8) == want
    return want


@pytest.mark.parametrize("name", _reach_inputs())
def test_row_batched_reach_matches_the_pair_loop(name, monkeypatch):
    """The reach and commute tables, read off the coordinates of the row
    products in blocks, are the pair loop's, also at one product a block."""
    _check_against_the_pair_loop(_rep(name), monkeypatch, [1])


def test_row_batched_reach_on_pauli_cubed(monkeypatch):
    """m = 64 one-dimensional components: 4096 pairs, and masks that set bit
    63.  The commuting pairs are those of Pauli strings: the identity
    commutes with all 64, each other string with 32."""
    reach, commute = _check_against_the_pair_loop(
        outer(*["C2xC2:pauli"] * 3), monkeypatch, [1, 5 * 64])  # 1 and 5 products a block
    assert len(commute) == 64
    assert sum(bin(row).count("1") for row in commute) == 64 + 63 * 32
    assert any(mask >> 63 for row in reach for mask in row)
    assert any(row >> 63 for row in commute)


# -- centralizers solved once ---------------------------------------------------------


def test_centralizer_is_solved_once_per_tolerance(solves):
    sp = MatrixSubspace.identity_line(3)
    z = centralizer(sp)
    assert centralizer(sp) is z and centralizer(sp, 1e-8) is z
    assert solves["centralizer"] == 1
    assert center(sp).dim == 1 and solves["centralizer"] == 1
    other = centralizer(sp, 1e-6)
    assert other is not z and other.equals(z)
    assert solves["centralizer"] == 2


def test_flat_is_read_only_and_the_input_is_not():
    basis = np.eye(4, dtype=complex)[:2]
    sp = MatrixSubspace(basis, (2, 2))
    with pytest.raises(ValueError, match="read-only"):
        sp.flat[0, 0] = 2.0
    with pytest.raises(ValueError, match="read-only"):
        sp.basis()[0] *= 2
    basis[0, 0] = 3.0  # the caller's array stays writable
    assert basis.flags.writeable


def _uncertified(monkeypatch):
    """Make every isotypic scan report itself uncertified."""
    table = invalg.factor._isotypic_table
    monkeypatch.setattr(invalg.factor, "_isotypic_table",
                        lambda *args: table(*args)._replace(certified=False))


def _write_input(rep, tmp_path):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(pair_to_json(rep.group, rep)))
    return str(path)


def test_factor_reuses_the_scan_solves(solves, monkeypatch, tmp_path):
    """S3 x Pauli scanned as if uncertified: the search solves each entry's
    centralizer for its closure, and ``factor`` finds them memoized.  (A
    certified search solves none; see the next test.)"""
    calls = [0]
    for module in (invalg.algebras, invalg.factor):
        def counted(sp, tol=1e-8, _inner=module.centralizer):
            calls[0] += 1
            return _inner(sp, tol)

        monkeypatch.setattr(module, "centralizer", counted)
    _uncertified(monkeypatch)
    rep = outer("S3:std", "C2xC2:pauli")
    out = tmp_path / "out.json"
    assert main(["factor", _write_input(rep, tmp_path), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["certified"] is False
    assert 0 < solves["centralizer"] < calls[0]


@pytest.mark.parametrize("name", ["S3xPauli", "S3xS3:stdXstd", "Pauli2"])
def test_certified_factor_solves_no_centralizer_or_center(name, solves, tmp_path):
    """On a certified scan every partner and center is read off the masks:
    ``factor``, from the library or the CLI, solves no centralizer and no
    center, and certifies each extracted pair once by its trace form."""
    rep = _factor_rep(name)
    subs, certified = invalg.factor.central_simple_invariant_subalgebras(rep)
    facts = invalg.factor.factor(subs, rep)
    pairs = len({frozenset((id(f.b_space), id(f.z_space))) for f in facts})
    assert certified and pairs == len(subs) // 2
    want = {"centralizer": 0, "certificate": pairs, "center": 0}
    assert solves == want
    solves.update(dict.fromkeys(solves, 0))
    out = tmp_path / "out.json"
    assert main(["factor", _write_input(rep, tmp_path), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["certified"] is True
    assert solves == want


def _rotated(rep, seed):
    """``rep`` with its elements relabelled at random (the identity and the
    cocycle moved along) and its basis rotated by a Haar-random unitary."""
    rng = np.random.default_rng(seed)
    g, d = rep.group, rep.dim
    perm = rng.permutation(g.order)  # element i gets label perm[i]
    mult = np.empty_like(g.mult)
    mult[np.ix_(perm, perm)] = perm[g.mult]
    alpha = np.empty_like(rep.cocycle.values)
    alpha[np.ix_(perm, perm)] = rep.cocycle.values
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    u = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    mats = np.empty_like(rep.matrices)
    mats[perm] = u @ rep.matrices @ u.conj().T
    group = build_from_mult_table(mult)
    return Representation(group=group, dim=d, matrices=mats,
                          cocycle=TwoCocycle(group, alpha))


@pytest.mark.parametrize("name", ["S3xS3:stdXstd", "S3xPauli", "Pauli2", "S3xPauli:moved"])
def test_masks_match_the_solved_centralizer_and_center(name):
    """Every closed sum's mask centralizer S' and mask center S meet S' equal
    what ``centralizer`` and ``center`` solve for; a sum holds I exactly when
    it holds the scalar component; each central simple entry's memoized
    partner and center equal fresh solves."""
    rep = _factor_rep(name.split(":moved")[0])
    if name.endswith(":moved"):
        rep = _rotated(rep, 11)
    table = invalg.factor._isotypic_table(rep, 1e-8)
    assert table.certified

    def space(mask):
        if not mask:
            return MatrixSubspace.zero(rep.dim)
        return table.sum_space(mask, 1e-8)

    closed = invalg.factor._closed_sets(table.reach)
    assert space(1 << table.scalar).equals(MatrixSubspace.identity_line(rep.dim))
    for mask in closed:
        sp = space(mask)
        partner = table.centralizer_mask(mask)
        assert space(partner).equals(centralizer(sp))
        assert space(mask & partner).equals(center(sp))
        assert sp.contains_identity(1e-7) == bool(mask >> table.scalar & 1)
    subs, _ = invalg.factor.central_simple_invariant_subalgebras(rep)
    for sp in subs:
        fresh = MatrixSubspace(sp.flat, sp.shape)
        assert centralizer(sp).equals(centralizer(fresh))
        assert center(sp).equals(center(fresh)) and center(sp).dim == 1


# -- one extraction per dual pair -------------------------------------------------------


def _factor_rep(name):
    if name == "S3xPauli":
        return outer("S3:std", "C2xC2:pauli")
    if name == "Pauli2":
        return outer("C2xC2:pauli", "C2xC2:pauli")
    return catalog.get(*name.split(":"))[1]


@pytest.mark.parametrize("name", ["S3xPauli", "S3xS3:stdXstd", "Q8:std", "S3:triv"])
def test_factor_extracts_each_dual_pair_once(name, solves, monkeypatch):
    """One extraction per unordered pair (the scalar line of d = 1 is its own
    partner).  A scanned list's partners are memoized by the search, so no
    centralizer is solved; a list read off the theorem (d of 1 or prime)
    solves one per entry: B's to find its partner and the partner's for the
    double centralizer, with no fresh solve on top."""
    rep = _factor_rep(name)
    extracted = []
    extract = invalg.factor.extract_factorization

    def counted(sp, *args, **kwargs):
        extracted.append(sp)
        return extract(sp, *args, **kwargs)

    monkeypatch.setattr(invalg.factor, "extract_factorization", counted)
    subs, certified = invalg.factor.central_simple_invariant_subalgebras(rep)
    assert certified and solves["centralizer"] == 0
    facts = invalg.factor.factor(subs, rep)
    pairs = {frozenset((id(f.b_space), id(f.z_space))) for f in facts}
    assert len(extracted) == len(pairs) == (len(subs) + 1) // 2
    assert solves["centralizer"] == (len(subs) if rep.dim in (1, 2) else 0)
    assert [f.b_space for f in facts] == subs
    if rep.dim == 1:
        assert len(subs) == 1 and facts[0].z_space is subs[0]


def test_factor_raises_when_a_partner_is_missing():
    rep = _factor_rep("S3xS3:stdXstd")
    subs, _ = invalg.factor.central_simple_invariant_subalgebras(rep)
    dropped = [sp for sp in subs if sp.dim != 16]
    with pytest.raises(invalg.AssertionFailure, match=r"centralizer of entry 0 \(dim 16\)"):
        invalg.factor.factor(dropped, rep)
