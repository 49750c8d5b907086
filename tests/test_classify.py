"""Classification of invariant subalgebras through induction data."""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import invalg.algebras
import invalg.classify
from invalg import catalog
from invalg import (AssertionFailure, InfiniteLattice, MatrixSubspace, SubspaceOfV,
                    central_simple_invariant_subalgebras, centralizer,
                    enumerate_invariant_subalgebras, induction_pairs, invariant_ideals,
                    invariant_subspaces, is_induced_from, nonunital_scan, theta,
                    theta_lattice_check, theta_transitivity_check,
                    verify_classification, wedderburn_decompose)
from invalg.classify import InductionDatum
from invalg.factor import factor
from invalg.groups import build_from_mult_table, conjugacy_classes
from invalg.reps import Representation

# expected (sorted subalgebra dims, classification certified) per catalog input;
# frozen against the independent subset-scan oracle in test_factor.py
EXPECTED = {
    ("S3", "std"): ([1, 2, 4], True),
    ("Q8", "std"): ([1, 2, 2, 2, 4], True),
    ("D4", "std"): ([1, 2, 2, 2, 4], True),
    ("A4", "std3"): ([1, 3, 9], True),  # every W has dimension 1 or 3, a prime
    ("S4", "std3"): ([1, 3, 9], True),
    ("SL23", "std"): ([1, 4], True),
    ("S3xS3", "stdXstd"): ([1, 2, 2, 2, 4, 4, 4, 4, 4, 8, 8, 8, 16], True),
}

# (subgroup order, constituent dim) of every induction pair, |H| ascending
EXPECTED_PAIRS = {
    ("S3", "std"): [(3, 1), (6, 2)],
    ("Q8", "std"): [(4, 1), (4, 1), (4, 1), (8, 2)],
    ("D4", "std"): [(4, 1), (4, 1), (4, 1), (8, 2)],
    ("A4", "std3"): [(4, 1), (12, 3)],
    ("S4", "std3"): [(8, 1), (24, 3)],
    ("SL23", "std"): [(24, 2)],  # primitive: no proper inducing subgroup
    ("S3xS3", "stdXstd"): [(9, 1), (18, 2), (18, 2), (18, 2), (36, 4)],
}


@pytest.mark.parametrize("key,rep_name", sorted(EXPECTED))
def test_induction_pairs(key, rep_name):
    g, rep = catalog.get(key, rep_name)
    pairs = induction_pairs(rep)
    got = [(p.subgroup.order, p.w_rep.dim) for p in pairs]
    assert got == EXPECTED_PAIRS[(key, rep_name)]
    for p in pairs:
        assert p.subgroup.order * rep.dim == p.subgroup.parent.order * p.w_rep.dim
        assert is_induced_from(rep, p.subgroup, p.w_rep)
        # the copy projector commutes with the restricted action and has the
        # right rank
        q = p.copy_projector
        assert abs(np.trace(q).real - p.w_rep.dim) < 1e-8
        for m in rep.matrices[list(p.subgroup.members)]:
            assert np.linalg.norm(m @ q - q @ m) < 1e-8
    # the trivial datum (G, V) is always present, listed last
    assert pairs[-1].subgroup.order == g.order


def test_induction_pairs_checks_induction(monkeypatch):
    """The induced-character check is an exception, so ``python -O`` keeps it."""
    _, rep = catalog.get("S3", "std")
    monkeypatch.setattr(invalg.classify, "is_induced_from", lambda *args: False)
    with pytest.raises(AssertionFailure):
        induction_pairs(rep)


@pytest.mark.parametrize("key,rep_name", sorted(EXPECTED))
def test_enumeration_dims(key, rep_name):
    _, rep = catalog.get(key, rep_name)
    subs, complete = enumerate_invariant_subalgebras(rep)
    dims, certified = EXPECTED[(key, rep_name)]
    assert [s.dim for s in subs] == dims
    assert complete == certified
    for s in subs:
        assert s.unital
        assert s.dim == sum(k * k for k in s.component_dims)
        if s.induction_datum is not None:
            index = s.induction_datum.pair.subgroup.index
            assert s.num_components == index


@pytest.mark.parametrize("key,rep_name", [("S3", "std"), ("Q8", "std")])
def test_enumeration_any_identity_label(key, rep_name):
    """The answer does not depend on which label the identity carries.

    For each non-identity class, one of its elements swaps labels with the
    identity; the enumeration must still find the catalog's subalgebras.
    """
    g, rep = catalog.get(key, rep_name)
    dims, certified = EXPECTED[(key, rep_name)]
    for cls in conjugacy_classes(g):
        x = cls[0]
        if x == g.identity:
            continue
        perm = np.arange(g.order)  # element i gets label perm[i]
        perm[[g.identity, x]] = [x, g.identity]
        mult = np.empty_like(g.mult)
        mult[np.ix_(perm, perm)] = perm[g.mult]
        mats = np.empty_like(rep.matrices)
        mats[perm] = rep.matrices
        moved = Representation(group=build_from_mult_table(mult), dim=rep.dim,
                               matrices=mats)
        assert moved.group.identity == x
        subs, complete = enumerate_invariant_subalgebras(moved)
        assert [s.dim for s in subs] == dims
        assert complete == certified


RELABEL_INPUTS = [("S3", "std"), ("Q8", "std"), ("D4", "std"), ("A4", "std3"),
                  ("S3xS3", "stdXstd")]


@functools.lru_cache(maxsize=None)
def _catalog_enumeration(key, rep_name):
    _, rep = catalog.get(key, rep_name)
    return enumerate_invariant_subalgebras(rep)


def _unrelabelled(key, rep_name):
    subs, complete = _catalog_enumeration(key, rep_name)
    return [s.space.fingerprint() for s in subs], complete


@pytest.mark.parametrize("key,rep_name", RELABEL_INPUTS)
@given(data=st.data())
@settings(max_examples=5, deadline=None)
def test_enumeration_any_labelling(key, rep_name, data):
    """Any relabelling of the elements gives the same subalgebras in order.

    The greedy generating set depends on the labels; the answer must not.
    """
    g, rep = catalog.get(key, rep_name)
    perm = np.array(data.draw(st.permutations(range(g.order))))
    mult = np.empty_like(g.mult)
    mult[np.ix_(perm, perm)] = perm[g.mult]
    mats = np.empty_like(rep.matrices)
    mats[perm] = rep.matrices
    moved = Representation(group=build_from_mult_table(mult), dim=rep.dim,
                           matrices=mats)
    subs, complete = enumerate_invariant_subalgebras(moved)
    assert ([s.space.fingerprint() for s in subs], complete) == \
        _unrelabelled(key, rep_name)


def _skews(d):
    """Non-unitary basis changes ``diag(1..d) + A/2`` of V, with the real and
    imaginary parts of A in [-1, 1] and condition number below 100."""
    parts = st.lists(st.floats(-1, 1), min_size=2 * d * d, max_size=2 * d * d)
    return parts.map(lambda v: np.diag(np.arange(1.0, d + 1))
                     + 0.5 * np.array(v).view(complex).reshape(d, d)).filter(
                         lambda t: np.linalg.cond(t) < 100)


def _conjugated(rep, t):
    """``rep`` in the basis ``T rho T^-1``; the cocycle does not change."""
    return Representation(group=rep.group, dim=rep.dim, cocycle=rep.cocycle,
                          matrices=t @ rep.matrices @ np.linalg.inv(t))


@pytest.mark.parametrize("key,rep_name", RELABEL_INPUTS)
@given(data=st.data())
@settings(max_examples=5, deadline=None)
def test_enumeration_any_basis(key, rep_name, data):
    """A non-unitary basis change T of V carries each subalgebra B to T B T^-1.

    Entries of one dimension are sorted by fingerprint, which moves with the
    basis (and its 9-digit rounding can split equal spaces), so each image is
    matched by subspace equality.
    """
    _, rep = catalog.get(key, rep_name)
    t = data.draw(_skews(rep.dim))
    subs, complete = enumerate_invariant_subalgebras(_conjugated(rep, t))
    want, want_complete = _catalog_enumeration(key, rep_name)
    assert complete == want_complete
    assert [s.dim for s in subs] == [s.dim for s in want]
    t_inv = np.linalg.inv(t)
    for b in want:
        image = MatrixSubspace.from_spanning(t @ b.space.basis() @ t_inv)
        assert sum(image.equals(s.space) for s in subs) == 1


@pytest.mark.parametrize("key,rep_name", [("S3", "std"), ("Q8", "std"),
                                          ("S3xS3", "stdXstd"), ("C2xC2", "pauli")])
@given(data=st.data())
@settings(max_examples=5, deadline=None)
def test_factorizations_any_basis(key, rep_name, data):
    """The dual pairs (a, b) and the certificate do not see a basis change."""
    _, rep = catalog.get(key, rep_name)

    def pairs(r):
        cs_list, certified = central_simple_invariant_subalgebras(r)
        return [(f.a, f.b) for f in factor(cs_list, r)], certified

    assert pairs(_conjugated(rep, data.draw(_skews(rep.dim)))) == pairs(rep)


@pytest.mark.parametrize("key,rep_name", RELABEL_INPUTS)
@given(data=st.data())
@settings(max_examples=5, deadline=None)
def test_verify_classification_any_basis(key, rep_name, data):
    _, rep = catalog.get(key, rep_name)
    moved = _conjugated(rep, data.draw(_skews(rep.dim)))
    subs, _ = enumerate_invariant_subalgebras(moved)
    assert verify_classification(subs, moved).ok


@pytest.mark.parametrize("key,rep_name", [("S3", "trivPlusSign"), ("S3", "trivPlusSignPlusStd"),
                                          ("A4", "std3")])
@given(data=st.data())
@settings(max_examples=5, deadline=None)
def test_ideals_any_basis(key, rep_name, data):
    """A non-unitary basis change T of V carries each invariant subspace U to
    T U, and the left and right ideal lattices keep their counts and dims."""
    _, rep = catalog.get(key, rep_name)
    t = data.draw(_skews(rep.dim))
    moved = _conjugated(rep, t)
    want, got = invariant_subspaces(rep), invariant_subspaces(moved)
    assert [u.dim for u in got] == [u.dim for u in want]
    for u in want:
        image = SubspaceOfV.from_columns(rep.dim, t @ u.basis)
        assert sum(image.equals(v) for v in got) == 1
    for side in ("left", "right"):
        assert ([i.dim for i in invariant_ideals(moved, side)]
                == [i.dim for i in invariant_ideals(rep, side)])


@given(data=st.data())
@settings(max_examples=5, deadline=None)
def test_infinite_ideal_lattice_any_basis(data):
    _, rep = catalog.get("S3", "regular")
    moved = _conjugated(rep, data.draw(_skews(rep.dim)))
    assert invariant_subspaces(moved) == invariant_subspaces(rep)
    with pytest.raises(InfiniteLattice):
        invariant_ideals(moved, "left")


@pytest.mark.parametrize("key,rep_name", sorted(EXPECTED))
def test_verify_classification_clean(key, rep_name):
    _, rep = catalog.get(key, rep_name)
    subs, _ = enumerate_invariant_subalgebras(rep)
    report = verify_classification(subs, rep)
    assert report.ok
    assert report.violations == []
    assert report.checked == len(subs)


def test_verify_classification_reports_unclosed_entry():
    """The span of a rotation generator J is invariant, but J^2 = -I."""
    _, rep = catalog.get("S3", "std")
    j_line = MatrixSubspace.from_spanning([np.array([[0.0, -1.0], [1.0, 0.0]])])
    report = verify_classification([j_line], rep)
    assert report.violations == [
        "entry 0 (dim 1): ValueError: subspace is not closed under products"]


def test_verify_classification_propagates_bugs(monkeypatch):
    """Only domain errors become violations; a TypeError is a bug."""
    _, rep = catalog.get("S3", "std")
    subs, _ = enumerate_invariant_subalgebras(rep)

    def broken(*args, **kwargs):
        raise TypeError("injected")

    # the symmetric-embedding check, fed the entry's partner in the list
    monkeypatch.setattr(invalg.classify, "_symmetric_embedding", broken)
    with pytest.raises(TypeError, match="injected"):
        verify_classification(subs, rep)


def test_theta_cartan_from_rotation_datum():
    """The invariant Cartan in the 2-dim rep comes from the index-2 datum."""
    _, rep = catalog.get("S3", "std")
    pairs = induction_pairs(rep)
    c3_pair = pairs[0]
    assert c3_pair.subgroup.order == 3
    assert c3_pair.w_rep.dim == 1
    datum = InductionDatum(pair=c3_pair, c_space=MatrixSubspace.full((1, 1)))
    cartan = theta(datum, rep)
    assert cartan.dim == 2
    assert list(cartan.component_dims) == [1, 1]
    # self-dual: the Cartan is its own centralizer
    assert centralizer(cartan.space).equals(cartan.space)


def test_theta_dimension_law():
    """dim Theta(C) = [G:H] * dim C on every induction pair."""
    _, rep = catalog.get("S3xS3", "stdXstd")
    for pair in induction_pairs(rep):
        w = pair.w_rep.dim
        full = theta(InductionDatum(pair, MatrixSubspace.full((w, w))), rep)
        assert full.dim == pair.subgroup.index * w * w
        line = theta(InductionDatum(pair, MatrixSubspace.identity_line(w)), rep)
        assert line.dim == pair.subgroup.index


def test_theta_respects_lattice_ops():
    _, rep = catalog.get("S3xS3", "stdXstd")
    pair = induction_pairs(rep)[-1]  # (G, V) itself
    w = pair.w_rep.dim
    inner, _ = enumerate_invariant_subalgebras(pair.w_rep)
    smalls = [s.space for s in inner if s.dim in (2, 4)][:3]
    for i, c1 in enumerate(smalls):
        for c2 in smalls[i + 1:]:
            report = theta_lattice_check(pair, c1, c2, rep)
            assert report.ok


def test_theta_transitivity():
    """Composing inductions along a subgroup chain lands on a direct datum."""
    _, rep = catalog.get("S3xS3", "stdXstd")
    report = theta_transitivity_check(rep)
    assert report.ok
    assert report.checked == 6


def test_theta_transitivity_no_chains():
    # S3 std has a single proper pair whose constituent is 1-dim: no chains
    _, rep = catalog.get("S3", "std")
    report = theta_transitivity_check(rep)
    assert report.ok
    assert report.checked == 0


@pytest.mark.parametrize("key,rep_name", sorted(EXPECTED))
def test_nonunital_scan(key, rep_name):
    _, rep = catalog.get(key, rep_name)
    nonunital, certified = nonunital_scan(rep)
    # only the zero algebra: invariant subalgebras of End(V) are unital or zero
    assert [s.dim for s in nonunital] == [0]
    assert certified


def test_nonunital_scan_rejects_reducible():
    _, rep = catalog.get("S3", "trivPlusSign")
    with pytest.raises(ValueError):
        nonunital_scan(rep)


def test_enumeration_rejects_reducible():
    _, rep = catalog.get("S3", "trivPlusSign")
    with pytest.raises(Exception):
        enumerate_invariant_subalgebras(rep)


def test_quad_recorded_on_data():
    """Each enumerated entry records which (a, w/a) square split produced it."""
    _, rep = catalog.get("S3xS3", "stdXstd")
    subs, _ = enumerate_invariant_subalgebras(rep)
    for s in subs:
        datum = s.induction_datum
        if datum is None or datum.quad is None:
            continue
        a, b = datum.quad
        assert a * b == datum.pair.w_rep.dim


def test_block_span_rejects_dependent_translates():
    """A copy basis fixed by rho(t) up to scale gives translates on one line."""
    _, rep = catalog.get("S3", "std")
    pair = induction_pairs(rep)[0]
    assert pair.subgroup.index == 2 and pair.w_rep.dim == 1
    t = pair.transversal.reps[1]
    _, vecs = np.linalg.eig(rep.matrices[t])
    bad = dataclasses.replace(pair, copy_basis=vecs[:, :1])
    with pytest.raises(invalg.BlocksNotDirect, match="do not span independently"):
        invalg.classify._block_span(bad, MatrixSubspace.identity_line(1), rep)


def _theta_oracle(datum, v_rep):
    """Wedderburn data of the block span by two full spectral splits, as
    ``theta`` found them before it read them off the datum."""
    space = invalg.classify._block_span(datum.pair, datum.c_space, v_rep)[0]
    meta = wedderburn_decompose(space)
    c_meta = wedderburn_decompose(datum.c_space)
    assert sorted(meta.component_dims) == \
        sorted(c_meta.component_dims * datum.pair.subgroup.index)
    return meta


@pytest.mark.parametrize("key,rep_name", sorted(EXPECTED))
def test_theta_data_match_the_spectral_split(key, rep_name):
    _, rep = catalog.get(key, rep_name)
    subs, _ = enumerate_invariant_subalgebras(rep)
    for s in subs:
        oracle = _theta_oracle(s.induction_datum, rep)
        assert oracle.space.equals(s.space)
        assert s.unital == oracle.unital
        assert sorted(zip(s.component_dims, s.multiplicities)) == \
            sorted(zip(oracle.component_dims, oracle.multiplicities))
        # central primitive idempotents are unique: the same ones, one for one
        assert len(s.idempotents) == len(oracle.idempotents)
        for e in s.idempotents:
            assert min(np.linalg.norm(e - f) for f in oracle.idempotents) < 1e-8
        assert MatrixSubspace.from_spanning(s.idempotents).equals(
            MatrixSubspace.from_spanning(oracle.idempotents))


def _forbidden(*args, **kwargs):
    raise AssertionError("must not be called here")


def test_theta_runs_no_spectral_split(monkeypatch):
    _, rep = catalog.get("S3xS3", "stdXstd")
    pairs = induction_pairs(rep)
    monkeypatch.setattr(invalg.classify, "wedderburn_decompose", _forbidden)
    monkeypatch.setattr(invalg.algebras, "_spectral_split", _forbidden)
    for pair in pairs:
        w, l = pair.w_rep.dim, pair.subgroup.index
        for c_space, a in ((MatrixSubspace.identity_line(w), 1),
                           (MatrixSubspace.full((w, w)), w)):
            b = theta(InductionDatum(pair, c_space), rep)
            assert (b.component_dims, b.multiplicities) == ([a] * l, [w // a] * l)
            assert len(b.idempotents) == l


def test_theta_rejects_a_c_that_is_not_m_a():
    _, rep = catalog.get("S3", "std")
    pair = induction_pairs(rep)[-1]  # (G, V), W = V of dim 2
    cartan = MatrixSubspace.from_spanning([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    with pytest.raises(ValueError, match="not M_a"):
        theta(InductionDatum(pair, cartan), rep)


def _corruptions(idems):
    """Corrupted copies of an entry's idempotents: two merged, one replaced
    by a generic conjugate (not central), one dropped.  When the first two
    have equal ranks, three more are each caught by one clause of the
    certificate alone: two averaged (not idempotent), one zeroed into the
    other (rank 0), one duplicated (not summing to I).  Last, all conjugated
    by g: a complete orthogonal system outside the center."""
    g = np.random.default_rng(0).standard_normal(idems[0].shape) + np.eye(len(idems[0]))
    e, f, rest = idems[0], idems[1], list(idems[2:])
    return {"merged": [e + f] + rest,
            "non-central": [g @ e @ np.linalg.inv(g), f] + rest,
            "dropped": [f] + rest,
            "averaged": [(e + f) / 2, (e + f) / 2] + rest,
            "zeroed": [e + f, 0 * f] + rest,
            "duplicated": [e, e] + rest,
            "conjugated": list(g @ np.asarray(idems) @ np.linalg.inv(g))}


@pytest.mark.parametrize("key,rep_name", [("Q8", "std"), ("S3xS3", "stdXstd")])
def test_verify_certifies_each_entrys_idempotents(key, rep_name):
    """A corrupted idempotent list fails the certificate that the entry's
    idempotents split its partner: a violation of that entry alone."""
    _, rep = catalog.get(key, rep_name)
    subs, _ = enumerate_invariant_subalgebras(rep)
    tried = 0
    for idx, entry in enumerate(subs):
        if len(entry.idempotents) < 2:
            continue
        assert len({round(np.trace(e).real) for e in entry.idempotents}) == 1
        label = f"entry {idx} (dim {entry.dim})"
        for how, idems in _corruptions(entry.idempotents).items():
            bad = dataclasses.replace(entry, idempotents=idems)
            report = verify_classification(subs[:idx] + [bad] + subs[idx + 1:], rep)
            assert report.violations == [
                f"{label}: AssertionFailure: the algebra's idempotents are not "
                "the centralizer's central primitive ones"], how
            tried += 1
    assert tried >= 3


@pytest.mark.parametrize("key,rep_name", [("Q8", "std"), ("S3xS3", "stdXstd")])
def test_verify_reports_a_missing_partner(key, rep_name):
    """Without its partner an entry is checked against the fresh centralizer
    and reports only the missing entry."""
    _, rep = catalog.get(key, rep_name)
    subs, _ = enumerate_invariant_subalgebras(rep)
    entry = next(s for s in subs if not centralizer(s.space).equals(s.space))
    rest = [s for s in subs if not s.space.equals(centralizer(entry.space))]
    assert len(rest) == len(subs) - 1
    report = verify_classification(rest, rep)
    label = f"entry {[s is entry for s in rest].index(True)} (dim {entry.dim})"
    assert report.violations == [f"{label}: centralizer missing from the list"]


@pytest.mark.parametrize("key,rep_name", sorted(EXPECTED))
def test_verify_bare_spaces_clean(key, rep_name):
    """Bare spaces take their idempotents from the spectral split."""
    _, rep = catalog.get(key, rep_name)
    subs, _ = enumerate_invariant_subalgebras(rep)
    assert verify_classification([s.space for s in subs], rep).ok


def test_verify_reports_a_wrong_recorded_pair():
    """An entry recorded under another pair's datum: its center is not that
    pair's scalar-block span."""
    _, rep = catalog.get("S3xS3", "stdXstd")
    subs, _ = enumerate_invariant_subalgebras(rep)
    assert verify_classification(subs, rep).ok
    pairs = induction_pairs(rep)
    for idx, entry in enumerate(subs):
        datum = entry.induction_datum
        if datum.pair.subgroup.order != 18:
            continue
        other = next(p for p in pairs if p.subgroup.order == 18
                     and p.subgroup.members != datum.pair.subgroup.members)
        wrong = dataclasses.replace(entry, induction_datum=dataclasses.replace(
            datum, pair=other))
        report = verify_classification(subs[:idx] + [wrong] + subs[idx + 1:], rep)
        label = f"entry {idx} (dim {entry.dim})"
        assert f"{label}: center differs from the scalar-block span" in report.violations
        assert all(v.startswith(label) for v in report.violations)


def test_theta_checks_use_the_span_helper(monkeypatch):
    _, rep = catalog.get("S3xS3", "stdXstd")
    pair = induction_pairs(rep)[-1]
    inner, _ = enumerate_invariant_subalgebras(pair.w_rep)
    c1, c2 = [s.space for s in inner if s.dim in (2, 4)][:2]
    calls = []
    original = invalg.classify._block_span

    def counting(pair, c_space, *args, **kwargs):
        calls.append(c_space.dim)
        return original(pair, c_space, *args, **kwargs)

    monkeypatch.setattr(invalg.classify, "_block_span", counting)
    monkeypatch.setattr(invalg.classify, "theta", _forbidden)
    assert theta_lattice_check(pair, c1, c2, rep).ok
    assert sorted(calls) == sorted([c1.dim, c2.dim, c1.intersect(c2).dim])
    calls.clear()
    report = theta_transitivity_check(rep)
    assert report.ok and report.checked == 6
    assert calls


def test_a_large_tol_never_counts_the_zero_space_as_unital():
    """At tol = 0.1 the zero closed sum passed the identity test and became
    a divisor: S3 and Q8 still answer, the rest fail as a domain error."""
    for (key, rep_name), dims in [(("S3", "std"), [1, 2, 4]), (("Q8", "std"), [1, 2, 2, 2, 4])]:
        out, _ = enumerate_invariant_subalgebras(catalog.get(key, rep_name)[1], tol=0.1)
        assert sorted(b.space.dim for b in out) == dims
    for key, rep_name in [("S3xS3", "stdXstd"), ("A4", "std3")]:
        with pytest.raises((ValueError, invalg.InvalgError)):
            enumerate_invariant_subalgebras(catalog.get(key, rep_name)[1], tol=0.1)


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


def test_d250_at_the_order_cap():
    """Order 500: only index 1 and 2 can carry a pair, and the order-250
    subgroups' character tables are split in O(k^3)."""
    rep = _dihedral_std(250)
    out, complete = enumerate_invariant_subalgebras(rep)
    assert [b.space.dim for b in out] == [1, 2, 4] and complete
    assert verify_classification(out, rep).ok
