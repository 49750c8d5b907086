"""Classification of invariant subalgebras through induction data."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import invalg.classify
from invalg import catalog
from invalg import (AssertionFailure, MatrixSubspace, adjoint_rep, centralizer,
                    enumerate_invariant_subalgebras, induction_pairs,
                    is_induced_from, nonunital_scan, theta,
                    theta_lattice_check, theta_transitivity_check,
                    verify_classification)
from invalg.classify import InductionDatum
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
    pairs = induction_pairs(rep, seed=0)
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
        induction_pairs(rep, seed=0)


@pytest.mark.parametrize("key,rep_name", sorted(EXPECTED))
def test_enumeration_dims(key, rep_name):
    _, rep = catalog.get(key, rep_name)
    subs, complete = enumerate_invariant_subalgebras(rep, seed=0)
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
                               matrices=mats, unitary=rep.unitary)
        assert moved.group.identity == x
        subs, complete = enumerate_invariant_subalgebras(moved, seed=0)
        assert [s.dim for s in subs] == dims
        assert complete == certified


RELABEL_INPUTS = [("S3", "std"), ("Q8", "std"), ("D4", "std"), ("A4", "std3"),
                  ("S3xS3", "stdXstd")]


@functools.lru_cache(maxsize=None)
def _unrelabelled(key, rep_name):
    _, rep = catalog.get(key, rep_name)
    subs, complete = enumerate_invariant_subalgebras(rep, seed=0)
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
                           matrices=mats, unitary=rep.unitary)
    subs, complete = enumerate_invariant_subalgebras(moved, seed=0)
    assert ([s.space.fingerprint() for s in subs], complete) == \
        _unrelabelled(key, rep_name)


@pytest.mark.parametrize("key,rep_name", sorted(EXPECTED))
def test_verify_classification_clean(key, rep_name):
    _, rep = catalog.get(key, rep_name)
    subs, _ = enumerate_invariant_subalgebras(rep, seed=0)
    report = verify_classification(subs, rep, seed=0)
    assert report.ok
    assert report.violations == []
    assert report.checked == len(subs)


def test_verify_classification_reports_unclosed_entry():
    """The span of a rotation generator J is invariant, but J^2 = -I."""
    _, rep = catalog.get("S3", "std")
    j_line = MatrixSubspace.from_spanning([np.array([[0.0, -1.0], [1.0, 0.0]])])
    report = verify_classification([j_line], rep, seed=0)
    assert report.violations == [
        "entry 0 (dim 1): ValueError: subspace is not closed under products"]


def test_verify_classification_propagates_bugs(monkeypatch):
    """Only domain errors become violations; a TypeError is a bug."""
    _, rep = catalog.get("S3", "std")
    subs, _ = enumerate_invariant_subalgebras(rep, seed=0)

    def broken(*args, **kwargs):
        raise TypeError("injected")

    monkeypatch.setattr(invalg.classify, "is_symmetrically_embedded", broken)
    with pytest.raises(TypeError, match="injected"):
        verify_classification(subs, rep, seed=0)


def test_theta_cartan_from_rotation_datum():
    """The invariant Cartan in the 2-dim rep comes from the index-2 datum."""
    _, rep = catalog.get("S3", "std")
    pairs = induction_pairs(rep, seed=0)
    c3_pair = pairs[0]
    assert c3_pair.subgroup.order == 3
    assert c3_pair.w_rep.dim == 1
    datum = InductionDatum(pair=c3_pair, c_space=MatrixSubspace.full((1, 1)))
    cartan = theta(datum, rep, seed=0)
    assert cartan.dim == 2
    assert list(cartan.component_dims) == [1, 1]
    # self-dual: the Cartan is its own centralizer
    assert centralizer(cartan.space).equals(cartan.space)


def test_theta_dimension_law():
    """dim Theta(C) = [G:H] * dim C on every induction pair."""
    _, rep = catalog.get("S3xS3", "stdXstd")
    for pair in induction_pairs(rep, seed=0):
        w = pair.w_rep.dim
        full = theta(InductionDatum(pair, MatrixSubspace.full((w, w))), rep, seed=0)
        assert full.dim == pair.subgroup.index * w * w
        line = theta(InductionDatum(pair, MatrixSubspace.identity_line(w)), rep, seed=0)
        assert line.dim == pair.subgroup.index


def test_theta_respects_lattice_ops():
    _, rep = catalog.get("S3xS3", "stdXstd")
    pair = induction_pairs(rep, seed=0)[-1]  # (G, V) itself
    w = pair.w_rep.dim
    inner, _ = enumerate_invariant_subalgebras(pair.w_rep, seed=0)
    smalls = [s.space for s in inner if s.dim in (2, 4)][:3]
    for i, c1 in enumerate(smalls):
        for c2 in smalls[i + 1:]:
            report = theta_lattice_check(pair, c1, c2, rep, seed=0)
            assert report.ok


def test_theta_transitivity():
    """Composing inductions along a subgroup chain lands on a direct datum."""
    _, rep = catalog.get("S3xS3", "stdXstd")
    report = theta_transitivity_check(rep, seed=0)
    assert report.ok
    assert report.checked == 6


def test_theta_transitivity_no_chains():
    # S3 std has a single proper pair whose constituent is 1-dim: no chains
    _, rep = catalog.get("S3", "std")
    report = theta_transitivity_check(rep, seed=0)
    assert report.ok
    assert report.checked == 0


@pytest.mark.parametrize("key,rep_name", sorted(EXPECTED))
def test_nonunital_scan(key, rep_name):
    _, rep = catalog.get(key, rep_name)
    nonunital, certified = nonunital_scan(rep, seed=0)
    # only the zero algebra: invariant subalgebras of End(V) are unital or zero
    assert [s.dim for s in nonunital] == [0]
    assert certified


def test_nonunital_scan_rejects_reducible():
    _, rep = catalog.get("S3", "trivPlusSign")
    with pytest.raises(ValueError):
        nonunital_scan(rep, seed=0)


def test_enumeration_rejects_reducible():
    _, rep = catalog.get("S3", "trivPlusSign")
    with pytest.raises(Exception):
        enumerate_invariant_subalgebras(rep, seed=0)


def test_quad_recorded_on_data():
    """Each enumerated entry records which (a, w/a) square split produced it."""
    _, rep = catalog.get("S3xS3", "stdXstd")
    subs, _ = enumerate_invariant_subalgebras(rep, seed=0)
    for s in subs:
        datum = s.induction_datum
        if datum is None or datum.quad is None:
            continue
        a, b = datum.quad
        assert a * b == datum.pair.w_rep.dim
