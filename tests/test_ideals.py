"""Invariant subspaces, annihilator ideals, and the lattice bijection."""

import numpy as np
import pytest

from invalg import catalog
from invalg.errors import AssertionFailure
from invalg.spaces import MatrixSubspace
from invalg import (InfiniteLattice, Parametrization, SubspaceOfV, ann, coann,
                    hom_lattice, ideal_to_subspace, invariant_ideals,
                    invariant_subspaces, semisimple_ideal_lattice)


def _axis_subspace(d, *axes):
    cols = np.zeros((d, len(axes)), dtype=complex)
    for i, a in enumerate(axes):
        cols[a, i] = 1.0
    return SubspaceOfV.from_columns(d, cols)


def test_ann_dimension_and_vanishing():
    l = _axis_subspace(3, 0)
    ideal = ann(l)
    assert ideal.side == "left"
    assert ideal.space.dim == 3 * 2  # d_w * (d - k)
    v = np.array([1.0, 0.0, 0.0])
    for b in ideal.space.basis():
        assert np.linalg.norm(b @ v) < 1e-12
    ideal.verify()


def test_coann_dimension_and_range():
    l = _axis_subspace(3, 0, 2)
    ideal = coann(l)
    assert ideal.side == "right"
    assert ideal.space.dim == 2 * 3  # k * d_v
    for b in ideal.space.basis():
        for col in b.T:
            assert np.linalg.norm(col - l.projector() @ col) < 1e-12
    ideal.verify()


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_ann_coann_dims_sum(k):
    """dim ann(L) + dim coann(L) = d^2 for every subspace dimension."""
    d = 4
    l = _axis_subspace(d, *range(k))
    assert ann(l).space.dim + coann(l).space.dim == d * d


def _loop_ann_coann(sub, other):
    """Spanning maps of ann and coann built one matrix unit at a time."""
    d, comp = sub.ambient, sub.complement()
    left, right = [], []
    for p in range(other):
        for q in range(comp.shape[1]):
            m = np.zeros((other, d), dtype=complex)
            m[p, :] = comp[:, q].conj()
            left.append(m)
    for p in range(sub.dim):
        for q in range(other):
            m = np.zeros((d, other), dtype=complex)
            m[:, q] = sub.basis[:, p]
            right.append(m)
    return left, right


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("other", [None, 2, 5])
@pytest.mark.parametrize("real", [False, True])
def test_kron_spans_are_the_loop_spans_bit_for_bit(k, other, real):
    """The Kronecker construction yields the loop's bases exactly."""
    rng = np.random.default_rng(k)
    cols = rng.normal(size=(4, k)) + (0 if real else 1j) * rng.normal(size=(4, k))
    sub = SubspaceOfV.from_columns(4, cols)
    left, right = _loop_ann_coann(sub, 4 if other is None else other)
    for ideal, mats in ((ann(sub, other), left), (coann(sub, other), right)):
        want = MatrixSubspace.from_spanning(mats, ideal.space.shape)
        assert np.array_equal(ideal.space.basis(), want.basis())


def test_round_trip_and_order_reversal():
    d = 4
    rng = np.random.default_rng(7)
    chain = []
    cols = rng.normal(size=(d, 3)) + 1j * rng.normal(size=(d, 3))
    for k in range(4):
        chain.append(SubspaceOfV.from_columns(d, cols[:, :k]))
    for l in chain:
        back = ideal_to_subspace(ann(l))
        assert back.equals(l)
        back2 = ideal_to_subspace(coann(l))
        assert back2.equals(l)
    for i, small in enumerate(chain):
        for big in chain[i:]:
            assert big.contains(small)
            assert ann(small).space.contains_space(ann(big).space)
            assert coann(big).space.contains_space(coann(small).space)


def test_invariant_subspaces_direct_sum():
    _, rep = catalog.get("S3", "trivPlusSign")
    spaces = invariant_subspaces(rep)
    assert [s.dim for s in spaces] == [0, 1, 1, 2]
    labels = [s.label for s in spaces]
    assert labels[0] == "0"
    assert "+" in labels[-1]
    for s in spaces:
        assert s.is_invariant(rep)


def test_invariant_subspace_counts_power_of_two():
    for rep_name, m in [("std", 1), ("trivPlusSign", 2), ("trivPlusSignPlusStd", 3)]:
        _, rep = catalog.get("S3", rep_name)
        spaces = invariant_subspaces(rep)
        assert len(spaces) == 2 ** m
        left = invariant_ideals(rep, "left")
        right = invariant_ideals(rep, "right")
        assert len(left) == 2 ** m
        assert len(right) == 2 ** m
        for ideal in left + right:
            ideal.verify()


def test_invariant_ideals_triv_plus_sign():
    _, rep = catalog.get("S3", "trivPlusSign")
    left = invariant_ideals(rep, "left")
    right = invariant_ideals(rep, "right")
    assert len(left) == 4 and len(right) == 4
    assert sorted(i.space.dim for i in left) == [0, 2, 2, 4]
    assert sorted(i.space.dim for i in right) == [0, 2, 2, 4]


def test_multiplicity_raises_infinite_lattice():
    _, rep = catalog.get("S3", "regular")  # std occurs twice
    with pytest.raises(InfiniteLattice):
        invariant_ideals(rep, "left")
    param = invariant_subspaces(rep)
    assert isinstance(param, Parametrization)
    assert not param.finite
    assert any(mult > 1 for _, mult, _ in param.factors)
    assert "subspaces of C^" in str(param)


def test_semisimple_ideal_lattice_products():
    _, std = catalog.get("S3", "std")
    _, triv = catalog.get("S3", "triv")
    lattice = semisimple_ideal_lattice([std, triv], "left")
    # two choices per block, so the counts multiply
    assert lattice.count == 4
    dims = sorted(s.dim for s in lattice)
    assert dims == [0, 1, 4, 5]
    # ann is order-reversing: picking the zero subspace in each block
    # materializes the whole block algebra
    assert lattice.materialize((0, 0)).dim == 5
    assert lattice.materialize((1, 1)).dim == 0


def test_hom_lattice_rectangular():
    _, v = catalog.get("S3", "trivPlusSign")
    _, w = catalog.get("S3", "std")
    homs = hom_lattice(v, w, "left")
    assert sorted(h.space.dim for h in homs) == [0, 2, 2, 4]
    for h in homs:
        assert h.space.shape == (2, 2)
    homs_r = hom_lattice(v, w, "right")
    assert sorted(h.space.dim for h in homs_r) == [0, 4]


def test_hom_lattice_checks_the_order_law(monkeypatch):
    """hom_lattice runs the order-law check of invariant_ideals."""
    _, v = catalog.get("S3", "trivPlusSign")
    _, w = catalog.get("S3", "std")
    monkeypatch.setattr(SubspaceOfV, "contains", lambda self, other, tol=0: True)
    for side in ("left", "right"):
        with pytest.raises(AssertionFailure, match="order"):
            hom_lattice(v, w, side)
        with pytest.raises(AssertionFailure, match="order"):
            invariant_ideals(v, side)
