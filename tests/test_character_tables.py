"""Character tables from class structure constants, and the class data."""

import time
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import invalg.reps
from invalg import catalog
from invalg.groups import (build_from_mult_table, build_from_permutations,
                           class_index_array, conjugacy_classes, direct_product)
from invalg.reps import character_table

W = np.exp(2j * np.pi / 3)

# Known tables: one (class size, element order) per column, one row per
# character.  Columns sharing a signature may appear in any order.
KNOWN = {
    "S3": ([(1, 1), (3, 2), (2, 3)],
           [[1, 1, 1], [1, -1, 1], [2, 0, -1]]),
    "Q8": ([(1, 1), (1, 2), (2, 4), (2, 4), (2, 4)],
           [[1, 1, 1, 1, 1], [1, 1, 1, -1, -1], [1, 1, -1, 1, -1],
            [1, 1, -1, -1, 1], [2, -2, 0, 0, 0]]),
    "D4": ([(1, 1), (1, 2), (2, 4), (2, 2), (2, 2)],
           [[1, 1, 1, 1, 1], [1, 1, 1, -1, -1], [1, 1, -1, 1, -1],
            [1, 1, -1, -1, 1], [2, -2, 0, 0, 0]]),
    "A4": ([(1, 1), (3, 2), (4, 3), (4, 3)],
           [[1, 1, 1, 1], [1, 1, W, W * W], [1, 1, W * W, W], [3, -1, 0, 0]]),
    "S4": ([(1, 1), (6, 2), (3, 2), (8, 3), (6, 4)],
           [[1, 1, 1, 1, 1], [1, -1, 1, 1, -1], [2, 0, 2, -1, 0],
            [3, 1, -1, 0, -1], [3, -1, -1, 0, 1]]),
    # columns: 1, -1, order 4, g and g^-1 of order 3, -g and -g^-1 of order 6
    "SL23": ([(1, 1), (1, 2), (6, 4), (4, 3), (4, 3), (4, 6), (4, 6)],
             [[1, 1, 1, 1, 1, 1, 1], [1, 1, 1, W, W * W, W, W * W],
              [1, 1, 1, W * W, W, W * W, W], [2, -2, 0, -1, -1, 1, 1],
              [2, -2, 0, -W, -W * W, W, W * W], [2, -2, 0, -W * W, -W, W * W, W],
              [3, 3, -1, 0, 0, 0, 0]]),
}


def _element_orders(group):
    orders = np.zeros(group.order, dtype=int)
    power = np.arange(group.order)
    for m in range(1, group.order + 1):
        orders[(power == group.identity) & (orders == 0)] = m
        if orders.all():
            return orders
        power = group.mult[power, np.arange(group.order)]
    raise AssertionError("element orders exceed the group order")


def _row_set(table):
    return sorted(tuple((round(v.real, 6) + 0.0, round(v.imag, 6) + 0.0) for v in row)
                  for row in np.asarray(table, dtype=complex))


def _table(group):
    return np.array([c.values for c in character_table(group)])


def _sorted_by_python_rounding(table, e):
    """Whether the rows ascend under the reference key: the degree, then the
    values rounded by Python's ``round`` to 8 places, real part first."""
    keys = [(round(row[e].real), tuple((round(v.real, 8), round(v.imag, 8)) for v in row))
            for row in table]
    return keys == sorted(keys)


@pytest.mark.parametrize("key", sorted(KNOWN))
def test_known_character_tables(key):
    group = catalog.get(key).group
    signatures, rows = KNOWN[key]
    orders = _element_orders(group)
    got = _table(group)
    cols = [(len(c), int(orders[c[0]])) for c in conjugacy_classes(group)]
    assert sorted(cols) == sorted(signatures)
    # some assignment of the program's classes to the known columns, with
    # equal signatures, makes the two row sets equal
    candidates = [[j for j, s in enumerate(cols) if s == sig] for sig in signatures]
    matches = [perm for perm in product(*candidates) if len(set(perm)) == len(perm)
               and _row_set(got[:, list(perm)]) == _row_set(rows)]
    assert matches
    # degrees ascend
    e = int(class_index_array(group)[group.identity])
    degrees = got[:, e].real
    assert list(degrees) == sorted(degrees)
    assert _sorted_by_python_rounding(got, e)


def _dihedral(n):
    return build_from_permutations(
        [tuple((i + 1) % n for i in range(n)), tuple((-i) % n for i in range(n))],
        name=f"D{n}")


def _cyclic(n):
    return build_from_mult_table((np.arange(n)[:, None] + np.arange(n)) % n)


def _dihedral_table(n):
    """D_n with ``k + n*e`` standing for ``r^k s^e`` (s r s = r^-1)."""
    k = np.arange(n)
    mult = np.empty((2 * n, 2 * n), dtype=np.intp)
    for e, f in product(range(2), repeat=2):
        rot = (k[:, None] + (-1) ** e * k[None, :]) % n
        mult[e * n:(e + 1) * n, f * n:(f + 1) * n] = rot + n * ((e + f) % 2)
    return build_from_mult_table(mult)


def _products(*degree_lists):
    return sorted(int(np.prod(p)) for p in product(*degree_lists))


S3_DEG, A4_DEG, S4_DEG = [1, 1, 2], [1, 1, 1, 3], [1, 1, 2, 3, 3]


def _large_group(name):
    """A fresh group (no cached table) and its degree multiset, ascending."""
    s3, a4, s4 = (catalog.get(k).group for k in ("S3", "A4", "S4"))
    return {
        "D60": lambda: (_dihedral(60), [1] * 4 + [2] * 29),
        "S5": lambda: (build_from_permutations([(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)]),
                       [1, 1, 4, 4, 5, 5, 6]),
        "S3^3": lambda: (direct_product(direct_product(s3, s3), s3),
                         _products(S3_DEG, S3_DEG, S3_DEG)),
        "A4xA4": lambda: (direct_product(a4, a4), _products(A4_DEG, A4_DEG)),
        "S4xS4": lambda: (direct_product(s4, s4, cap=576), _products(S4_DEG, S4_DEG)),
        "C250": lambda: (_cyclic(250), [1] * 250),
        "D250": lambda: (_dihedral_table(250), [1] * 4 + [2] * 124),
    }[name]()


@pytest.mark.parametrize("name", ["D60", "S5", "S3^3", "A4xA4", "S4xS4", "C250", "D250"])
def test_orthogonality_and_degrees(name):
    group, degrees = _large_group(name)
    start = time.perf_counter()
    table = _table(group)
    elapsed = time.perf_counter() - start
    sizes = np.array([len(c) for c in conjugacy_classes(group)])
    n = group.order
    k = len(sizes)
    assert table.shape == (k, k)
    # rows: sum_j |C_j| chi_a(r_j) conj(chi_b(r_j)) = |G| delta_ab
    np.testing.assert_allclose(table * sizes @ table.conj().T, n * np.eye(k), atol=1e-9)
    # columns: sum_a chi_a(r_j) conj(chi_a(r_l)) = |G| / |C_j| delta_jl
    np.testing.assert_allclose(table.conj().T @ table, np.diag(n / sizes), atol=1e-9)
    e = int(class_index_array(group)[group.identity])
    assert [int(round(d)) for d in table[:, e].real] == degrees
    assert _sorted_by_python_rounding(table, e)
    # the n x n class-sum split took 13.4 s at order 576, and a QR of the
    # (k^2, k) class-algebra stack 6.9 s at C250; this bound catches both
    assert elapsed < 2.0


def test_split_runs_on_the_class_algebra(monkeypatch):
    """The spectral split sees k x k matrices, never the n x n class sums."""
    shapes = []
    original = invalg.reps._spectral_split

    def recording(space, basis, *args):
        shapes.append(np.shape(basis))
        return original(space, basis, *args)

    monkeypatch.setattr(invalg.reps, "_spectral_split", recording)
    group, _ = _large_group("S3^3")
    character_table(group)
    k = len(conjugacy_classes(group))
    assert shapes == [(k, k, k)]


def _relabel(group, perm):
    """The group with element ``x`` renamed ``perm[x]``."""
    perm = np.asarray(perm)
    mult = np.empty_like(group.mult)
    mult[np.ix_(perm, perm)] = perm[group.mult]
    return build_from_mult_table(mult)


RELABEL_KEYS = ["S3", "Q8", "D4", "A4", "S4", "SL23", "S3xS3"]


@settings(max_examples=40, deadline=None)
@given(key=st.sampled_from(RELABEL_KEYS), data=st.data())
def test_relabelling_permutes_the_table(key, data):
    group = catalog.get(key).group
    perm = data.draw(st.permutations(range(group.order)))
    moved = _relabel(group, perm)
    assert moved.identity == perm[group.identity]
    old, new = _table(group), _table(moved)
    # new class i holds the images of old class cls[inv_perm[least member]]
    inv_perm = np.argsort(perm)
    old_cls = class_index_array(group)
    column_of = [int(old_cls[inv_perm[c[0]]]) for c in conjugacy_classes(moved)]
    assert sorted(column_of) == list(range(len(column_of)))
    back = np.empty_like(new)
    back[:, column_of] = new
    assert _row_set(back) == _row_set(old)
    e_old = int(old_cls[group.identity])
    e_new = int(class_index_array(moved)[moved.identity])
    assert list(new[:, e_new].real.round()) == list(old[:, e_old].real.round())


def _class_oracle(group):
    """Classes by a per-element loop, ordered by least member, and the index."""
    n = group.order
    classes, index = [], {}
    for x in range(n):
        if x in index:
            continue
        orbit = sorted({int(group.mult[group.mult[g, x], group.inv[g]]) for g in range(n)})
        for y in orbit:
            index[y] = len(classes)
        classes.append(tuple(orbit))
    return classes, [index[x] for x in range(n)]


def _oracle_groups():
    groups = [catalog.get(k).group for k in sorted(catalog.catalog())]
    groups += [_dihedral(12), _large_group("S5")[0]]
    rng = np.random.default_rng(5)
    groups += [_relabel(g, rng.permutation(g.order)) for g in groups[:6]]
    return groups


def test_conjugacy_classes_match_the_loop():
    for group in _oracle_groups():
        classes, index = _class_oracle(group)
        assert conjugacy_classes(group) == classes
        assert class_index_array(group).tolist() == index
        assert class_index_array(group).dtype == np.intp

