"""Group construction, subgroup enumeration, transversals, conjugacy."""

import functools

import numpy as np
import pytest

from invalg import (CapExceeded, NotAGroup, all_subgroups,
                    are_conjugate_subgroups, build_from_mult_table,
                    build_from_permutations, catalog, conjugacy_classes,
                    direct_product, left_transversal)
from invalg.classify import _normalizer_members
from invalg.groups import Subgroup, subgroup_generated_by, subgroups_of_index_dividing


def _s3():
    return build_from_permutations([(1, 0, 2), (1, 2, 0)], name="S3")


def test_build_s3_basic():
    g = _s3()
    assert g.order == 6
    assert g.mult[g.identity, 4] == 4
    for x in g.elements():
        assert g.mult[x, g.inv[x]] == g.identity
        assert g.mult[g.inv[x], x] == g.identity


def test_build_rejects_non_group():
    table = np.zeros((3, 3), dtype=int)  # constant row: no identity
    with pytest.raises(NotAGroup):
        build_from_mult_table(table)


def test_build_rejects_non_associative():
    # a quasigroup (latin square) that is not associative
    table = np.array([[0, 1, 2, 3, 4],
                      [1, 0, 3, 4, 2],
                      [2, 4, 0, 1, 3],
                      [3, 2, 4, 0, 1],
                      [4, 3, 1, 2, 0]])
    with pytest.raises(NotAGroup):
        build_from_mult_table(table)


@pytest.mark.parametrize("table", [
    [[0, 1.7], [1, 0.2]], [[0.0, 1.0], [1.0, 0.0]], np.array([[0.0, 1.0], [1.0, 0.0]]),
    [[False, True], [True, False]], np.eye(2, dtype=bool)])
def test_build_rejects_non_integer_entries(table):
    """Casting to ``intp`` once read 1.7 as 1, 0.2 as 0 and a bool as 0 or 1."""
    with pytest.raises(NotAGroup, match="table entries must be integers"):
        build_from_mult_table(table)


@pytest.mark.parametrize("table", [[[0, 1], [1]], [[0, 1], [1, [0]]], [[0], [1, 0]]])
def test_build_rejects_a_ragged_table(table):
    """numpy's own ValueError about the inhomogeneous shape once escaped."""
    with pytest.raises(NotAGroup, match="rows are ragged"):
        build_from_mult_table(table)


@pytest.mark.parametrize("as_table", [np.array, np.ndarray.tolist, lambda m: m.astype(np.int8),
                                      lambda m: m.astype(np.uint16)],
                         ids=["intp", "list", "int8", "uint16"])
def test_mult_table_round_trip(as_table):
    g = _s3()
    h = build_from_mult_table(as_table(g.mult))
    assert h.order == g.order
    assert np.array_equal(h.mult, g.mult)
    assert h.identity == g.identity


def test_conjugacy_classes_s3():
    g = _s3()
    classes = conjugacy_classes(g)
    sizes = sorted(len(c) for c in classes)
    assert sizes == [1, 2, 3]
    assert sum(sizes) == 6


def test_all_subgroups_s3():
    g = _s3()
    subs = all_subgroups(g)
    # one per conjugacy class: 1, <transposition>, <3-cycle>, S3
    assert sorted(s.order for s in subs) == [1, 2, 3, 6]
    for s in subs:
        mem = set(s.members)
        for a in s.members:
            assert int(g.inv[a]) in mem
            for b in s.members:
                assert int(g.mult[a, b]) in mem


def test_all_subgroups_s4_count():
    g = build_from_permutations([(1, 0, 2, 3), (1, 2, 3, 0)], name="S4")
    subs = all_subgroups(g)
    # 11 conjugacy classes of subgroups of S4
    assert len(subs) == 11
    assert sorted(s.order for s in subs) == [1, 2, 2, 3, 4, 4, 4, 6, 8, 12, 24]


def test_all_subgroups_cap():
    n = 501
    mult = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    g = build_from_mult_table(mult)
    with pytest.raises(CapExceeded):
        all_subgroups(g)


def _dihedral(n):
    """D_n of order 2n: rotation i -> i + 1 and reflection i -> -i on n points."""
    return build_from_permutations([tuple((i + 1) % n for i in range(n)),
                                    tuple(-i % n for i in range(n))], name=f"D{n}")


def _oracle_closure(group, seed_elems):
    cur = np.unique(np.concatenate([[group.identity], np.asarray(seed_elems, dtype=np.intp)]))
    while True:
        new = np.union1d(cur, np.unique(group.mult[np.ix_(cur, cur)]))
        if new.size == cur.size:
            return new
        cur = new


def _oracle_subgroup_classes(group):
    """Brute force: every subgroup by layered closure, then grouped by conjugacy.

    Returns the least sorted conjugate of each class, sorted by (order, members).
    """
    all_sets = set()
    frontier = []
    for g in range(group.order):
        s = tuple(int(x) for x in _oracle_closure(group, [g]))
        if s not in all_sets:
            all_sets.add(s)
            frontier.append(s)
    while frontier:
        nxt = []
        for s in frontier:
            for x in sorted(set(range(group.order)) - set(s)):
                t = tuple(int(v) for v in _oracle_closure(group, list(s) + [x]))
                if t not in all_sets:
                    all_sets.add(t)
                    nxt.append(t)
        frontier = nxt
    reps = set()
    for s in all_sets:
        sarr = np.array(s, dtype=np.intp)
        reps.add(min(tuple(int(v) for v in np.sort(group.mult[group.mult[g, sarr], group.inv[g]]))
                     for g in range(group.order)))
    return sorted(reps, key=lambda s: (len(s), s))


def _oracle_groups():
    cat = catalog.catalog()
    out = {key: entry.group for key, entry in cat.items()}
    for n in (6, 10, 12, 15, 18, 24):
        out[f"D{n}"] = _dihedral(n)
    out["Q8xS3"] = direct_product(cat["Q8"].group, cat["S3"].group)
    return out


@pytest.mark.parametrize("name", sorted(_oracle_groups()))
def test_all_subgroups_matches_brute_force(name):
    g = _oracle_groups()[name]
    assert g.order <= 48
    assert [s.members for s in all_subgroups(g)] == _oracle_subgroup_classes(g)


def test_all_subgroups_known_class_counts():
    cat = catalog.catalog()
    s3, s4 = cat["S3"].group, cat["S4"].group
    a5 = build_from_permutations([(1, 2, 0, 3, 4), (0, 1, 3, 4, 2)], name="A5")
    s5 = build_from_permutations([(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)], name="S5")
    assert a5.order == 60 and s5.order == 120
    assert len(all_subgroups(a5)) == 9
    subs = all_subgroups(s5)
    assert len(subs) == 19
    # the perfect subgroup A5 is reached although it is no cyclic extension
    assert sum(s.order == 60 for s in subs) == 1
    assert len(all_subgroups(direct_product(s4, s3))) == 70
    assert len(all_subgroups(direct_product(direct_product(s3, s3), s3))) == 162


@functools.cache
def _index_sweep_groups():
    cat = catalog.catalog()
    s3, s4 = cat["S3"].group, cat["S4"].group
    out = {key: entry.group for key, entry in cat.items()}
    for n in range(3, 31):
        out[f"D{n}"] = _dihedral(n)
    out["S4xS3"] = direct_product(s4, s3)
    out["S3^3"] = direct_product(direct_product(s3, s3), s3)
    return out


@pytest.mark.parametrize("name", sorted(_index_sweep_groups()))
def test_index_sweep_is_the_filtered_lattice(name):
    """Sweeping from <g^L> gives exactly the classes of index dividing d, in
    the lattice's order and under the same representatives."""
    g = _index_sweep_groups()[name]
    every = [s.members for s in all_subgroups(g)]
    fresh = build_from_mult_table(g.mult)  # no cached lattice to filter
    for d in range(1, 17):
        got = [s.members for s in subgroups_of_index_dividing(fresh, d)]
        assert got == [m for m in every if d % (g.order // len(m)) == 0], d


def test_index_sweep_cap():
    n = 501
    g = build_from_mult_table((np.arange(n)[:, None] + np.arange(n)[None, :]) % n)
    with pytest.raises(CapExceeded):
        subgroups_of_index_dividing(g, 2)


def test_normalizers_s4_brute_force():
    g = catalog.catalog()["S4"].group
    for sub in all_subgroups(g):
        brute = [x for x in g.elements()
                 if sorted(g.conj(x, h) for h in sub.members) == list(sub.members)]
        assert list(_normalizer_members(g, sub)) == brute
        assert set(sub.members) <= set(brute)


def test_left_transversal_partitions():
    g = _s3()
    subs = all_subgroups(g)
    for s in subs:
        t = left_transversal(s)
        assert len(t.reps) == s.index
        assert t.reps[0] == g.identity
        seen = set()
        for r in t.reps:
            coset = {int(g.mult[r, h]) for h in s.members}
            assert not (coset & seen)
            seen |= coset
        assert seen == set(range(g.order))


def test_conjugate_subgroups():
    g = _s3()
    order2 = [s for s in all_subgroups(g) if s.order == 2]
    # representatives are per conjugacy class, so only one order-2 rep
    assert len(order2) == 1
    # but the three transposition subgroups are mutually conjugate
    transpositions = [x for x in g.elements()
                      if x != g.identity and g.mult[x, x] == g.identity]
    assert len(transpositions) == 3
    h1 = subgroup_generated_by(g, [transpositions[0]])
    h2 = subgroup_generated_by(g, [transpositions[1]])
    assert are_conjugate_subgroups(h1, h2)
    h3 = subgroup_generated_by(g, [g.mult[transpositions[0], transpositions[1]]])
    assert h3.order == 3
    assert not are_conjugate_subgroups(h1, h3)


def test_direct_product_order_and_structure():
    g = _s3()
    gg = direct_product(g, g)
    assert gg.order == 36
    # (a1,b1)*(a2,b2) = (a1 a2, b1 b2) in the (a * order + b) indexing
    a1, b1, a2, b2 = 2, 3, 4, 1
    lhs = gg.mult[a1 * 6 + b1, a2 * 6 + b2]
    assert lhs == g.mult[a1, a2] * 6 + g.mult[b1, b2]


def test_subgroup_as_group_embedding():
    g = _s3()
    s = next(s for s in all_subgroups(g) if s.order == 3)
    h = s.as_group()
    emb = s.embedding()
    for i in range(h.order):
        for j in range(h.order):
            assert emb[h.mult[i, j]] == g.mult[emb[i], emb[j]]


def test_generators_generate_within_log2_order():
    """Every group, however built, carries a greedy generating set.

    Each generator at least doubles the subgroup generated so far, so there
    are at most floor(log2 n) of them; the trivial group has none.
    """
    s3 = _s3()
    s3s3 = direct_product(s3, s3)
    groups = [e.group for e in catalog.catalog().values()]
    groups += [s3s3, direct_product(s3s3, s3)]
    for g in groups:
        for h in [g] + [sub.as_group() for sub in all_subgroups(g)]:
            gens = h.generators
            assert len(gens) <= h.order.bit_length() - 1
            assert subgroup_generated_by(h, gens).order == h.order
            assert h.generators is gens  # cached
            if h.order == 1:
                assert gens == ()


def test_word_layers_reach_every_element_once():
    """Past the generators, each element appears once, as its parent (from an
    earlier layer) times a generator; the layers are cached."""
    s3s3 = direct_product(_s3(), _s3())
    groups = [e.group for e in catalog.catalog().values()] + [s3s3]
    for g in groups:
        for h in [g] + [sub.as_group() for sub in all_subgroups(g)]:
            gens = np.array(h.generators, dtype=np.intp)
            reached = {h.identity, *gens.tolist()}
            for elems, parents, j in h.word_layers:
                assert np.array_equal(h.mult[parents, gens[j]], elems)
                assert set(parents.tolist()) <= reached
                assert not reached & set(elems.tolist())
                reached |= set(elems.tolist())
            assert reached == set(range(h.order))
            assert h.word_layers is h.word_layers


def test_subgroup_as_group_matches_the_parent():
    """The realized subgroup's tables are the parent's, renumbered by position."""
    for key in ("S4", "SL23", "S3xS3"):
        parent = catalog.get(key).group
        for sub in all_subgroups(parent):
            h = sub.as_group()
            emb = sub.embedding()
            assert np.array_equal(emb[h.mult], parent.mult[np.ix_(emb, emb)])
            assert np.array_equal(emb[h.inv], parent.inv[emb])
            assert emb[h.identity] == parent.identity


def test_generated_matches_a_set_closure():
    rng = np.random.default_rng(3)
    for key in ("S4", "SL23", "S3xS3", "D4"):
        g = catalog.get(key).group
        for _ in range(25):
            gens = [int(x) for x in rng.choice(g.order, size=rng.integers(1, 4))]
            closure = {g.identity}
            while True:
                grown = closure | {int(g.mult[a, b]) for a in closure for b in gens}
                if grown == closure:
                    break
                closure = grown
            assert subgroup_generated_by(g, gens).members == tuple(sorted(closure))
