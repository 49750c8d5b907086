"""Isotypic subset-scan oracle and tensor factor recovery."""

import itertools

import numpy as np
import pytest

import invalg.factor

from invalg import catalog
from invalg import (MatrixSubspace, NotCentralSimple, Representation,
                    TwoCocycle, centralizer,
                    central_simple_invariant_subalgebras, cocycle_consistency,
                    direct_product, enumerate_invariant_subalgebras,
                    extract_factorization, multfree_scan)
from invalg.factor import _closed_sets

from conftest import outer

IRREDUCIBLE = [("S3", "std"), ("Q8", "std"), ("D4", "std"), ("A4", "std3"),
               ("S4", "std3"), ("SL23", "std"), ("S3xS3", "stdXstd")]

SCAN_EXPECTED = {
    ("S3", "std"): ([1, 2, 4], True),
    ("Q8", "std"): ([1, 2, 2, 2, 4], True),
    ("D4", "std"): ([1, 2, 2, 2, 4], True),
    ("A4", "std3"): ([1, 3, 9], False),
    ("S4", "std3"): ([1, 3, 9], True),
    ("SL23", "std"): ([1, 4], True),
    ("S3xS3", "stdXstd"): ([1, 2, 2, 2, 4, 4, 4, 4, 4, 8, 8, 8, 16], True),
}


@pytest.mark.parametrize("key,rep_name", sorted(SCAN_EXPECTED))
def test_multfree_scan_dims(key, rep_name):
    _, rep = catalog.get(key, rep_name)
    unital, nonunital, certified = multfree_scan(rep)
    dims, cert = SCAN_EXPECTED[(key, rep_name)]
    assert [s.dim for s in unital] == dims
    assert certified == cert
    assert [s.dim for s in nonunital] == [0]
    for s in unital:
        assert s.is_product_closed()
        assert s.contains_identity()


def test_multfree_scan_projective_tensor():
    """Projective S3 std x Pauli: 27 closed sums out of 2^12 subsets."""
    s3, std = catalog.get("S3", "std")
    k4, pauli = catalog.get("C2xC2", "pauli")
    group = direct_product(s3, k4)
    mats = np.stack([np.kron(std.matrices[a], pauli.matrices[b])
                     for a in range(s3.order) for b in range(k4.order)])
    # alpha((a, b), (c, e)) = alpha_pauli(b, e)
    alpha = np.tile(pauli.cocycle.values, (s3.order, s3.order))
    rep = Representation(group=group, dim=4, matrices=mats,
                         cocycle=TwoCocycle(group, alpha))
    unital, nonunital, certified = multfree_scan(rep)
    assert [s.dim for s in unital] == [1] + [2] * 7 + [4] * 11 + [8] * 7 + [16]
    assert [s.dim for s in nonunital] == [0]
    assert certified


def test_multfree_scan_non_unitary():
    """A non-unitary basis change moves every closed sum along with it."""
    _, rep = catalog.get("S3xS3", "stdXstd")
    rng = np.random.default_rng(7)
    t = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) + 2 * np.eye(4)
    t_inv = np.linalg.inv(t)
    moved = Representation(group=rep.group, dim=4,
                           matrices=np.einsum("ij,gjk,kl->gil", t, rep.matrices, t_inv))
    unital, _, certified = multfree_scan(rep)
    got, got_non, got_cert = multfree_scan(moved)
    assert [s.dim for s in got] == [s.dim for s in unital]
    assert [s.dim for s in got_non] == [0]
    assert got_cert and certified
    for s in unital:
        image = MatrixSubspace.from_spanning([t @ b @ t_inv for b in s.basis()])
        assert sum(image.equals(o) for o in got) == 1


def _closed_sets_walk(reach):
    """The 2^m subset walk the closure sweep replaced, as a set of masks."""
    m = len(reach)
    out = {0}
    for r in range(1, m + 1):
        for subset in itertools.combinations(range(m), r):
            outside = ~sum(1 << i for i in subset)
            if not any(reach[i][j] & outside for i in subset for j in subset):
                out.add(sum(1 << i for i in subset))
    return out


def _random_reach(rng, m, density):
    return [[sum(1 << k for k in range(m) if rng.random() < density)
             for _ in range(m)] for _ in range(m)]


def test_closed_sets_match_the_subset_walk():
    rng = np.random.default_rng(29)
    tables = []
    for m in range(13):
        tables.append([[0] * m for _ in range(m)])
        tables.append([[(1 << m) - 1] * m for _ in range(m)])
    for _ in range(374):
        m = int(rng.integers(1, 13))
        tables.append(_random_reach(rng, m, float(rng.choice([0.02, 0.08, 0.2, 0.5]))))
    for reach in tables:
        got = _closed_sets(reach)
        assert got[0] == 0
        assert len(set(got)) == len(got)
        assert set(got) == _closed_sets_walk(reach)
    # all-zero: every subset is closed; full: only the empty and full sets
    assert len(_closed_sets([[0] * 12] * 12)) == 2 ** 12
    assert sorted(_closed_sets([[2 ** 12 - 1] * 12] * 12)) == [0, 2 ** 12 - 1]


def test_closed_sets_of_a_group_table_are_its_subgroups():
    """reach[i][j] = {i xor j}: the closed sets are the empty set and the
    subgroups of F_2^n, counted by Gaussian binomials."""
    for n, subgroups in ((1, 2), (2, 5), (3, 16), (4, 67), (5, 374)):
        reach = [[1 << (i ^ j) for j in range(2 ** n)] for i in range(2 ** n)]
        assert len(_closed_sets(reach)) == subgroups + 1


def test_closed_sets_past_64_members():
    """A chain i -> i + 1 on 70 members: masks are Python ints past bit 63."""
    m = 70
    reach = [[(1 << i + 1 if i == j and i + 1 < m else 0) for j in range(m)]
             for i in range(m)]
    full = (1 << m) - 1
    assert sorted(_closed_sets(reach)) == sorted(
        [0] + [full & ~((1 << k) - 1) for k in range(m)])


def test_closed_sets_on_catalog_reach_tables(monkeypatch):
    tables = []

    def record(reach):
        tables.append(reach)
        return _closed_sets(reach)

    monkeypatch.setattr(invalg.factor, "_closed_sets", record)
    for key, entry in sorted(catalog.catalog().items()):
        for rep in entry.reps.values():
            multfree_scan(rep)
    assert len(tables) == 13
    for reach in tables:
        assert set(_closed_sets(reach)) == _closed_sets_walk(reach)


def test_multfree_scan_s3_cubed_is_certified():
    """S3^3 std x std x std: 27 components, past the old 2^20 subset cap."""
    rep = outer("S3:std", "S3:std", "S3:std")
    unital, nonunital, certified = multfree_scan(rep)
    assert len(unital) == 79
    assert [s.dim for s in nonunital] == [0]
    assert certified


def test_reach_masks_past_64_components(monkeypatch):
    """Pauli^3 has 64 one-dimensional components, and the product of two
    Pauli strings is one Pauli string up to phase: every reach entry is one
    bit, as a Python int, and every bit up to 63 occurs."""
    tables = []

    class Stop(Exception):
        pass

    def stop(reach):
        tables.append(reach)
        raise Stop

    monkeypatch.setattr(invalg.factor, "_closed_sets", stop)
    with pytest.raises(Stop):
        multfree_scan(outer("C2xC2:pauli", "C2xC2:pauli", "C2xC2:pauli"))
    (reach,) = tables
    assert len(reach) == 64
    entries = [r for row in reach for r in row]
    assert all(type(r) is int for r in entries)
    assert set(entries) == {1 << k for k in range(64)}
    # the closed sets of Pauli^2 are the empty set and the subgroups of F_2^4
    monkeypatch.setattr(invalg.factor, "_closed_sets", _closed_sets)
    unital, nonunital, certified = multfree_scan(
        outer("C2xC2:pauli", "C2xC2:pauli"))
    assert len(unital) == 67 and [s.dim for s in nonunital] == [0] and certified


@pytest.mark.parametrize("key,rep_name", sorted(SCAN_EXPECTED))
def test_scan_agrees_with_classifier(key, rep_name):
    """Independent routes: subset scan vs induction data, equal as sets."""
    _, rep = catalog.get(key, rep_name)
    unital, _, _ = multfree_scan(rep)
    subs, _ = enumerate_invariant_subalgebras(rep)
    assert len(unital) == len(subs)
    fps_scan = sorted(s.fingerprint() for s in unital)
    fps_cls = sorted(s.space.fingerprint() for s in subs)
    assert fps_scan == fps_cls


def test_central_simple_s3():
    _, rep = catalog.get("S3", "std")
    cs, certified = central_simple_invariant_subalgebras(rep)
    assert [s.dim for s in cs] == [1, 4]  # the Cartan has a 2-dim center
    assert certified


def test_central_simple_prime_dimension_certified():
    """A4 std3: the scan is not certified, but d = 3 admits only M_1 and M_3."""
    _, rep = catalog.get("A4", "std3")
    _, _, scan_certified = multfree_scan(rep)
    cs, certified = central_simple_invariant_subalgebras(rep)
    assert [s.dim for s in cs] == [1, 9]
    assert certified and not scan_certified


def test_central_simple_s3xs3():
    _, rep = catalog.get("S3xS3", "stdXstd")
    cs, certified = central_simple_invariant_subalgebras(rep)
    assert [s.dim for s in cs] == [1, 4, 4, 4, 4, 16]
    assert certified
    # closed under centralizer, forming dual pairs
    for s in cs:
        z = centralizer(s)
        assert any(z.equals(t) for t in cs)


def test_extract_factorization_s3xs3():
    """rho(g) = lambda_g sigma(g) x tau(g) over all 36 elements, per dual pair."""
    g, rep = catalog.get("S3xS3", "stdXstd")
    cs, _ = central_simple_invariant_subalgebras(rep)
    proper = [s for s in cs if 1 < s.dim < 16]
    assert len(proper) == 4
    for s in proper:
        fact = extract_factorization(s, rep)
        assert (fact.a, fact.b) == (2, 2)
        assert fact.residual < 1e-6
        assert fact.sigma.matrices.shape == (36, 2, 2)
        assert fact.tau.matrices.shape == (36, 2, 2)
        assert np.all(np.abs(fact.lambdas) > 1e-8)
        # the basis change conjugates B onto M_a x 1
        t, tinv = fact.basis_change, np.linalg.inv(fact.basis_change)
        for m in s.basis():
            moved = tinv @ m @ t
            kron_part = moved.reshape(2, 2, 2, 2)
            # must look like x tensor identity: [i,k,j,l] = x[i,j] delta[k,l]
            assert np.linalg.norm(kron_part[:, 0, :, 1]) < 1e-6
            assert np.linalg.norm(kron_part[:, 0, :, 0]
                                  - kron_part[:, 1, :, 1]) < 1e-6
        assert cocycle_consistency(fact, rep) < 1e-6


def test_extract_factorization_trivial_factor():
    """Factoring the full algebra itself gives the (d, 1) split."""
    _, rep = catalog.get("SL23", "std")
    fact = extract_factorization(MatrixSubspace.full((2, 2)), rep)
    assert (fact.a, fact.b) == (2, 1)
    assert fact.residual < 1e-6


def test_extract_factorization_projective():
    """The Pauli action of the Klein four-group factors with its cocycle."""
    _, rep = catalog.get("C2xC2", "pauli")
    fact_full = extract_factorization(MatrixSubspace.full((2, 2)), rep)
    assert (fact_full.a, fact_full.b) == (2, 1)
    assert fact_full.residual < 1e-6
    fact_line = extract_factorization(MatrixSubspace.identity_line(2), rep)
    assert (fact_line.a, fact_line.b) == (1, 2)
    assert fact_line.residual < 1e-6
    assert cocycle_consistency(fact_line, rep) < 1e-6
    # sigma is scalar, so tau inherits the projective twist
    assert fact_line.tau.cocycle is not None


def test_extract_factorization_rejects_cartan():
    _, rep = catalog.get("S3", "std")
    subs, _ = enumerate_invariant_subalgebras(rep)
    cartan = next(s for s in subs if s.dim == 2)
    with pytest.raises(NotCentralSimple):
        extract_factorization(cartan.space, rep)


def test_extract_factorization_rejects_nonsquare():
    _, rep = catalog.get("S3", "std")
    # a 3-dim product-closed invariant space cannot be a matrix algebra and
    # here we feed something that is not even product-closed
    bad = MatrixSubspace.from_spanning([np.eye(2), np.diag([1.0, 0.0]),
                                        np.array([[0.0, 1.0], [0.0, 0.0]])])
    with pytest.raises(NotCentralSimple):
        extract_factorization(bad, rep)
