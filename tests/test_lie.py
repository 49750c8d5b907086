"""Exact Weyl dimensions, tensor irreducibility, power-set classification."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import invalg.lie
from invalg import (CapExceeded, HighestWeight, NonIntegerDimension, RootSystem,
                    etingof_enumerate, tensor_irreducible, weyl_dim)
from invalg.cli import main
from invalg.lie import parse_product_type

POSITIVE_ROOT_COUNTS = {
    "A1": 1, "A2": 3, "A3": 6, "A4": 10,
    "B2": 4, "B3": 9, "B4": 16,
    "C2": 4, "C3": 9, "C4": 16,
    "D3": 6, "D4": 12,
    "G2": 6,
}

# classical dimension values, indexed by fundamental-weight coordinates
KNOWN_DIMS = {
    ("A2", (1, 0)): 3, ("A2", (0, 1)): 3, ("A2", (1, 1)): 8,
    ("A2", (2, 0)): 6, ("A2", (3, 0)): 10, ("A2", (2, 2)): 27,
    ("A3", (1, 0, 0)): 4, ("A3", (0, 1, 0)): 6, ("A3", (1, 0, 1)): 15,
    ("B2", (1, 0)): 5, ("B2", (0, 1)): 4, ("B2", (0, 2)): 10,
    ("B2", (1, 1)): 16, ("B2", (2, 0)): 14,
    ("B3", (1, 0, 0)): 7, ("B3", (0, 0, 1)): 8, ("B3", (0, 1, 0)): 21,
    ("C2", (1, 0)): 4, ("C2", (0, 1)): 5, ("C2", (2, 0)): 10,
    ("C3", (1, 0, 0)): 6, ("C3", (0, 1, 0)): 14, ("C3", (0, 0, 1)): 14,
    ("D3", (1, 0, 0)): 6, ("D3", (0, 1, 0)): 4, ("D3", (0, 0, 1)): 4,
    ("D4", (1, 0, 0, 0)): 8, ("D4", (0, 1, 0, 0)): 28,
    ("D4", (0, 0, 1, 0)): 8, ("D4", (0, 0, 0, 1)): 8,
    ("G2", (1, 0)): 7, ("G2", (0, 1)): 14, ("G2", (1, 1)): 64,
    ("G2", (2, 0)): 27,
}


@pytest.mark.parametrize("name,count", sorted(POSITIVE_ROOT_COUNTS.items()))
def test_positive_root_counts(name, count):
    rs = RootSystem.from_name(name)
    assert len(rs.positive_roots) == count
    assert len(rs.fundamental_weights2) == rs.rank


@pytest.mark.parametrize("bad", ["A0", "B1", "C1", "D2", "E6", "G3", "x2", "A"])
def test_rejects_bad_names(bad):
    with pytest.raises(ValueError):
        RootSystem.from_name(bad)


def test_weyl_dim_a1_line():
    rs = RootSystem.from_name("A1")
    for m in range(51):
        assert weyl_dim(HighestWeight(rs, (m,))) == m + 1


@pytest.mark.parametrize("name_coords,dim", sorted(KNOWN_DIMS.items()))
def test_weyl_dim_known_values(name_coords, dim):
    name, coords = name_coords
    rs = RootSystem.from_name(name)
    assert weyl_dim(HighestWeight(rs, coords)) == dim


def test_weyl_dim_trivial_weight():
    for name in POSITIVE_ROOT_COUNTS:
        rs = RootSystem.from_name(name)
        assert weyl_dim(HighestWeight(rs, (0,) * rs.rank)) == 1


def test_weyl_dim_exact_integers():
    """Large weights stay exact (no float in sight)."""
    rs = RootSystem.from_name("D4")
    d = weyl_dim(HighestWeight(rs, (20, 20, 20, 20)))
    assert isinstance(d, int)
    assert d % 1 == 0 and d > 10 ** 12


def test_highest_weight_validation():
    rs = RootSystem.from_name("A2")
    with pytest.raises(ValueError):
        HighestWeight(rs, (-1, 0))
    with pytest.raises(ValueError):
        HighestWeight(rs, (1,))
    # a float, string or bool coordinate is an error, not rounded or cast
    for bad in (1.5, 2.0, "2", True):
        with pytest.raises(ValueError, match="not an integer"):
            HighestWeight(rs, (1, bad))
    w = HighestWeight(rs, (np.int64(1), 2))
    assert not w.is_zero
    assert w.coords == (1, 2) and all(type(c) is int for c in w.coords)
    assert HighestWeight(rs, (0, 0)).is_zero


def test_tensor_irreducible_small_sweep():
    """V(lam) x V(mu) is irreducible iff one factor is trivial (rank <= 3)."""
    names = ["A1", "A2", "A3", "B2", "B3", "C2", "C3", "D3", "G2"]
    for name in names:
        rs = RootSystem.from_name(name)
        weights = [HighestWeight(rs, c)
                   for c in itertools.product(range(3), repeat=rs.rank)]
        for lam in weights:
            for mu in weights:
                assert tensor_irreducible(lam, mu) == (lam.is_zero or mu.is_zero)


def test_tensor_irreducible_rejects_cross_system():
    # factors on different systems belong to the product-group enumeration
    a1 = RootSystem.from_name("A1")
    g2 = RootSystem.from_name("G2")
    with pytest.raises(ValueError):
        tensor_irreducible(HighestWeight(a1, (3,)), HighestWeight(g2, (0, 0)))


def test_etingof_enumerate_two_sl2():
    a1 = RootSystem.from_name("A1")
    w = HighestWeight(a1, (1,))
    cls = etingof_enumerate([(a1, w), (a1, w)])
    assert [e.dim for e in cls.entries] == [1, 4, 4, 16]
    assert cls.count == 5  # 2^2 unital entries plus the zero algebra
    assert cls.total_dim == 16
    # complement duality: subset and complement dims multiply to the total
    for e in cls.entries:
        comp = tuple(i for i in cls.nonzero_indices if i not in e.subset)
        comp_dim = next(x.dim for x in cls.entries if x.subset == comp)
        assert e.dim * comp_dim == cls.total_dim


def test_etingof_enumerate_skips_trivial_factors():
    a1 = RootSystem.from_name("A1")
    cls = etingof_enumerate([(a1, HighestWeight(a1, (2,))),
                             (a1, HighestWeight(a1, (0,)))])
    assert [e.dim for e in cls.entries] == [1, 9]
    assert cls.count == 3
    assert cls.nonzero_indices == (0,)


def test_etingof_enumerate_three_factors():
    a1 = RootSystem.from_name("A1")
    a2 = RootSystem.from_name("A2")
    cls = etingof_enumerate([(a1, HighestWeight(a1, (1,))),
                             (a2, HighestWeight(a2, (1, 0))),
                             (a1, HighestWeight(a1, (3,)))])
    assert cls.count == 2 ** 3 + 1
    assert sorted(e.dim for e in cls.entries) == [1, 4, 9, 16, 36, 64, 144, 576]


def test_etingof_enumerate_all_nonzero_a1_power():
    a1 = RootSystem.from_name("A1")
    cls = etingof_enumerate([(a1, HighestWeight(a1, (k + 1,))) for k in range(8)])
    assert cls.count == 2 ** 8 + 1 == 257


def _boom(**kwargs):
    raise AssertionError("an entry was built")


@pytest.mark.parametrize("n", [17, 40])
def test_etingof_enumerate_caps_the_power_set(n, monkeypatch):
    """2^n entries for n > 16 nontrivial factors: refused before the first."""
    monkeypatch.setattr(invalg.lie, "SubalgebraEntry", _boom)
    a1 = RootSystem.from_name("A1")
    factors = [(a1, HighestWeight(a1, (1,)))] * n + [(a1, HighestWeight(a1, (0,)))] * 3
    with pytest.raises(CapExceeded, match=f"2\\^{n} "):
        etingof_enumerate(factors)


def test_power_set_cap_boundary(monkeypatch):
    monkeypatch.setattr(invalg.lie, "POWER_SET_CAP", 2 ** 3)
    a1 = RootSystem.from_name("A1")
    w = HighestWeight(a1, (1,))
    assert etingof_enumerate([(a1, w)] * 3).count == 9
    monkeypatch.setattr(invalg.lie, "SubalgebraEntry", _boom)
    with pytest.raises(CapExceeded):
        etingof_enumerate([(a1, w)] * 4)


@pytest.mark.parametrize("n", [17, 40])
def test_cli_power_set_cap_exits_2(n, monkeypatch, capsys):
    monkeypatch.setattr(invalg.lie, "SubalgebraEntry", _boom)
    code = main(["lie", "--type", "x".join(["A1"] * n), "--weights", ";".join(["[1]"] * n)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("limit exceeded:")


def test_parse_product_type():
    systems = parse_product_type("A1xB3xG2")
    assert [s.name for s in systems] == ["A1", "B3", "G2"]
    with pytest.raises(ValueError):
        parse_product_type("A1xZ9")


def _textbook_data(family, n):
    """Positive roots and fundamental weights in the epsilon basis.

    Bourbaki's planches, written out independently of ``invalg.lie``: type A
    uses traceless weights in n + 1 coordinates, G2 the plane x + y + z = 0.
    """
    half = Fraction(1, 2)

    def vec(*pairs, dim):
        v = [Fraction(0)] * dim
        for i, x in pairs:
            v[i] += x
        return v

    if family == "G":
        a1, a2 = vec((0, 1), (1, -1), dim=3), vec((0, -2), (1, 1), (2, 1), dim=3)
        comb = [(1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)]
        roots = [[p * x + q * y for x, y in zip(a1, a2)] for p, q in comb]
        return roots, [roots[3], roots[5]]  # 2a1 + a2, 3a1 + 2a2
    dim = n + 1 if family == "A" else n
    pairs = itertools.combinations(range(dim), 2)
    if family == "A":
        roots = [vec((i, 1), (j, -1), dim=dim) for i, j in pairs]
        weights = [vec(*[(k, 1 - Fraction(i + 1, dim)) for k in range(i + 1)],
                       *[(k, -Fraction(i + 1, dim)) for k in range(i + 1, dim)],
                       dim=dim) for i in range(n)]
        return roots, weights
    roots = [r for i, j in pairs
             for r in (vec((i, 1), (j, -1), dim=dim), vec((i, 1), (j, 1), dim=dim))]
    weights = [vec(*[(k, 1) for k in range(i + 1)], dim=dim) for i in range(n)]
    if family == "B":
        roots += [vec((i, 1), dim=dim) for i in range(n)]
        weights[n - 1] = vec(*[(k, half) for k in range(n)], dim=dim)
    elif family == "C":
        roots += [vec((i, 2), dim=dim) for i in range(n)]
    else:  # D
        weights[n - 2] = vec(*[(k, half) for k in range(n - 1)], (n - 1, -half),
                             dim=dim)
        weights[n - 1] = vec(*[(k, half) for k in range(n)], dim=dim)
    return roots, weights


def _textbook_dim(roots, weights, coords):
    """Weyl's formula prod <lam + rho, alpha> / <rho, alpha>, on vectors."""
    rho = [sum(col) for col in zip(*weights)]
    lam = [sum(c * w[k] for c, w in zip(coords, weights)) for k in range(len(rho))]
    num = den = 1
    for alpha in roots:
        num *= sum(a * (x + r) for a, x, r in zip(alpha, lam, rho))
        den *= sum(a * r for a, r in zip(alpha, rho))
    assert num % den == 0
    return num // den


ALL_TYPES = ([f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)]
             + [f"C{n}" for n in range(2, 9)] + [f"D{n}" for n in range(3, 9)]
             + ["G2"])


@pytest.mark.parametrize("name", ALL_TYPES)
def test_weyl_dim_matches_vector_formula(name):
    rs = RootSystem.from_name(name)
    roots, weights = _textbook_data(rs.family, rs.rank)
    assert len(roots) == len(rs.positive_roots)
    # clear denominators: scaling the weights scales both sides of the ratio
    scale = math.lcm(*(x.denominator for w in weights for x in w))
    weights = [[int(x * scale) for x in w] for w in weights]
    roots = [[int(x) for x in alpha] for alpha in roots]
    box = range(3) if rs.rank <= 4 else range(2)
    for coords in itertools.product(box, repeat=rs.rank):
        want = _textbook_dim(roots, weights, coords)
        assert weyl_dim(HighestWeight(rs, coords)) == want
        assert weyl_dim(HighestWeight(rs, coords)) == want  # from the memo


def test_weyl_dim_memo_is_per_system():
    """Each system memoizes its own dimensions; equality, hashing and repr
    ignore it and the pairing vectors."""
    first, second = RootSystem.from_name("B4"), RootSystem.from_name("B4")
    object.__setattr__(second, "columns", ())
    object.__setattr__(second, "rho_pairings", ())
    assert first == second and hash(first) == hash(second)
    assert repr(first) == repr(second) and "columns" not in repr(first)
    assert first.dim_memo is not second.dim_memo
    w1, w2 = HighestWeight(first, (1, 0, 2, 1)), HighestWeight(second, (1, 0, 2, 1))
    hashes = hash(first), hash(w1)
    assert weyl_dim(w1) == weyl_dim(HighestWeight(first, (1, 0, 2, 1)))
    assert first.dim_memo == {(1, 0, 2, 1): weyl_dim(w1)}
    assert second.dim_memo == {}
    assert first == second and w1 == w2
    assert (hash(first), hash(w1)) == hashes == (hash(second), hash(w2))


def test_weyl_dim_hand_built_system_non_integer():
    """A direct dataclass call gets the pairing vectors too; 5/3 is rejected,
    and so is 7/3 when ``tensor_irreducible`` forms it from two vectors."""
    rs = RootSystem("A", 2, ((2, 1),), ((1, 0), (0, 1)), (1, 1))
    lam = HighestWeight(rs, (1, 0))
    with pytest.raises(NonIntegerDimension, match="5/3"):
        weyl_dim(lam)
    # every weight whose own dimension is an integer sums to another one, so
    # lam's dimension comes from the memo to reach the combined miss
    rs.dim_memo[(1, 0)] = 1
    with pytest.raises(NonIntegerDimension, match="7/3"):
        tensor_irreducible(lam, HighestWeight(rs, (1, 0)))
    assert (2, 0) not in rs.dim_memo


def test_weight_keeps_is_zero_and_its_dimension():
    """``is_zero`` and the pairing vectors are decided once at construction;
    the dimension is filled by the first ``weyl_dim`` call and then read off
    the weight.  None of them takes part in equality, hashing or repr."""
    rs = RootSystem.from_name("C3")
    zero, lam = HighestWeight(rs, (0, 0, 0)), HighestWeight(rs, (0, 1, 0))
    assert zero.is_zero is True and lam.is_zero is False
    assert vars(lam)["is_zero"] is False  # an instance field, not a property
    assert lam._dim is None and rs.dim_memo == {}
    assert weyl_dim(lam) == 14 and lam._dim == 14
    rs.dim_memo.clear()
    assert weyl_dim(lam) == 14 and rs.dim_memo == {}  # read off the weight
    twin = HighestWeight(rs, (0, 1, 0))
    assert twin._dim is None and twin == lam and hash(twin) == hash(lam)
    assert repr(twin) == repr(lam)
    assert (lam + zero) == lam and (lam + zero)._dim is None
    object.__setattr__(twin, "pairing", (0,) * len(lam.pairing))
    object.__setattr__(twin, "shifted", (1,) * len(lam.shifted))
    assert twin == lam and hash(twin) == hash(lam) and repr(twin) == repr(lam)
    assert "pairing" not in repr(lam) and "shifted" not in repr(lam)


# coordinates from 10^6 to 10^9: every numerator is far past 2^63
HUGE = {"A8": 8, "B8": 8, "C8": 8, "D8": 8, "G2": 2}


@pytest.mark.parametrize("name", sorted(HUGE))
def test_weyl_kernel_exact_past_int64(name):
    rs = RootSystem.from_name(name)
    roots, weights = _textbook_data(rs.family, rs.rank)
    scale = math.lcm(*(x.denominator for w in weights for x in w))
    weights = [[int(x * scale) for x in w] for w in weights]
    roots = [[int(x) for x in alpha] for alpha in roots]
    rank = HUGE[name]
    lam_c = tuple(10 ** 6 + 7919 * k ** 3 for k in range(rank))
    mu_c = tuple(10 ** 9 - 104729 * k for k in range(rank))
    lam, mu = HighestWeight(rs, lam_c), HighestWeight(rs, mu_c)
    total_c = tuple(a + b for a, b in zip(lam_c, mu_c))
    total = lam + mu
    fresh = HighestWeight(rs, total_c)
    assert total == fresh and total.coords == total_c
    assert (total.pairing, total.shifted) == (fresh.pairing, fresh.shifted)
    assert math.prod(lam.shifted) > 2 ** 63 and math.prod(total.shifted) > 2 ** 63 * 10 ** 6
    want = {c: _textbook_dim(roots, weights, c) for c in (lam_c, mu_c, total_c)}
    assert weyl_dim(lam) == want[lam_c] and weyl_dim(mu) == want[mu_c]
    assert tensor_irreducible(lam, mu) is False
    assert rs.dim_memo[total_c] == want[total_c]  # formed from the two vectors
    assert weyl_dim(total) == weyl_dim(fresh) == want[total_c]
