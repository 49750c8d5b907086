"""Each factorization is certified once, at the cost its mathematics needs.

``TwoCocycle.validate`` checks the cocycle identity on generators only; the
n^3 check it replaced is the oracle here.  ``center`` solves in the space's
own coordinates; ``intersect`` with the centralizer is the oracle.  The
certificates of a space are memoized per tolerance, and the a^4 matrix-unit
relations run as stacked products against the old pair loop.
"""

import itertools

import numpy as np
import pytest

import invalg.algebras
import invalg.reps
from invalg import (FactorRecoveryFailure, MatrixSubspace, TwoCocycle, catalog,
                    central_simple_invariant_subalgebras, direct_product,
                    enumerate_invariant_subalgebras, extract_factorization,
                    multfree_scan)
from invalg.algebras import (center, centralizer, left_multiplication_operators,
                             semisimplicity_certificate)
from invalg.factor import _check_unit_relations, _matrix_units
from invalg.groups import build_from_mult_table, subgroup_generated_by
from invalg.reps import Representation

IRREDUCIBLE = [("S3", "std"), ("Q8", "std"), ("D4", "std"), ("A4", "std3"),
               ("S4", "std3"), ("SL23", "std"), ("S3xS3", "stdXstd")]


def _outer(*parts):
    """Outer tensor product of catalog reps over the direct product."""
    group, mats, alpha = None, None, None
    for part in parts:
        g, rep = catalog.get(*part.split(":"))
        a = rep.cocycle.values if rep.cocycle is not None else np.ones((g.order,) * 2)
        if group is None:
            group, mats, alpha = g, rep.matrices, a
            continue
        group = direct_product(group, g)
        mats = np.stack([np.kron(x, y) for x in mats for y in rep.matrices])
        alpha = np.kron(alpha, a)
    cocycle = None if np.all(alpha == 1) else TwoCocycle(group, alpha)
    return Representation(group=group, dim=mats.shape[1], matrices=mats,
                          cocycle=cocycle)


def _relabelled(cocycle, seed):
    """The same cocycle on a randomly relabelled copy of its group (the
    identity keeps its label), as the bench inputs are built."""
    group, n = cocycle.group, cocycle.group.order
    rng = np.random.default_rng(seed)
    perm = np.arange(n)
    rest = [g for g in range(n) if g != group.identity]
    perm[rest] = rng.permutation(rest)          # old label -> new label
    inv = np.argsort(perm)                      # new label -> old label
    table = perm[group.mult[inv][:, inv]]
    new_group = build_from_mult_table(table.tolist())
    return TwoCocycle(new_group, np.asarray(cocycle.values)[inv][:, inv])


# -- the cocycle identity on generators ----------------------------------------

def _identity_loop(cocycle, tol):
    """The full check: alpha(x,y) alpha(xy,z) = alpha(y,z) alpha(x,yz) for
    every x, y, z, one x at a time.  Returns the deviation or raises."""
    a, m = np.asarray(cocycle.values), cocycle.group.mult
    dev = 0.0
    for x in range(cocycle.group.order):
        lhs = a[x, :, None] * a[m[x]]
        rhs = a * a[x][m]
        dev = max(dev, float(np.max(np.abs(lhs - rhs))))
    if dev > tol:
        raise ValueError(f"cocycle identity fails by {dev:.3g}")
    return dev


def _agree(cocycle, tol=1e-6):
    """Whether the generator check and the n^3 loop pass or fail together."""
    try:
        _identity_loop(cocycle, tol)
        want = True
    except ValueError:
        want = False
    try:
        cocycle.validate(tol)
        got = True
    except ValueError as exc:
        assert "cocycle identity fails by" in str(exc)
        got = False
    return got, want


def _corruptions(cocycle, count, seed):
    """Copies with one non-normalization entry multiplied by a phase."""
    n, e = cocycle.group.order, cocycle.group.identity
    rng = np.random.default_rng(seed)
    for _ in range(count):
        x, y = rng.choice([g for g in range(n) if g != e], size=2)
        bad = np.array(cocycle.values)
        bad[x, y] *= np.exp(1j * rng.uniform(0.1, np.pi))
        yield TwoCocycle(cocycle.group, bad)


def _span_of_subgroups(rep, dims, count):
    """Central simple invariant subalgebras of a Pauli representation:
    ``span rho(H)`` for subgroups H = <g, h, ...> whose commutator form is
    nondegenerate, ``count`` of each dimension in ``dims``.  Reaching them
    this way skips the subset scan, which takes seconds on Pauli^3."""
    group, out = rep.group, []
    for dim in dims:
        found = []
        for gens in itertools.combinations(range(1, group.order), dim.bit_length() - 1):
            members = subgroup_generated_by(group, gens).members
            sp = MatrixSubspace.from_spanning(rep.matrices[list(members)])
            if sp.dim == dim and center(sp).dim == 1:
                found.append(sp)
            if len(found) == count:
                break
        assert len(found) == count
        out += found
    return out


def _factor_cocycles(rep, spaces=None):
    """The sigma and tau cocycles of the factorizations of ``rep`` along
    ``spaces``, by default its whole central simple list."""
    if spaces is None:
        spaces, _ = central_simple_invariant_subalgebras(rep)
    out = []
    for sp in spaces:
        fact = extract_factorization(sp, rep)
        out += [r.cocycle for r in (fact.sigma, fact.tau) if r.cocycle is not None]
    return out


@pytest.fixture(scope="module")
def cocycles():
    """Catalog and bench cocycles, relabelled as the bench does, and the
    sigma / tau tables recovered from S3 x Pauli, S3 x S3 and Pauli^3."""
    pauli = catalog.get("C2xC2", "pauli")[1].cocycle
    s3_pauli = _outer("S3:std", "C2xC2:pauli")
    pauli3 = _outer("C2xC2:pauli", "C2xC2:pauli", "C2xC2:pauli")
    out = {"pauli": [pauli, _relabelled(pauli, 1)],
           "S3xPauli": [s3_pauli.cocycle, _relabelled(s3_pauli.cocycle, 2)],
           "Pauli3": [pauli3.cocycle, _relabelled(pauli3.cocycle, 3)],
           "D4xPauli2": [_outer("D4:std", "C2xC2:pauli", "C2xC2:pauli").cocycle],
           "factors:S3xPauli": _factor_cocycles(s3_pauli),
           "factors:S3xS3": _factor_cocycles(catalog.get("S3xS3", "stdXstd")[1]),
           "factors:Pauli3": _factor_cocycles(
               pauli3, _span_of_subgroups(pauli3, (4, 16), 6))}
    assert all(out.values())
    return out


@pytest.mark.parametrize("name", ["pauli", "S3xPauli", "Pauli3", "D4xPauli2",
                                  "factors:S3xPauli", "factors:S3xS3",
                                  "factors:Pauli3"])
def test_generator_check_agrees_with_the_full_identity(name, cocycles):
    """Valid tables pass both checks; every one-entry corruption fails both."""
    flagged = 0
    for i, cocycle in enumerate(cocycles[name]):
        assert _agree(cocycle) == (True, True)
        assert cocycle.validate() < 1e-12 and _identity_loop(cocycle, 1e-6) < 1e-12
        count = 6 if cocycle.group.order > 64 else 12
        for bad in _corruptions(cocycle, count, seed=i):
            assert _agree(bad) == (False, False)
            flagged += 1
    assert flagged >= 6


def test_generator_check_sees_a_corrupted_generator_column():
    """A corruption at z = s is seen on the generator itself, and one at a
    non-generator z through the pairs that reach it."""
    cocycle = _outer("S3:std", "C2xC2:pauli").cocycle
    gens = cocycle.group.generators
    others = [g for g in range(cocycle.group.order)
              if g not in gens and g != cocycle.group.identity]
    for y in (gens[0], others[-1]):
        bad = np.array(cocycle.values)
        bad[others[0], y] *= -1
        assert _agree(TwoCocycle(cocycle.group, bad)) == (False, False)


def test_trivial_group_is_valid_by_normalization():
    trivial = build_from_mult_table([[0]])
    assert trivial.generators == ()
    assert TwoCocycle(trivial, np.ones((1, 1), dtype=complex)).validate() == 0.0
    with pytest.raises(ValueError, match="not normalized"):
        TwoCocycle(trivial, np.full((1, 1), 2.0 + 0j)).validate()


# -- the center in the space's own coordinates ---------------------------------

@pytest.fixture(scope="module")
def closed_spaces():
    """Catalog subalgebras, scan sums (unital and not) and their centralizers."""
    out = []
    for key, rep_name in IRREDUCIBLE:
        _, rep = catalog.get(key, rep_name)
        subs, _ = enumerate_invariant_subalgebras(rep)
        out += [s.space for s in subs]
    for rep in (catalog.get("S3xS3", "stdXstd")[1], catalog.get("C2xC2", "pauli")[1],
                _outer("S3:std", "C2xC2:pauli")):
        unital, nonunital, _ = multfree_scan(rep)
        out += unital + nonunital
    return out + [centralizer(sp) for sp in out]


def test_center_matches_the_centralizer_intersection(closed_spaces):
    dims = set()
    for sp in closed_spaces:
        want = sp.intersect(centralizer(sp))
        got = center(sp)
        assert got.dim == want.dim and got.equals(want)
        assert got.shape == sp.shape and sp.contains_space(got)
        np.testing.assert_allclose(got.flat @ got.flat.conj().T, np.eye(got.dim),
                                   rtol=0, atol=1e-12)
        dims.add(got.dim)
    assert {0, 1, 2} <= dims


def test_center_rejects_a_non_closed_space():
    offdiag = MatrixSubspace.from_spanning([np.array([[0.0, 1.0], [1.0, 0.0]])])
    with pytest.raises(ValueError, match="not closed"):
        center(offdiag)
    assert center(MatrixSubspace.zero(3)).dim == 0


# -- certificates paid once per space -------------------------------------------

@pytest.fixture
def solves(monkeypatch):
    """Counts the certificate (trace form) and center (nullspace) solves."""
    count = {"certificate": 0, "center": 0}
    for name, key in (("trace_form_gram", "certificate"), ("nullspace", "center")):
        def counted(*args, _inner=getattr(invalg.algebras, name), _key=key):
            count[_key] += 1
            return _inner(*args)

        monkeypatch.setattr(invalg.algebras, name, counted)
    return count


@pytest.mark.parametrize("name", ["S3xPauli", "S3xS3:stdXstd", "Q8:std"])
def test_extract_factorization_reads_the_search_certificates(name, solves):
    rep = (_outer("S3:std", "C2xC2:pauli") if name == "S3xPauli"
           else catalog.get(*name.split(":"))[1])
    subs, certified = central_simple_invariant_subalgebras(rep)
    assert certified
    before = dict(solves)
    assert before["certificate"] >= len(subs) and before["center"] >= len(subs)
    for sp in subs:
        fact = extract_factorization(sp, rep)
        assert fact.a * fact.b == rep.dim
    assert solves == before


def test_certificates_are_memoized_per_tolerance(solves):
    _, rep = catalog.get("S3", "std")
    sp = MatrixSubspace.full(rep.dim)
    first = semisimplicity_certificate(sp)
    assert semisimplicity_certificate(sp, 1e-8) is first
    assert center(sp) is center(sp, 1e-8)
    assert left_multiplication_operators(sp) is left_multiplication_operators(sp, 1e-8)
    assert solves == {"certificate": 1, "center": 1}
    other = semisimplicity_certificate(sp, 1e-6)
    assert other is not first and other[0] == first[0]
    assert center(sp, 1e-6).equals(center(sp))
    assert solves == {"certificate": 2, "center": 2}
    assert not left_multiplication_operators(sp).flags.writeable
    upper = MatrixSubspace.from_spanning([np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])])
    witness = semisimplicity_certificate(upper)[1]
    assert witness is not None and not witness.flags.writeable


def test_scan_decides_each_identity_once(monkeypatch):
    calls = []
    original = MatrixSubspace.contains_identity

    def counted(self, tol=1e-8):
        calls.append(id(self))
        return original(self, tol)

    monkeypatch.setattr(MatrixSubspace, "contains_identity", counted)
    unital, nonunital, _ = multfree_scan(catalog.get("S3xS3", "stdXstd")[1])
    assert sorted(calls) == sorted(id(s) for s in unital + nonunital)
    assert nonunital and unital


# -- the matrix-unit relations ----------------------------------------------------

def _relations_loop(units):
    """The a^4 pair loop the stacked check replaced."""
    for (p, q) in units:
        for (r, s) in units:
            prod = units[(p, q)] @ units[(r, s)]
            want = units[(p, s)] if q == r else 0.0
            if np.linalg.norm(prod - want) > 1e-6:
                raise FactorRecoveryFailure(
                    f"unit relations fail at ({p},{q})x({r},{s})")


def _message(fn, units):
    try:
        fn(units)
    except FactorRecoveryFailure as exc:
        return str(exc)
    return None


def _unit_spaces():
    """Central simple subalgebras M_a kron I_c, and one in a rotated basis."""
    out = []
    for a, c in ((2, 1), (2, 2), (4, 1), (4, 2), (3, 2)):
        units = np.eye(a * a).reshape(a * a, a, a)
        out.append((a, MatrixSubspace.from_spanning([np.kron(u, np.eye(c)) for u in units])))
    q, _ = np.linalg.qr(np.random.default_rng(9).standard_normal((6, 6)))
    out.append((3, MatrixSubspace.from_spanning(q.T @ out[-1][1].basis() @ q)))
    return out


@pytest.mark.parametrize("block", [None, 1, 40])
def test_unit_relations_name_the_loop_pair(block, monkeypatch):
    if block is not None:
        monkeypatch.setattr(invalg.reps, "_PAIR_BLOCK", block)
    rng = np.random.default_rng(5)
    for a, sp in _unit_spaces():
        units = _matrix_units(sp, a, 1e-8)
        assert len(units) == a * a
        assert _message(_check_unit_relations, units) is None
        assert _message(_relations_loop, units) is None
        keys = list(units)
        for _ in range(8):
            bad = dict(units)
            for k in rng.choice(len(keys), size=rng.integers(1, 3), replace=False):
                key = keys[k]
                bad[key] = units[key] + 1e-3 * rng.standard_normal(units[key].shape)
            want = _message(_relations_loop, bad)
            assert want is not None
            assert _message(_check_unit_relations, bad) == want
