"""Stacked kernels against the per-matrix loops they replace.

Each test keeps the earlier loop as an oracle.  Where the stacked kernel
does the same arithmetic (the Kronecker systems, the products behind the
algebra unit) the results must be bit-identical; where the summation order
changed (batched projections) decisions must agree and values must agree to
a tolerance fixed from complex128 rounding.
"""

import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import invalg.classify
from invalg import (MatchFailure, MatrixSubspace, ToleranceFailure, catalog,
                    enumerate_invariant_subalgebras, is_invariant,
                    permutation_action, verify_classification)
from invalg._linalg import kron_stack, intertwiners, nullspace, row_norms
from invalg.algebras import (_all_idempotent, _certified_projectors,
                             algebra_unit, left_multiplication_operators)
from invalg.classify import _conjugation_class_maps, _normalizer_members
from invalg.groups import (all_subgroups, build_from_mult_table, class_index_array,
                           conjugacy_classes)
from invalg.lie import HighestWeight, RootSystem, tensor_irreducible
from invalg.reps import (ClassFunction, Representation, _isotypic, character,
                         character_table, induce, induced_character, restrict)
from invalg.spaces import span_product

IRREDUCIBLE = [("S3", "std"), ("Q8", "std"), ("D4", "std"), ("A4", "std3"),
               ("S4", "std3"), ("SL23", "std"), ("S3xS3", "stdXstd")]
# values that went through a different summation order
VALUE_TOL = 1e-12


@pytest.fixture(scope="module")
def catalog_subalgebras():
    out = []
    for key, rep_name in IRREDUCIBLE:
        _, rep = catalog.get(key, rep_name)
        subs, _ = enumerate_invariant_subalgebras(rep)
        out.extend((f"{key}:{rep_name}", rep, s) for s in subs)
    return out


def _random_stack(rng, k, p, q):
    return rng.standard_normal((k, p, q)) + 1j * rng.standard_normal((k, p, q))


# -- the intertwiner system ------------------------------------------------------

def _kron_system(a_mats, b_mats):
    """The system as it was built before: 2k ``np.kron`` calls."""
    q, p = a_mats.shape[-1], b_mats.shape[-1]
    rows = [np.kron(np.eye(p), a.T) - np.kron(b, np.eye(q))
            for a, b in zip(a_mats, b_mats, strict=True)]
    return np.vstack(rows) if rows else np.zeros((0, p * q))


@pytest.mark.parametrize("k,p,q", [(0, 2, 3), (0, 3, 3), (3, 2, 3), (4, 3, 3),
                                   (2, 4, 1), (5, 1, 1), (3, 4, 2)])
def test_intertwiners_match_kron_system_bit_for_bit(k, p, q):
    rng = np.random.default_rng(100 * k + 10 * p + q)
    a, b = _random_stack(rng, k, q, q), _random_stack(rng, k, p, p)
    want = nullspace(_kron_system(a, b)).reshape(-1, p, q)
    got = intertwiners(a, b)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_intertwiners_real_and_commuting_input():
    """Real input takes the same path; the commutant of a scalar is everything."""
    _, rep = catalog.get("S3", "std")
    mats = rep.matrices.real
    want = nullspace(_kron_system(mats, mats)).reshape(-1, 2, 2)
    assert intertwiners(mats, mats).tobytes() == want.tobytes()
    assert len(intertwiners(np.eye(3)[None], np.eye(3)[None])) == 9


def test_intertwiners_reject_unpaired_stacks():
    with pytest.raises(ValueError):
        intertwiners(np.zeros((1, 2, 2)), np.zeros((3, 2, 2)))


def test_kron_stack_is_np_kron():
    rng = np.random.default_rng(5)
    a, b = _random_stack(rng, 4, 2, 3), _random_stack(rng, 4, 3, 2)
    want = np.stack([np.kron(x, y) for x, y in zip(a, b)])
    assert kron_stack(a, b).tobytes() == want.tobytes()
    # an unstacked factor broadcasts against the stack
    want = np.stack([np.kron(np.eye(2), y) for y in b])
    assert kron_stack(np.eye(2), b).tobytes() == want.tobytes()


# -- membership -------------------------------------------------------------------

def _contains_loop(space, m, tol):
    """The per-matrix membership rule, one matrix at a time.

    The bound is floored at one, as in ``left_multiplication_operators``
    and ``permutation_action``; without the floor a product that is zero up
    to rounding failed membership.
    """
    m = np.asarray(m, dtype=complex)
    return np.linalg.norm(m - space.project(m)) <= tol * max(1.0, np.linalg.norm(m))


def _spaces(rng):
    yield MatrixSubspace.zero(3)
    yield MatrixSubspace.full((3, 3))
    yield MatrixSubspace.identity_line(3)
    for k in (1, 4, 7):
        yield MatrixSubspace.from_spanning(_random_stack(rng, k, 3, 3))
    yield MatrixSubspace.from_spanning(_random_stack(rng, 2, 2, 4))


@pytest.mark.parametrize("tol", [1e-8, 1e-6])
def test_contains_all_matches_the_loop(tol):
    rng = np.random.default_rng(7)
    for space in _spaces(rng):
        rows, cols = space.shape
        perp = _random_stack(rng, 5, rows, cols)
        perp -= np.array([space.project(m) for m in perp])
        inside = (rng.standard_normal((5, space.dim)) @ space.flat).reshape(-1, rows, cols)
        # residuals at a tenth and ten times the bound, away from its edge
        near = inside + perp * (np.array([0.1, 10.0, 0.1, 10.0, 0.1])[:, None, None]
                                * tol * np.linalg.norm(inside, axis=(1, 2))[:, None, None]
                                / np.maximum(np.linalg.norm(perp, axis=(1, 2)),
                                             1e-300)[:, None, None])
        zero = np.zeros((2, rows, cols))
        stacks = [np.zeros((0, rows, cols)), [], zero, inside, near,
                  _random_stack(rng, 3, rows, cols), np.concatenate([zero, near])]
        stacks += [near[i:i + 1] for i in range(len(near))]
        for stack in stacks:
            want = all(_contains_loop(space, m, tol) for m in stack)
            assert space.contains_all(stack, tol) == want
        for m in np.concatenate([inside, near, zero]):
            assert space.contains(m, tol) == _contains_loop(space, m, tol)


def test_contains_all_empty_stack_and_zero_space():
    zero = MatrixSubspace.zero((2, 3))
    assert zero.contains_all(np.zeros((0, 2, 3)))
    assert zero.contains_all([])
    assert zero.contains_all(np.zeros((4, 2, 3)))
    assert not zero.contains_all(np.ones((1, 2, 3)))
    assert zero.contains_space(zero)
    assert MatrixSubspace.full((2, 3)).contains_space(zero)


def test_row_norms_match_linalg_norm():
    rng = np.random.default_rng(11)
    a = _random_stack(rng, 1, 6, 40)[0]
    np.testing.assert_allclose(row_norms(a), np.linalg.norm(a, axis=1), rtol=VALUE_TOL)
    np.testing.assert_allclose(row_norms(a.real), np.linalg.norm(a.real, axis=1),
                               rtol=VALUE_TOL)
    assert row_norms(np.zeros((0, 5))).shape == (0,)
    stack = _random_stack(rng, 4, 3, 5)
    np.testing.assert_allclose(row_norms(stack), np.linalg.norm(stack, axis=(1, 2)),
                               rtol=VALUE_TOL)
    assert row_norms(np.zeros((3, 0, 2))).tolist() == [0.0] * 3
    assert row_norms(np.array([-2.0, 3.0])).tolist() == [2.0, 3.0]


def _is_product_closed_loop(space, tol):
    return all(_contains_loop(space, a @ b, tol)
               for a in space.basis() for b in space.basis())


def _conjugation(m):
    """``X -> m X m^-1`` on row-major flattened matrices, as one matrix."""
    return np.kron(m, np.linalg.inv(m).T)


def _is_invariant_loop(space, rep, tol):
    for g in rep.group.generators:
        for b in space.basis():
            moved = (_conjugation(rep.matrices[g]) @ b.reshape(-1)).reshape(space.shape)
            if not _contains_loop(space, moved, tol):
                return False
    return True


def test_product_closure_and_invariance_match_the_loops(catalog_subalgebras):
    rng = np.random.default_rng(13)
    seen = set()
    for name, rep, sub in catalog_subalgebras:
        space = sub.space
        # the floor lets a product of orthogonal idempotents (zero up to
        # rounding) pass, so every subalgebra is product-closed by the rule
        assert space.is_product_closed()
        assert _is_product_closed_loop(space, 1e-8)
        assert is_invariant(space, rep, 1e-6) and _is_invariant_loop(space, rep, 1e-6)
        if name in seen:
            continue
        seen.add(name)
        d = space.ambient_dim
        for k in (1, 2, 3):
            rnd = MatrixSubspace.from_spanning(_random_stack(rng, k, d, d))
            assert rnd.is_product_closed() == _is_product_closed_loop(rnd, 1e-8)
            assert is_invariant(rnd, rep, 1e-6) == _is_invariant_loop(rnd, rep, 1e-6)


def test_span_product_matches_the_loop():
    rng = np.random.default_rng(17)
    s1 = MatrixSubspace.from_spanning(_random_stack(rng, 2, 2, 3))
    s2 = MatrixSubspace.from_spanning(_random_stack(rng, 3, 3, 4))
    want = MatrixSubspace.from_spanning([a @ b for a in s1.basis() for b in s2.basis()])
    got = span_product(s1, s2)
    assert got.shape == (2, 4) and got.equals(want)


# -- left multiplication and the unit ---------------------------------------------

def _left_multiplication_loop(space, tol):
    basis = space.basis()
    k = space.dim
    ops = np.zeros((k, k, k), dtype=complex)
    for i, bi in enumerate(basis):
        for j, bj in enumerate(basis):
            prod = bi @ bj
            coeff = space.flat.conj() @ prod.reshape(-1)
            resid = np.linalg.norm(prod - (coeff @ space.flat).reshape(space.shape))
            if resid > tol * max(1.0, np.linalg.norm(prod)):
                raise ValueError("subspace is not closed under products")
            ops[i, :, j] = coeff
    return ops


def _algebra_unit_loop(space):
    if space.dim == 0:
        return None
    basis = space.basis()
    rows, rhs = [], []
    for bj in basis:
        rows.append(np.stack([(bi @ bj).reshape(-1) for bi in basis], axis=1))
        rhs.append(bj.reshape(-1))
        rows.append(np.stack([(bj @ bi).reshape(-1) for bi in basis], axis=1))
        rhs.append(bj.reshape(-1))
    coeff, *_ = np.linalg.lstsq(np.vstack(rows), np.concatenate(rhs), rcond=None)
    u = np.tensordot(coeff, basis, axes=(0, 0))
    resid = max(np.linalg.norm(u @ bj - bj) + np.linalg.norm(bj @ u - bj)
                for bj in basis)
    return None if resid > 1e-6 else u


def test_left_multiplication_and_unit_on_catalog_subalgebras(catalog_subalgebras):
    for _, _, sub in catalog_subalgebras:
        space = sub.space
        want = _left_multiplication_loop(space, 1e-8)
        got = left_multiplication_operators(space)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=VALUE_TOL)
        unit = algebra_unit(space)
        assert unit is not None
        np.testing.assert_allclose(unit, _algebra_unit_loop(space), rtol=0, atol=VALUE_TOL)
        np.testing.assert_allclose(unit, np.eye(space.ambient_dim), rtol=0, atol=1e-8)


def test_left_multiplication_rejects_a_non_closed_space():
    offdiag = MatrixSubspace.from_spanning([np.array([[0.0, 1.0], [1.0, 0.0]])])
    with pytest.raises(ValueError, match="not closed"):
        _left_multiplication_loop(offdiag, 1e-8)
    with pytest.raises(ValueError, match="not closed"):
        left_multiplication_operators(offdiag)


def test_algebra_unit_of_nonunital_and_zero_spaces():
    upper = MatrixSubspace.from_spanning([np.array([[0.0, 1.0], [0.0, 0.0]])])
    assert algebra_unit(upper) is None and _algebra_unit_loop(upper) is None
    corner = MatrixSubspace.from_spanning([np.diag([1.0, 0.0, 0.0])])
    np.testing.assert_allclose(algebra_unit(corner), _algebra_unit_loop(corner),
                               rtol=0, atol=VALUE_TOL)
    assert algebra_unit(MatrixSubspace.zero(2)) is None


# -- idempotents ------------------------------------------------------------------

def _complete_and_orthogonal_loop(idems, unit):
    return (np.linalg.norm(np.sum(idems, axis=0) - unit) <= 1e-6
            and all(np.linalg.norm(e @ f) < 1e-6
                    for i, e in enumerate(idems)
                    for j, f in enumerate(idems) if i != j))


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 8), data=st.data(),
       scale=st.floats(1.0, 100.0), eps=st.sampled_from(
           [0.0, 1e-14, 1e-10, 1e-9, 1e-8, 3e-8, 1e-7, 1e-6, 1e-4]))
def test_factor_certificate_implies_the_pairwise_rule(n, data, scale, eps):
    """Whatever ``_certified_projectors`` accepts passes the all-pairs
    oracle and is idempotent; exact inverses of non-unitary eigenvector
    bases are accepted, incomplete or perturbed systems are not."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    labels = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))
    parts = [np.flatnonzero(labels == c) for c in np.unique(labels)]
    q, _ = np.linalg.qr(_random_stack(rng, 1, n, n)[0])
    v = q @ np.diag(rng.uniform(1.0, scale, n))                # non-unitary
    w = np.linalg.inv(v)
    w_eps = w + eps * _random_stack(rng, 1, n, n)[0]            # perturbed inverse
    projs = _certified_projectors(v, w_eps, parts)
    if projs is not None:
        assert _complete_and_orthogonal_loop(projs, np.eye(n))
        assert all(np.linalg.norm(p @ p - p) <= 1e-6 for p in projs)
    if eps == 0.0:
        assert projs is not None and len(projs) == len(parts)
    bumped = w.copy()
    bumped[0, 0] += 1e-4    # row 0 of v has norm >= 1, so |w v - I| >= 1e-4
    assert _certified_projectors(v, bumped, parts) is None
    if len(parts) > 1:      # drop one part: the rest cannot sum to I
        keep = np.concatenate(parts[1:])
        rest = [np.flatnonzero(np.isin(keep, ix)) for ix in parts[1:]]
        assert _certified_projectors(v[:, keep], w[keep], rest) is None
    assert _certified_projectors(1e-3 * v, 1e-3 * w, parts) is None


def test_isotypic_rejects_a_trace_mismatch():
    """An extra copy of a one-dimensional constituent in ``chi_v`` leaves
    idempotents that sum to I, but one projector of rank 1 is named
    multiplicity 2, and only its trace tells."""
    group, rep = catalog.get("S3", "trivPlusSignPlusStd")
    chi = character(rep)
    extra = character_table(group)[0]
    wrong = ClassFunction(group, tuple(a + b for a, b in zip(chi.values, extra.values)))
    mats = rep.matrices.__getitem__
    assert len(_isotypic(group, chi, rep.dim, mats)) == 3
    with pytest.raises(ToleranceFailure, match="traces"):
        _isotypic(group, wrong, rep.dim, mats)


def test_character_table_of_the_cyclic_group_of_order_128():
    a = np.arange(128)
    group = build_from_mult_table((a[:, None] + a[None]) % 128)
    start = time.perf_counter()
    table = character_table(group)
    elapsed = time.perf_counter() - start
    assert len(table) == 128
    assert {round(c.values[0].real) for c in table} == {1}
    # the k^2 pairwise acceptance of its 128 rank-one projectors took about
    # 8 s on a 2-core host; the eigenvector certificate takes well under one
    # second, so this bound only catches a return to it
    assert elapsed < 3.0


def test_all_idempotent_matches_the_loop():
    rng = np.random.default_rng(29)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    good = np.stack([q[:, :k] @ q[:, :k].conj().T for k in range(5)])
    for eps in (0.0, 1e-8, 1e-5):
        stack = good.copy()
        stack[2] += eps * rng.standard_normal((4, 4))
        want = all(np.linalg.norm(p @ p - p) <= 1e-6 for p in stack)
        assert _all_idempotent(stack) == want == (eps < 1e-6)
        assert _all_idempotent(list(stack)) == want
    assert _all_idempotent(np.zeros((0, 3, 3)))
    np.testing.assert_allclose(row_norms(good), np.linalg.norm(good, axis=(1, 2)),
                               rtol=VALUE_TOL)


def _permutation_loop(idems, rep, tol):
    idems = np.array([e.reshape(-1) for e in idems])
    bound = tol * np.maximum(1.0, np.linalg.norm(idems, axis=1))
    sigma = np.zeros((rep.group.order, len(idems)), dtype=np.intp)
    for g in range(rep.group.order):
        moved = idems @ _conjugation(rep.matrices[g]).T
        dists = np.linalg.norm(moved[:, None, :] - idems[None, :, :], axis=2)
        sigma[g] = np.argmin(dists, axis=1)
        best = dists[np.arange(len(idems)), sigma[g]]
        bad = np.flatnonzero(best > bound)
        if bad.size:
            return g, int(bad[0])
    return sigma


def test_permutation_action_matches_the_loop(catalog_subalgebras):
    for _, rep, sub in catalog_subalgebras:
        sigma, transitive = permutation_action(sub, rep)
        want = _permutation_loop(sub.idempotents, rep, 1e-6)
        assert np.array_equal(sigma, want)
        assert transitive


def test_permutation_action_first_failure_is_row_major():
    """The failure named is the loop's first, in (g, i) order.

    Each list holds the identity (matched by every g) and matrices that only
    some elements map into the list, so failures start at varying (g, i).
    """
    _, rep = catalog.get("S3", "std")
    rng = np.random.default_rng(23)
    mats = rep.matrices
    named = set()
    for _ in range(30):
        x = _random_stack(rng, 1, 2, 2)[0]
        # x is fixed by the elements commuting with mats[h] for a random h
        h = int(rng.integers(len(mats)))
        fixed = sum(mats[g] @ x @ np.linalg.inv(mats[g]) for g in range(len(mats))
                    if np.allclose(mats[g] @ mats[h], mats[h] @ mats[g]))
        idems = [np.eye(2, dtype=complex)]
        idems.insert(int(rng.integers(2)), fixed if rng.integers(2) else mats[h] + 0j)
        idems.append(x)
        first = _permutation_loop(idems, rep, 1e-6)
        assert isinstance(first, tuple)
        named.add(first)
        g, i = first
        with pytest.raises(MatchFailure, match=f"idempotent {i} by element {g} "):
            permutation_action(SimpleNamespace(idempotents=idems), rep)
    assert len(named) > 2


# -- conjugate characters -----------------------------------------------------------

def _conjugate_character_tuple(group, sub, chi, n):
    """The per-element conjugate character, as it was compared before."""
    h_group = sub.as_group()
    cls = class_index_array(h_group)
    pos = {m: i for i, m in enumerate(sub.members)}
    ni = group.inv[n]
    vals = []
    for h in sub.members:
        moved = int(group.mult[group.mult[ni, h], n])
        v = chi.values[cls[pos[moved]]]
        vals.append((round(v.real, 8), round(v.imag, 8)))
    return tuple(vals)


@pytest.mark.parametrize("key", ["S3", "D4", "A4", "S4", "SL23"])
def test_conjugation_class_maps_give_the_same_orbits(key):
    group = catalog.get(key).group
    for sub in all_subgroups(group):
        normalizer = _normalizer_members(group, sub)
        maps = _conjugation_class_maps(group, sub, normalizer)
        table = character_table(sub.as_group())
        old, new = [], []
        for chi in table:
            old.append(frozenset(_conjugate_character_tuple(group, sub, chi, n)
                                 for n in normalizer))
            rounded = [(round(v.real, 8), round(v.imag, 8)) for v in chi.values]
            new.append(frozenset(tuple(rounded[c] for c in row) for row in maps))
        for a in range(len(table)):
            assert len(old[a]) == len(new[a])
            for b in range(len(table)):
                assert (old[a] == old[b]) == (new[a] == new[b])


# -- induced characters -------------------------------------------------------------

def _induced_character_loop(sub, chi_w):
    """The averaging formula as it was computed before: class by element."""
    group = sub.parent
    pos = {m: i for i, m in enumerate(sub.members)}
    h_cls = class_index_array(sub.as_group())
    vals = []
    for cls in conjugacy_classes(group):
        total = 0.0 + 0.0j
        for x in range(group.order):
            y = int(group.mult[group.mult[group.inv[x], cls[0]], x])
            if y in pos:
                total += chi_w.values[h_cls[pos[y]]]
        vals.append(total / sub.order)
    return vals


@pytest.mark.parametrize("key", ["S3", "D4", "A4", "S4", "SL23"])
def test_induced_character_matches_the_loop_and_induce(key):
    entry = catalog.get(key)
    group = entry.group
    reps = [cls[0] for cls in conjugacy_classes(group)]
    for sub in all_subgroups(group):
        h_group = sub.as_group()
        for chi in character_table(h_group):
            got = induced_character(sub, chi).values
            np.testing.assert_allclose(got, _induced_character_loop(sub, chi),
                                       rtol=0, atol=VALUE_TOL)
            if round(chi.at_element(h_group.identity).real) == 1:
                # a linear character is its own 1 x 1 representation
                w = Representation(group=h_group, dim=1, matrices=np.array(
                    [[[chi.at_element(h)]] for h in range(h_group.order)]))
                traces = np.trace(induce(sub, w).matrices[reps], axis1=1, axis2=2)
                np.testing.assert_allclose(got, traces, rtol=0, atol=1e-9)
        # higher-dimensional W: the restrictions of the catalog reps
        for rep in entry.reps.values():
            w = restrict(rep, sub)
            traces = np.trace(induce(sub, w).matrices[reps], axis1=1, axis2=2)
            np.testing.assert_allclose(induced_character(sub, character(w)).values,
                                       traces, rtol=0, atol=1e-9)


# -- verification reuse ---------------------------------------------------------------

def test_verify_builds_one_scalar_block_span_per_pair(monkeypatch):
    _, rep = catalog.get("S3xS3", "stdXstd")
    subs, _ = enumerate_invariant_subalgebras(rep)
    pairs = {id(s.induction_datum.pair) for s in subs if s.induction_datum is not None}
    calls = []
    original = invalg.classify._block_span

    def counting(pair, *args, **kwargs):
        calls.append(id(pair))
        return original(pair, *args, **kwargs)

    monkeypatch.setattr(invalg.classify, "_block_span", counting)
    assert verify_classification(subs, rep).ok
    assert sorted(calls) == sorted(pairs)
    assert len(pairs) < len(subs)


def test_verify_computes_each_block_permutation_once(monkeypatch):
    """The inertia subgroup is read off the entry's own permutations."""
    _, rep = catalog.get("S3xS3", "stdXstd")
    subs, _ = enumerate_invariant_subalgebras(rep)
    assert all(s.induction_datum is not None for s in subs)
    calls = []
    original = invalg.algebras.permutation_action

    def counting(meta, *args, **kwargs):
        calls.append(id(meta))
        return original(meta, *args, **kwargs)

    monkeypatch.setattr(invalg.classify, "permutation_action", counting)
    monkeypatch.setattr(invalg.algebras, "permutation_action", counting)
    assert verify_classification(subs, rep).ok
    assert sorted(calls) == sorted(id(s) for s in subs)


def test_verify_computes_each_centralizer_once(monkeypatch):
    """Each entry's centralizer is solved once, by enumerate's closure check;
    verify reads it, and its partner's, from the memo."""
    _, rep = catalog.get("Q8", "std")
    solved = []
    original = invalg.algebras.intertwiners

    def counting(a_mats, *args, **kwargs):
        solved.append(a_mats)
        return original(a_mats, *args, **kwargs)

    monkeypatch.setattr(invalg.algebras, "intertwiners", counting)
    subs, _ = enumerate_invariant_subalgebras(rep)
    before = len(solved)
    assert verify_classification(subs, rep).ok
    assert len(solved) == before
    assert [sum(np.shares_memory(a, s.space.flat) for a in solved)
            for s in subs] == [1] * len(subs)


# -- Lie ----------------------------------------------------------------------------------

def test_tensor_irreducible_builds_no_weight(monkeypatch):
    rs = RootSystem.from_name("B3")
    lam, mu = HighestWeight(rs, (1, 0, 2)), HighestWeight(rs, (0, 3, 0))
    twin = RootSystem.from_name("B3")                    # equal, not identical
    mu_twin = HighestWeight(twin, (0, 3, 0))

    def no_sum(self, other):
        raise AssertionError("a weight was summed")

    monkeypatch.setattr(HighestWeight, "__add__", no_sum)
    assert tensor_irreducible(lam, mu) is False
    assert tensor_irreducible(lam, mu_twin) is False
    assert tensor_irreducible(lam, HighestWeight(rs, (0, 0, 0))) is True
    assert (1, 3, 2) in rs.dim_memo
    with pytest.raises(ValueError, match="different root systems"):
        tensor_irreducible(lam, HighestWeight(RootSystem.from_name("C3"), (0, 3, 0)))
