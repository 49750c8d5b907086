"""Representation validation, characters, induction, projective lifts."""

import tracemalloc

import numpy as np
import pytest

from invalg import algebras, catalog
from invalg import (NotAnAutomorphism, NotARepresentation, ToleranceFailure,
                    TwoCocycle, character, character_table,
                    conjugation_decomposition, equivariant_hom_space, induce,
                    induced_character,
                    inner_product, is_induced_from, is_irreducible,
                    isotypic_decomposition, restrict, skolem_noether_lift,
                    unitarize, validate)
from invalg.groups import (all_subgroups, build_from_mult_table,
                           build_from_permutations, class_index_array, direct_product,
                           product_index, subgroup_generated_by)
from invalg.reps import (Representation, _as_projective_rep, _check_law,
                         commutant_dimension)
from invalg._linalg import CERT_TOL, intertwiners, scalar_multiple_of_identity

IRREDUCIBLE = [("S3", "std"), ("Q8", "std"), ("D4", "std"), ("A4", "std3"),
               ("S4", "std3"), ("SL23", "std"), ("S3xS3", "stdXstd")]


@pytest.mark.parametrize("key,rep_name", IRREDUCIBLE + [
    ("S3", "triv"), ("S3", "sign"), ("S3", "trivPlusSign"),
    ("S3", "trivPlusSignPlusStd"), ("S3", "regular"), ("C2xC2", "pauli")])
def test_catalog_reps_validate(key, rep_name):
    _, rep = catalog.get(key, rep_name)
    report = validate(rep)
    assert report.max_deviation < 1e-10
    assert report.identity_deviation < 1e-10


CATALOG_REPS = [(key, name) for key, entry in sorted(catalog.catalog().items())
                for name in sorted(entry.reps)]


@pytest.mark.parametrize("key,rep_name", CATALOG_REPS)
def test_commutant_dimension_on_generators(key, rep_name):
    """Solving on the generating set gives the all-elements commutant."""
    _, rep = catalog.get(key, rep_name)
    assert commutant_dimension(rep) == len(intertwiners(rep.matrices, rep.matrices))


def test_validate_raises_on_corruption():
    _, rep = catalog.get("S3", "std")
    mats = np.array(rep.matrices)
    mats[3, 0, 0] += 0.01
    bad = Representation(group=rep.group, dim=rep.dim, matrices=mats,
                         name="corrupted")
    with pytest.raises(NotARepresentation) as exc:
        validate(bad)
    assert exc.value.worst_pair is not None
    g, h = exc.value.worst_pair
    assert 0 <= g < 6 and 0 <= h < 6


def test_check_law_fails_a_nan_deviation():
    with pytest.raises(NotARepresentation, match="fails by nan"):
        _check_law((float("nan"), (0, 0)), 1e-8)


def test_validate_raises_on_a_nan_matrix():
    """NaN compares false; a NaN in the identity's matrix or in any other
    element's must still fail the law."""
    group, rep = catalog.get("S3", "std")
    for g in (group.identity, (group.identity + 1) % group.order):
        mats = np.array(rep.matrices)
        mats[g, 1, 0] = np.nan
        bad = Representation(group=group, dim=rep.dim, matrices=mats)
        with pytest.raises(NotARepresentation):
            validate(bad)


def test_character_values_s3_std():
    g, rep = catalog.get("S3", "std")
    chi = character(rep)
    assert abs(chi.at_element(g.identity) - 2.0) < 1e-12
    # transpositions trace to 0, three-cycles to -1
    for x in g.elements():
        order = next(k for k in range(1, 7)
                     if np.linalg.norm(np.linalg.matrix_power(rep.matrices[x], k)
                                       - np.eye(2)) < 1e-9)
        expected = {1: 2.0, 2: 0.0, 3: -1.0}[order]
        assert abs(chi.at_element(x) - expected) < 1e-9


def test_character_orthogonality():
    _, triv = catalog.get("S3", "triv")
    _, sign = catalog.get("S3", "sign")
    _, std = catalog.get("S3", "std")
    chars = [character(r) for r in (triv, sign, std)]
    for i, a in enumerate(chars):
        for j, b in enumerate(chars):
            ip = inner_product(a, b)
            assert abs(ip - (1.0 if i == j else 0.0)) < 1e-9


PERMUTATION_GROUPS = {"A5": [(1, 2, 0, 3, 4), (0, 1, 3, 4, 2)],
                      "S5": [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)]}


@pytest.mark.parametrize("key,dims", [
    pytest.param(key, dims, id=f"{key}-{len(dims)}") for key, dims in [
        ("S3", [1, 1, 2]), ("Q8", [1, 1, 1, 1, 2]), ("D4", [1, 1, 1, 1, 2]),
        ("A4", [1, 1, 1, 3]), ("S4", [1, 1, 2, 3, 3]),
        ("SL23", [1, 1, 1, 2, 2, 2, 3]), ("S3xS3", [1, 1, 1, 1, 2, 2, 2, 2, 4]),
        ("A5", [1, 3, 3, 4, 5]), ("S5", [1, 1, 4, 4, 5, 5, 6])]])
def test_character_table_rows(key, dims, monkeypatch):
    if key in PERMUTATION_GROUPS:
        g = build_from_permutations(PERMUTATION_GROUPS[key], name=key)
    else:
        g = catalog.get(key).group
    table = character_table(g)
    for i, a in enumerate(table):
        for j, b in enumerate(table):
            ip = inner_product(a, b)
            assert abs(ip - (1.0 if i == j else 0.0)) < 1e-8
    # rows are sorted by degree
    assert [int(round(np.real(c.at_element(g.identity)))) for c in table] == dims
    assert sum(d * d for d in dims) == g.order
    # another stream for the split finds the same table; a fresh copy of the
    # group, since the table is cached on the group
    for draw_seed in (1, 2):
        monkeypatch.setattr(algebras, "_DRAW_SEED", draw_seed)
        other = character_table(build_from_mult_table(g.mult, name=key))
        assert np.max(np.abs(np.array([c.values for c in other])
                             - np.array([c.values for c in table]))) < 1e-8


def test_is_irreducible():
    for key, rep_name in IRREDUCIBLE:
        _, rep = catalog.get(key, rep_name)
        assert is_irreducible(rep)
    for rep_name in ("trivPlusSign", "trivPlusSignPlusStd", "regular"):
        _, rep = catalog.get("S3", rep_name)
        assert not is_irreducible(rep)


def test_isotypic_decomposition_regular():
    """The regular rep of S3 splits as triv + sign + 2*std."""
    _, rep = catalog.get("S3", "regular")
    comps = isotypic_decomposition(rep)
    # component dim counts the whole isotypic block (irrep dim x multiplicity)
    assert sorted((c.dim, c.multiplicity) for c in comps) == [(1, 1), (1, 1), (4, 2)]
    total = np.zeros((6, 6), dtype=complex)
    for c in comps:
        p = c.projector
        assert np.linalg.norm(p @ p - p) < 1e-8
        for m in rep.matrices:
            assert np.linalg.norm(m @ p - p @ m) < 1e-8
        total += p
    assert np.linalg.norm(total - np.eye(6)) < 1e-8


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


def _kron_decomposition(rep):
    """Oracle: ``(label, multiplicity, dim, projector)`` of every isotypic
    component of the materialized action ``rho(g) kron rho(g)^-T``, each
    projector summed over all elements at once."""
    group = rep.group
    action = np.stack([np.kron(m, np.linalg.inv(m).T) for m in rep.matrices])
    traces = np.trace(action, axis1=1, axis2=2)
    out = []
    for i, chi in enumerate(character_table(group)):
        vals = np.conj(chi.values)[class_index_array(group)]
        mult = round((vals @ traces).real / group.order)
        if mult:
            d_i = round(chi.at_element(group.identity).real)
            out.append((f"chi{i}", mult, mult * d_i,
                        np.einsum("g,gij->ij", vals, action) * d_i / group.order))
    return out


def _conjugation_inputs():
    out = [pytest.param(rep, id=f"{key}:{name}") for key, entry in sorted(catalog.catalog().items())
           for name, rep in sorted(entry.reps.items())]
    out.append(pytest.param(_outer("S3:std", "C2xC2:pauli"), id="S3xPauli"))
    # d = 8: the action is summed in 14 blocks of 16 elements
    out.append(pytest.param(_outer("S3:std", "S3:std", "S3:std"), id="S3^3"))
    # non-unitary conjugates, linear and projective
    rng = np.random.default_rng(3)
    for key, name in [("S3xS3", "stdXstd"), ("C2xC2", "pauli")]:
        _, rep = catalog.get(key, name)
        t = np.eye(rep.dim) + 0.3 * rng.standard_normal((rep.dim, rep.dim))
        out.append(pytest.param(Representation(
            group=rep.group, dim=rep.dim, matrices=t @ rep.matrices @ np.linalg.inv(t),
            cocycle=rep.cocycle), id=f"{key}:nonunitary"))
    return out


@pytest.mark.parametrize("rep", _conjugation_inputs())
def test_inverses_read_off_the_group_table(rep):
    """``rho(g^-1) / alpha(g, g^-1)`` is ``rho(g)^-1`` in any basis."""
    got = rep.inverses()
    assert np.max(np.linalg.norm(got - np.linalg.inv(rep.matrices), axis=(1, 2))) <= CERT_TOL
    some = [rep.group.order - 1, 0, rep.group.order - 1]
    assert np.array_equal(rep.inverses(some), got[some])


@pytest.mark.parametrize("rep", _conjugation_inputs())
def test_conjugation_decomposition_matches_the_kronecker_action(rep):
    got = conjugation_decomposition(rep)
    want = _kron_decomposition(rep)
    assert [(c.irrep_label, c.multiplicity, c.dim) for c in got] == \
        [w[:3] for w in want]
    for c, w in zip(got, want):
        assert np.max(np.abs(c.projector - w[3])) < 1e-10


def test_conjugation_decomposition_holds_no_full_action():
    """S3^3 on std^3 (n = 216, d = 8): the decomposition peaks below the
    16 n d^4 bytes that the materialized action alone would take."""
    rep = _outer("S3:std", "S3:std", "S3:std")
    n, d = rep.group.order, rep.dim
    tracemalloc.start()
    try:
        conjugation_decomposition(rep)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * n * d ** 4


def _one_dim_char_rep(h_group, chi):
    mats = np.array([[[chi.at_element(x)]] for x in h_group.elements()])
    return Representation(group=h_group, dim=1, matrices=mats,
                          name=None)


def test_restrict_and_induce_round_trip():
    g, std = catalog.get("S3", "std")
    c3 = next(s for s in all_subgroups(g) if s.order == 3)
    res = restrict(std, c3)
    assert validate(res).max_deviation < 1e-10
    h = c3.as_group()
    # std restricted to C3 = omega + omega^2; induce either back up to std
    omega = next(c for c in character_table(h)
                 if abs(c.at_element(h.identity) - 1) < 1e-9
                 and inner_product(c, character(res)) == 1)
    w = _one_dim_char_rep(h, omega)
    assert is_induced_from(std, c3, w)
    ind = induce(c3, w)
    assert ind.dim == 2
    assert validate(ind).max_deviation < 1e-10
    assert inner_product(character(ind), character(std)) == 1


def test_frobenius_reciprocity():
    """<Ind chi_W, chi_V>_G = <chi_W, Res chi_V>_H over all subgroups of S3."""
    g, std = catalog.get("S3", "std")
    chi_v = character(std)
    for sub in all_subgroups(g):
        chi_res = character(restrict(std, sub))
        for chi_w in character_table(sub.as_group()):
            lhs = inner_product(induced_character(sub, chi_w), chi_v)
            rhs = inner_product(chi_w, chi_res)
            assert lhs == rhs


def test_unitarize():
    g, rep = catalog.get("S3", "std")
    # skew the basis so the rep is no longer unitary
    s = np.array([[1.0, 0.7], [0.0, 1.0]])
    skewed = Representation(group=g, dim=2,
                            matrices=np.stack([s @ m @ np.linalg.inv(s)
                                               for m in rep.matrices]),
                            name="skewed")
    # measured, not declared: max |rho(g)^* rho(g) - I|
    want = max(np.linalg.norm(m.conj().T @ m - np.eye(2)) for m in skewed.matrices)
    assert want > 1 and validate(skewed).unitary_deviation == pytest.approx(want, rel=1e-12)
    assert validate(rep).unitary_deviation < 1e-12
    fixed, t = unitarize(skewed)
    for m in fixed.matrices:
        assert np.linalg.norm(m @ m.conj().T - np.eye(2)) < 1e-9
    for x in g.elements():
        assert np.linalg.norm(t @ skewed.matrices[x] @ np.linalg.inv(t)
                              - fixed.matrices[x]) < 1e-9


def test_equivariant_hom_space_schur():
    _, std = catalog.get("S3", "std")
    _, triv = catalog.get("S3", "triv")
    assert equivariant_hom_space(std, std).shape[0] == 1
    assert equivariant_hom_space(std, triv).shape[0] == 0
    _, direct = catalog.get("S3", "trivPlusSignPlusStd")
    assert equivariant_hom_space(std, direct).shape[0] == 1


def _conjugation_action(rep):
    """``X -> rho X rho^-1`` on row-major flattened matrices, one Kronecker
    product per element: Skolem-Noether's input."""
    return np.stack([np.kron(m, np.linalg.inv(m).T) for m in rep.matrices])


@pytest.mark.parametrize("key,rep_name", IRREDUCIBLE)
def test_skolem_noether_round_trip(key, rep_name):
    """Conjugation action -> lift -> same action, with scalar-related matrices."""
    g, rep = catalog.get(key, rep_name)
    action = _conjugation_action(rep)
    lifted = skolem_noether_lift(g, action)
    alpha = lifted.cocycle
    inv = np.linalg.inv(lifted.matrices)
    for x in g.elements():
        got = np.kron(lifted.matrices[x], inv[x].T)
        assert np.linalg.norm(got - action[x]) < 1e-8
        c, ok = scalar_multiple_of_identity(lifted.matrices[x]
                                            @ np.linalg.inv(rep.matrices[x]))
        assert ok
        assert abs(abs(c) - 1.0) < 1e-8
    # linear input: any recovered cocycle is a coboundary, values on the circle
    if alpha is not None:
        assert np.max(np.abs(np.abs(alpha.values) - 1.0)) < 1e-8


def test_skolem_noether_pauli_commutator():
    """The Klein-four conjugation action lifts only projectively."""
    g, rep = catalog.get("C2xC2", "pauli")
    action = _conjugation_action(rep)
    lifted = skolem_noether_lift(g, action)
    alpha = lifted.cocycle
    x = product_index(2, 1, 0)
    z = product_index(2, 0, 1)
    mx, mz = lifted.matrices[x], lifted.matrices[z]
    comm = mx @ mz @ np.linalg.inv(mx) @ np.linalg.inv(mz)
    c, ok = scalar_multiple_of_identity(comm)
    assert ok
    assert abs(c - (-1.0)) < 1e-8
    assert alpha is not None  # genuinely projective


def test_skolem_noether_rejects_non_automorphism():
    g, rep = catalog.get("S3", "std")
    action = _conjugation_action(rep)
    action[2] *= 2  # maps I to 2I: linear, but not unital
    with pytest.raises(NotAnAutomorphism, match="element 2 does not fix the identity"):
        skolem_noether_lift(g, action)


def test_skolem_noether_rejects_anti_automorphism():
    """Transposition fixes I but reverses products."""
    c2 = build_from_mult_table([[0, 1], [1, 0]])
    d = 3
    transpose = np.eye(d * d).reshape(d, d, d, d).transpose(1, 0, 2, 3)
    transpose = transpose.reshape(d * d, d * d)
    with pytest.raises(NotAnAutomorphism, match="not multiplicative"):
        skolem_noether_lift(c2, np.stack([np.eye(d * d), transpose]))


def test_skolem_noether_non_faithful_action():
    """Kernel elements act trivially; the lift sends them to the identity line."""
    g, rep = catalog.get("S3", "trivPlusSign")
    action = _conjugation_action(rep)
    lifted = skolem_noether_lift(g, action)
    for x in g.elements():
        if np.linalg.norm(action[x] - np.eye(4)) < 1e-9:
            c, ok = scalar_multiple_of_identity(lifted.matrices[x])
            assert ok and abs(abs(c) - 1.0) < 1e-8


def _cocycle_by_pairs(group, mats):
    """Reference recovery: one scalar test per (g, h), in row-major order.

    Returns the table, or the first pair whose product is not scalar.
    """
    n, k = group.order, mats.shape[1]
    vals = np.ones((n, n), dtype=complex)
    for g in range(n):
        for h in range(n):
            m = mats[g] @ mats[h] @ np.linalg.inv(mats[group.mult[g, h]])
            c = np.trace(m) / k
            if np.linalg.norm(m - c * np.eye(k)) > 1e-6 * max(1.0, abs(c) * np.sqrt(k)):
                return (g, h)
            vals[g, h] = c
    vals[group.identity, :] = 1.0
    vals[:, group.identity] = 1.0
    return vals


def test_cocycle_recovery_matches_pairwise_reference():
    """Projective S3 std x Pauli: the batched table equals the pair loop."""
    s3, std = catalog.get("S3", "std")
    k4, pauli = catalog.get("C2xC2", "pauli")
    group = direct_product(s3, k4)
    mats = np.stack([np.kron(std.matrices[a], pauli.matrices[b])
                     for a in range(s3.order) for b in range(k4.order)])
    want = _cocycle_by_pairs(group, mats)
    rep = _as_projective_rep(group, mats.copy(), None)
    assert rep.cocycle is not None
    assert np.max(np.abs(rep.cocycle.values - want)) < 1e-12
    # alpha((a, b), (c, e)) = alpha_pauli(b, e)
    alpha = np.tile(pauli.cocycle.values, (s3.order, s3.order))
    assert np.max(np.abs(rep.cocycle.values - alpha)) < 1e-12


def test_cocycle_recovery_names_first_non_scalar_pair():
    g, rep = catalog.get("S3", "std")
    mats = np.array(rep.matrices)
    mats[[1, 2]] = mats[[2, 1]]  # no longer multiplicative up to scalars
    pair = _cocycle_by_pairs(g, mats)
    assert isinstance(pair, tuple)
    with pytest.raises(ToleranceFailure,
                       match=rf"not scalar at \({pair[0]}, {pair[1]}\)$"):
        _as_projective_rep(g, mats, None)
