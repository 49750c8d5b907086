"""Wedderburn structure: idempotents, centralizers, embedding invariants."""

from types import SimpleNamespace

import numpy as np
import pytest

from invalg import catalog
from invalg import (MatchFailure, MatrixSubspace, NotSemisimple,
                    center, centralizer, central_primitive_idempotents,
                    double_centralizer_check, enumerate_invariant_subalgebras,
                    inertia_subgroup, is_invariant, is_symmetrically_embedded,
                    permutation_action, semisimplicity_certificate,
                    wedderburn_decompose, z0)
from invalg._linalg import EQ_TOL
from invalg.algebras import _spectral_split
from invalg.groups import all_subgroups
from invalg.reps import Representation


def _unit(i, j, d):
    m = np.zeros((d, d), dtype=complex)
    m[i, j] = 1.0
    return m


def _diag_algebra(d):
    return MatrixSubspace.from_spanning([_unit(i, i, d) for i in range(d)])


def test_centralizer_extremes():
    full = MatrixSubspace.full((3, 3))
    line = MatrixSubspace.identity_line(3)
    assert centralizer(full).equals(line)
    assert centralizer(line).equals(full)
    assert centralizer(_diag_algebra(3)).equals(_diag_algebra(3))


def test_center_of_block_algebra():
    # B = M2 + M1 block-diagonal inside M3
    basis = [_unit(i, j, 3) for i in range(2) for j in range(2)] + [_unit(2, 2, 3)]
    b = MatrixSubspace.from_spanning(basis)
    zb = center(b)
    assert zb.dim == 2
    assert zb.contains(_unit(0, 0, 3) + _unit(1, 1, 3))
    assert zb.contains(_unit(2, 2, 3))


def test_semisimplicity_certificate_detects_radical():
    upper = MatrixSubspace.from_spanning([_unit(0, 0, 2), _unit(0, 1, 2),
                                          _unit(1, 1, 2)])
    sv, witness = semisimplicity_certificate(upper)
    assert sv < 1e-10
    assert witness is not None
    # the witness generates the nilpotent radical: here the span of E01
    assert np.linalg.norm(witness @ witness) < 1e-8 * np.linalg.norm(witness)
    sv_ok, witness_ok = semisimplicity_certificate(_diag_algebra(3))
    assert sv_ok > 1e-3
    assert witness_ok is None


def test_central_primitive_idempotents_diag():
    diag = _diag_algebra(3)
    idems = central_primitive_idempotents(diag, seed=0)
    assert len(idems) == 3
    got = sorted(tuple(np.round(np.real(np.diag(p)), 6)) for p in idems)
    assert got == [(0.0, 0.0, 1.0), (0.0, 1.0, 0.0), (1.0, 0.0, 0.0)]


def test_central_primitive_idempotents_full():
    idems = central_primitive_idempotents(MatrixSubspace.full((2, 2)), seed=0)
    assert len(idems) == 1
    assert np.linalg.norm(idems[0] - np.eye(2)) < 1e-9


def test_idempotents_reject_nilpotents():
    upper = MatrixSubspace.from_spanning([_unit(0, 0, 2), _unit(0, 1, 2),
                                          _unit(1, 1, 2)])
    with pytest.raises(NotSemisimple) as exc:
        central_primitive_idempotents(upper, seed=0)
    assert exc.value.witness is not None


def test_wedderburn_decompose_multiplicity():
    # M2 embedded with multiplicity 2 in M4: a |-> diag(a, a)
    basis = [np.kron(np.eye(2), _unit(i, j, 2)) for i in range(2) for j in range(2)]
    b = MatrixSubspace.from_spanning(basis)
    dec = wedderburn_decompose(b, seed=0)
    assert list(dec.component_dims) == [2]
    assert list(dec.multiplicities) == [2]
    assert dec.unital
    assert double_centralizer_check(b)


@pytest.mark.parametrize("basis, dims, unit", [
    ([_unit(0, 0, 2)], [1], [1, 0]),                                        # C E_11 in M2
    ([_unit(i, j, 3) for i in range(2) for j in range(2)], [2], [1, 1, 0]),  # M2 + 0 in M3
])
def test_wedderburn_decompose_nonunital(basis, dims, unit):
    """A unit other than I: a generic central element has an extra
    0-cluster on (I - unit)V, which is split off and dropped."""
    dec = wedderburn_decompose(MatrixSubspace.from_spanning(basis), seed=0)
    assert (dec.component_dims, dec.multiplicities, dec.unital) == (dims, [1], False)
    assert len(dec.idempotents) == 1
    np.testing.assert_allclose(dec.idempotents[0], np.diag(unit), atol=1e-10)


def test_wedderburn_decompose_two_blocks():
    # M2 + M1 with multiplicities 1 and 2 inside M4
    basis = [_unit(i, j, 4) for i in range(2) for j in range(2)]
    basis.append(_unit(2, 2, 4) + _unit(3, 3, 4))
    b = MatrixSubspace.from_spanning(basis)
    dec = wedderburn_decompose(b, seed=0)
    assert sorted(zip(dec.component_dims, dec.multiplicities)) == [(1, 2), (2, 1)]


def test_is_invariant_s3():
    _, rep = catalog.get("S3", "std")
    subs, _ = enumerate_invariant_subalgebras(rep)
    for s in subs:
        assert is_invariant(s.space, rep)
    # a coordinate-axis projector is moved by the rotations
    axis = MatrixSubspace.from_spanning([np.diag([1.0, 0.0])])
    assert not is_invariant(axis, rep)


def _invariant_under_every_element(space, rep, tol=1e-8):
    """Reference: the conjugate of every basis matrix by every element
    stays, each conjugation one Kronecker product on the flattened matrix."""
    return all(space.contains((np.kron(m, np.linalg.inv(m).T) @ b.reshape(-1))
                              .reshape(space.shape), tol)
               for m in rep.matrices for b in space.basis())


def test_is_invariant_matches_all_elements():
    """The generator check agrees with the check over all 36 elements."""
    g, rep = catalog.get("S3xS3", "stdXstd")
    subs, _ = enumerate_invariant_subalgebras(rep)
    spaces = [s.space for s in subs]
    # commutants of subgroups: preserved by some elements, not by all
    for sub in all_subgroups(g)[1:-1]:
        spaces.append(centralizer(MatrixSubspace.from_spanning(
            rep.matrices[list(sub.members)])))
    rng = np.random.default_rng(0)
    for k in (1, 3, 8):
        spaces.append(MatrixSubspace.from_spanning(
            rng.standard_normal((k, 4, 4)) + 1j * rng.standard_normal((k, 4, 4))))
    got = [is_invariant(s, rep) for s in spaces]
    assert got == [_invariant_under_every_element(s, rep) for s in spaces]
    assert True in got and False in got


def test_symmetric_embedding_flags():
    _, rep = catalog.get("S3", "std")
    subs, _ = enumerate_invariant_subalgebras(rep)
    for s in subs:
        assert is_symmetrically_embedded(s)


def test_permutation_action_cartan():
    """Conjugation permutes the two components of the invariant Cartan transitively."""
    _, rep = catalog.get("S3", "std")
    subs, _ = enumerate_invariant_subalgebras(rep)
    cartan = next(s for s in subs if s.dim == 2)
    sigma, transitive = permutation_action(cartan, rep)
    assert sigma.shape == (6, 2)
    assert transitive
    ident = rep.group.identity
    assert list(sigma[ident]) == [0, 1]
    # transpositions swap the two idempotents, rotations fix them
    n_swaps = sum(1 for x in rep.group.elements() if list(sigma[x]) == [1, 0])
    assert n_swaps == 3


def test_inertia_subgroup_cartan():
    _, rep = catalog.get("S3", "std")
    subs, _ = enumerate_invariant_subalgebras(rep)
    cartan = next(s for s in subs if s.dim == 2)
    h = inertia_subgroup(cartan, rep)
    assert h.order == 3
    full = next(s for s in subs if s.dim == 4)
    assert inertia_subgroup(full, rep).order == 6


def test_z0_spans_the_idempotents():
    _, rep = catalog.get("Q8", "std")
    subs, _ = enumerate_invariant_subalgebras(rep)
    for s in subs:
        line = z0(s.space)
        assert line.dim == s.num_components
        assert s.space.contains_space(line)
        assert center(s.space).equals(line)


def test_permutation_action_names_first_unmatched_idempotent():
    """Coordinate projectors are not permuted by S3 std in a rotated basis.

    The identity is listed first: it is fixed, so the first failure is at a
    later index.
    """
    _, rep = catalog.get("S3", "std")
    c, s = np.cos(0.3), np.sin(0.3)
    rot = np.array([[c, -s], [s, c]])
    mats = np.array([rot @ m @ rot.T for m in rep.matrices])
    rotated = Representation(group=rep.group, dim=2, matrices=mats)
    idems = [np.eye(2, dtype=complex), np.diag([1.0, 0.0]).astype(complex),
             np.diag([0.0, 1.0]).astype(complex)]
    first = None
    for g in rep.group.elements():
        for i, e in enumerate(idems):
            moved = mats[g] @ e @ np.linalg.inv(mats[g])
            if min(np.linalg.norm(moved - f) for f in idems) > EQ_TOL * np.linalg.norm(e):
                first = first or (g, i)
    assert first is not None and first[0] != rep.group.identity and first[1] > 0
    with pytest.raises(MatchFailure, match=f"idempotent {first[1]} by element {first[0]} "):
        permutation_action(SimpleNamespace(idempotents=idems), rotated)


def test_a_full_split_is_certified_on_its_eigenpairs(monkeypatch):
    """With one cluster per row the split reads no space.  Eigenvalues off by
    1e-3 leave the eigenvectors' inverse residual clean but fail the
    eigen-residual bound, on every draw."""
    basis = np.array([np.diag([1.0, 2.0, 3.0])])
    projs = sorted(_spectral_split(None, basis, 3, 0), key=lambda p: np.argmax(np.diag(p).real))
    np.testing.assert_allclose(projs, [np.diag(row) for row in np.eye(3)], atol=1e-12)
    eig = np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig", lambda x: (eig(x)[0] + 1e-3, eig(x)[1]))
    assert _spectral_split(None, basis, 3, 0) is None
