"""Shared linear-algebra kernels: nullspaces and intertwiner solves."""

import numpy as np
import pytest

from invalg import catalog, character, equivariant_hom_space, inner_product
from invalg._linalg import intertwiners, nullspace


def _low_rank(rows, cols, rank, seed):
    rng = np.random.default_rng(seed)
    left = rng.standard_normal((rows, rank)) + 1j * rng.standard_normal((rows, rank))
    right = rng.standard_normal((rank, cols)) + 1j * rng.standard_normal((rank, cols))
    return left @ right


@pytest.mark.parametrize("rows,cols,rank", [(40, 6, 4), (3, 9, 3), (7, 7, 5)])
def test_nullspace_tall_and_wide(rows, cols, rank):
    """Both sides of the thin/full SVD choice give an orthonormal nullspace."""
    a = _low_rank(rows, cols, rank, seed=rows * cols)
    null = nullspace(a)
    assert null.shape == (cols - rank, cols)
    assert np.linalg.norm(a @ null.T) < 1e-8 * np.linalg.norm(a)
    assert np.allclose(null.conj() @ null.T, np.eye(cols - rank))
    # same subspace as the full SVD gives
    vh = np.linalg.svd(a, full_matrices=True)[2]
    want = vh[rank:].conj()
    assert np.allclose(null.T @ null.conj(), want.T @ want.conj())


def test_nullspace_of_empty_system_is_everything():
    assert np.array_equal(nullspace(np.zeros((0, 3))), np.eye(3))


def test_intertwiners_rectangular():
    """Maps from the 2-dim std rep into a 4-dim sum of S3 reps."""
    _, std = catalog.get("S3", "std")
    _, big = catalog.get("S3", "trivPlusSignPlusStd")
    xs = intertwiners(std.matrices, big.matrices)
    assert xs.shape[1:] == (4, 2)
    for x in xs:
        for a, b in zip(std.matrices, big.matrices):
            assert np.linalg.norm(x @ a - b @ x) < 1e-10
    flat = xs.reshape(len(xs), -1)
    assert np.allclose(flat.conj() @ flat.T, np.eye(len(xs)))
    assert len(xs) == len(equivariant_hom_space(std, big))
    assert len(xs) == inner_product(character(big), character(std)).real == 1
    # the other direction: 2 x 4 maps
    back = intertwiners(big.matrices, std.matrices)
    assert back.shape == (1, 2, 4)


def test_intertwiners_without_pairs_is_everything():
    xs = intertwiners(np.zeros((0, 2, 2)), np.zeros((0, 3, 3)))
    assert xs.shape == (6, 3, 2)


def test_intertwiners_needs_matching_counts():
    with pytest.raises(ValueError):
        intertwiners(np.zeros((2, 2, 2)), np.zeros((1, 2, 2)))
