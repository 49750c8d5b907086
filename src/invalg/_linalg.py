"""Small shared linear-algebra helpers (SVD-based ranks, nullspaces, rounding)
and the package's table of tolerances.

Every numerical decision in the package is taken against one of the names
below.  A ``tol`` argument (the CLI's ``--tol``) defaults to ``RANK_TOL`` and
moves the rank and membership decisions, with their ``tol * 10`` and
``tol * 100`` multiples; every other name is fixed.  A rank is always read by
:func:`_rank`'s relative rule.
"""

import math

import numpy as np

from .errors import RoundingAmbiguous

#: ranks and membership residuals, as the default ``tol``.  Fixed at this
#: value: the rank of the conjugation action's class trace form, the snap of a
#: recovered rho(1) to I, the drop of a recovered cocycle within it of one, the
#: floor of a declared cocycle's own check, and the orthonormality of a
#: ``SubspaceOfV`` basis
RANK_TOL = 1e-8
#: rounding a float to an integer, and comparing character values
INT_TOL = 1e-6
#: subspace equality (symmetric projection residual)
EQ_TOL = 1e-6
#: the fixed certificate residual: idempotents, matrix-unit relations,
#: units, automorphisms and the Skolem–Noether round trip, scalar products
#: and the law of a recovered projective representation, and rank one
CERT_TOL = 1e-6
#: eigenvalues of a spectral split cluster at this times the spectral radius
IDEMPOTENT_GAP = 1e-6
#: the multiple of ``tol`` for products of two unit basis matrices of
#: isotypic components: a product has a part in a component when the part's
#: norm is above ``tol * PART_SCALE`` times the product's, and the two commute
#: when their commutator's norm is at most ``tol * PART_SCALE`` (the product
#: norms are at most one, the floor of a membership residual)
PART_SCALE = 10
#: a trace below this counts as zero (corner matrix units that multiply to 0)
ZERO_TRACE = 1e-10
#: a determinant modulus below this counts as zero (a singular recovered matrix)
ZERO_DET = 1e-12


def _rank(s, tol):
    """Count of singular values ``s`` (descending) above ``tol * max(1, s[0])``.

    The one relative-rank rule: ``_rank(s, tol) < len(s)`` is the test for a
    singular matrix.
    """
    cutoff = tol * max(1.0, s[0] if s.size else 0.0)
    return int(np.sum(s > cutoff))


def nullspace(a, tol=RANK_TOL):
    """Orthonormal rows spanning ``{x : a @ x = 0}``."""
    a = np.asarray(a, dtype=complex)
    if a.size == 0:
        return np.eye(a.shape[1], dtype=complex)
    # a wide system needs the full V for its null rows; U is never read
    _, s, vh = np.linalg.svd(a, full_matrices=a.shape[0] < a.shape[1])
    return vh[_rank(s, tol):].conj()


def row_norms(a):
    """Euclidean (Frobenius) norm of each ``a[i]`` of a stack of rows or matrices.

    The squares are summed by one ``einsum`` over the interleaved real and
    imaginary parts, so no temporary as large as ``a`` is made.
    """
    a = np.ascontiguousarray(a)
    a = a.reshape(len(a), math.prod(a.shape[1:]))
    if np.iscomplexobj(a):
        a = a.view(a.real.dtype)
    return np.sqrt(np.einsum("ij,ij->i", a, a))


def kron_stack(a, b):
    """``np.kron(a_i, b_i)`` over stacks of matrices, broadcast on leading axes.

    One broadcast product with the factors in ``np.kron``'s order, so each
    result is bit-identical to the ``np.kron`` of its pair.
    """
    a, b = np.asarray(a), np.asarray(b)
    lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    prod = a[..., :, None, :, None] * b[..., None, :, None, :]
    return prod.reshape(*lead, a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1])


def intertwiners(a_mats, b_mats, tol=RANK_TOL):
    """Orthonormal basis of ``{X : X a_i = b_i X for all i}``, shape ``(k, p, q)``.

    ``a_i`` is ``q x q`` and ``b_i`` is ``p x p``.  On row-major flattened X,
    ``X a = (I kron a^T) x`` and ``b X = (b kron I) x``, so the solutions are
    the nullspace of the stacked differences; with no pairs every X solves.
    """
    a_mats, b_mats = np.asarray(a_mats), np.asarray(b_mats)
    q, p = a_mats.shape[-1], b_mats.shape[-1]
    if len(a_mats) != len(b_mats):
        raise ValueError(f"{len(a_mats)} matrices a_i but {len(b_mats)} matrices b_i")
    system = (kron_stack(np.eye(p), np.swapaxes(a_mats, -1, -2))
              - kron_stack(b_mats, np.eye(q)))
    return nullspace(system.reshape(-1, p * q), tol).reshape(-1, p, q)


def row_space(a, tol=RANK_TOL):
    """Orthonormal rows spanning the row space of ``a``."""
    a = np.asarray(a, dtype=complex)
    if a.size == 0 or a.shape[0] == 0:
        return np.zeros((0, a.shape[1]), dtype=complex)
    _, s, vh = np.linalg.svd(a, full_matrices=False)
    return vh[:_rank(s, tol)]


def column_space(a, tol=RANK_TOL):
    """Orthonormal columns spanning the column space of ``a``."""
    a = np.asarray(a, dtype=complex)
    if a.size == 0 or a.shape[1] == 0:
        return np.zeros((a.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    return u[:, :_rank(s, tol)]


def round_to_int(x, tol=INT_TOL, what="value"):
    """Round a real number to the nearest integer, or fail loudly."""
    n = int(round(float(x)))
    if abs(x - n) > tol:
        raise RoundingAmbiguous(f"{what} {x!r} is not within {tol} of an integer")
    return n


def round_to_gaussian_int(z, tol=INT_TOL, what="value"):
    """Round a complex number to the nearest Gaussian integer, or fail loudly."""
    z = complex(z)
    re = round_to_int(z.real, tol, what=f"Re {what}")
    im = round_to_int(z.imag, tol, what=f"Im {what}")
    return complex(re, im)


def cluster_complex(values, gap):
    """Group complex values into connected clusters at distance threshold ``gap``.

    Simple union-find; fine for the small spectra that arise here.
    """
    values = np.asarray(values)
    n = len(values)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(values[i] - values[j]) <= gap:
                parent[find(i)] = find(j)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    # deterministic ordering: by smallest (re, im) member
    def key(ix):
        zs = [(values[i].real, values[i].imag) for i in ix]
        return min(zs)

    return [np.array(ix) for ix in sorted(groups.values(), key=key)]


def scalar_multiple_of_identity(m, tol=RANK_TOL):
    """Test a stack of square matrices ``m[..., k, k]`` for being ``c*I``.

    Returns ``(c, ok)`` over the leading axes: ``c`` is trace/k and ``ok``
    marks the matrices with ``|m - c*I| <= tol * max(1, |c| sqrt(k))``.
    """
    m = np.asarray(m)
    k = m.shape[-1]
    c = np.trace(m, axis1=-2, axis2=-1) / k
    resid = np.linalg.norm(m - c[..., None, None] * np.eye(k), axis=(-2, -1))
    return c, resid <= tol * np.maximum(1.0, np.abs(c) * np.sqrt(k))
