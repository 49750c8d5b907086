"""Subspaces of complex matrix space with Hilbert-Schmidt orthonormal bases.

All membership and equality decisions are residual-based: a matrix belongs to
a subspace when the norm of its component orthogonal to the subspace is small
relative to the matrix norm, floored at one.
"""

import numpy as np

from ._linalg import EQ_TOL, RANK_TOL, nullspace, row_norms, row_space


class MatrixSubspace:
    """A subspace of ``rows x cols`` complex matrices.

    The basis is stored flattened as orthonormal rows of ``self.flat`` (the
    Hilbert-Schmidt inner product on matrices is the standard one on the
    flattened vectors).  It is read-only, so memos on the space stay valid:
    ``_memo`` maps ``(function name, tol)`` to the space's centralizer,
    center, structure constants and semisimplicity certificate.
    """

    def __init__(self, flat, shape):
        self.flat = np.asarray(flat, dtype=complex).view()
        self.flat.flags.writeable = False
        self._memo = {}
        self.shape = (int(shape[0]), int(shape[1]))
        if self.flat.ndim != 2 or self.flat.shape[1] != self.shape[0] * self.shape[1]:
            raise ValueError("flattened basis has wrong width for shape")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_spanning(cls, mats, shape=None, tol=RANK_TOL):
        """Span of a stack (or list) of matrices."""
        mats = np.asarray(mats, dtype=complex)
        if shape is None:
            if not len(mats):
                raise ValueError("need a shape for an empty spanning set")
            shape = mats.shape[1:]
        if not len(mats):
            return cls.zero(shape)
        return cls(row_space(mats.reshape(len(mats), -1), tol), shape)

    @classmethod
    def zero(cls, shape):
        if np.isscalar(shape):
            shape = (shape, shape)
        return cls(np.zeros((0, shape[0] * shape[1]), dtype=complex), shape)

    @classmethod
    def full(cls, shape):
        if np.isscalar(shape):
            shape = (shape, shape)
        return cls(np.eye(shape[0] * shape[1], dtype=complex), shape)

    @classmethod
    def identity_line(cls, d):
        if not np.isscalar(d):
            d = d[0]
        v = np.eye(d, dtype=complex).reshape(1, -1) / np.sqrt(d)
        return cls(v, (d, d))

    # -- basic queries -----------------------------------------------------

    @property
    def dim(self):
        return self.flat.shape[0]

    @property
    def ambient_dim(self):
        if self.shape[0] != self.shape[1]:
            raise ValueError("ambient_dim is only defined for square matrices")
        return self.shape[0]

    def basis(self):
        return self.flat.reshape(-1, *self.shape)

    def project(self, m):
        v = np.asarray(m, dtype=complex).reshape(-1)
        coeff = self.flat.conj() @ v
        return (coeff @ self.flat).reshape(self.shape)

    def contains(self, m, tol=RANK_TOL):
        """Whether ``|m - project(m)| <= tol * max(1, |m|)``."""
        return self.contains_all(m, tol)

    def contains_all(self, mats, tol=RANK_TOL):
        """Whether every matrix of the stack ``mats`` passes :meth:`contains`.

        One projection of the whole stack (a single matrix is a stack of
        one); each matrix keeps its own bound.  The floor lets a product that
        is zero up to rounding pass; so does an empty stack.
        """
        flat = np.asarray(mats, dtype=complex).reshape(-1, self.flat.shape[1])
        diff = (flat @ self.flat.conj().T) @ self.flat
        diff -= flat
        return bool(np.all(row_norms(diff) <= tol * np.maximum(1.0, row_norms(flat))))

    def contains_space(self, other, tol=EQ_TOL):
        return self.contains_all(other.flat, tol)

    def equals(self, other, tol=EQ_TOL):
        if self.shape != other.shape or self.dim != other.dim:
            return False
        return self.contains_space(other, tol) and other.contains_space(self, tol)

    def contains_identity(self, tol=RANK_TOL):
        return self.contains(np.eye(self.ambient_dim), tol)

    # -- lattice / algebra operations --------------------------------------

    def add(self, other, tol=RANK_TOL):
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return MatrixSubspace.from_spanning(
            np.concatenate([self.flat, other.flat]), self.shape, tol)

    def intersect(self, other, tol=RANK_TOL):
        """Intersection via the nullspace of stacked coordinate equations."""
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        if self.dim == 0 or other.dim == 0:
            return MatrixSubspace.zero(self.shape)
        c1 = self.flat.T          # columns span self (as vectors)
        c2 = other.flat.T
        stacked = np.hstack([c1, -c2])
        null_rows = nullspace(stacked, tol)
        return MatrixSubspace.from_spanning(
            null_rows[:, :self.dim] @ self.flat, self.shape, tol)

    def is_product_closed(self, tol=RANK_TOL):
        """Whether all pairwise basis products re-project into the space."""
        if self.shape[0] != self.shape[1]:
            raise ValueError("products need square matrices")
        basis = self.basis()
        return self.contains_all(basis[:, None] @ basis[None], tol)

    def fingerprint(self, ndigits=9):
        """Basis-independent sort key: the rounded orthogonal projector."""
        p = self.flat.conj().T @ self.flat
        r = np.round(p.real, ndigits) + 0.0
        i = np.round(p.imag, ndigits) + 0.0
        return np.stack([r, i]).tobytes()


class SpaceIndex:
    """A growing list of spaces, searched by ``(dim, fingerprint)`` for one
    equal to a given space; a fingerprint can round differently on equal
    spaces, so a miss falls back to comparing every entry in order."""

    def __init__(self, spaces=()):
        self.spaces, self._keys = [], {}
        for sp in spaces:
            self.append(sp)

    def append(self, space):
        self._keys.setdefault((space.dim, space.fingerprint()), len(self.spaces))
        self.spaces.append(space)

    def find(self, space):
        """Index of an entry equal to ``space`` (the first, on a miss), or ``None``."""
        j = self._keys.get((space.dim, space.fingerprint()))
        if j is not None and self.spaces[j].equals(space):
            return j
        return next((j for j, sp in enumerate(self.spaces) if sp.equals(space)), None)


def span_product(s1, s2, tol=RANK_TOL):
    """Span of all pairwise products of basis matrices of two subspaces."""
    if s1.shape[1] != s2.shape[0]:
        raise ValueError("inner dimensions do not match")
    out_shape = (s1.shape[0], s2.shape[1])
    prods = s1.basis()[:, None] @ s2.basis()[None]
    return MatrixSubspace.from_spanning(prods.reshape(-1, *out_shape), out_shape, tol)


def generated_algebra(space, include_identity=False, tol=RANK_TOL):
    """Smallest product-closed subspace containing ``space``.

    Fixpoint iteration: repeatedly adjoin the span of pairwise products until
    the dimension stabilizes.  Optionally adjoins the identity first.
    """
    d = space.ambient_dim
    cur = space
    if include_identity:
        cur = cur.add(MatrixSubspace.identity_line(d), tol)
    while True:
        nxt = cur.add(span_product(cur, cur, tol), tol)
        if nxt.dim == cur.dim:
            return nxt
        cur = nxt
        if cur.dim > d * d:
            raise RuntimeError("closure exceeded the ambient dimension")
