"""Lattices of invariant subspaces and one-sided ideals.

The two mutually inverse lattice maps implemented here send a subspace
``L`` of the column space to the left ideal of matrices vanishing on ``L``
(order-reversing) and to the right ideal of matrices with image inside ``L``
(order-preserving).  Both extend verbatim to rectangular hom-spaces, and
ideals of a direct sum of matrix algebras are products of per-block ideals,
so infinite lattices occur exactly when some isotypic multiplicity exceeds
one; those are returned as a parametrization instead of a list.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from ._linalg import EQ_TOL, RANK_TOL, column_space, nullspace
from .errors import AssertionFailure, InfiniteLattice, NotAnIdeal
from .reps import commutant_decomposition
from .spaces import MatrixSubspace, span_product


@dataclass
class SubspaceOfV:
    """A subspace of the column space, stored as orthonormal columns."""

    ambient: int
    basis: np.ndarray  # (ambient, dim), orthonormal columns
    label: str = None

    def __post_init__(self):
        self.basis = np.asarray(self.basis, dtype=complex).reshape(self.ambient, -1)
        gram = self.basis.conj().T @ self.basis
        if np.linalg.norm(gram - np.eye(self.basis.shape[1])) > RANK_TOL:
            raise ValueError("subspace basis is not orthonormal")

    @classmethod
    def from_columns(cls, ambient, columns, tol=RANK_TOL, label=None):
        cols = np.asarray(columns, dtype=complex).reshape(ambient, -1)
        if cols.shape[1] == 0:
            return cls(ambient, np.zeros((ambient, 0)), label)
        basis = column_space(cols, tol)
        return cls(ambient, basis, label)

    @classmethod
    def zero(cls, ambient):
        return cls(ambient, np.zeros((ambient, 0)), label="0")

    @classmethod
    def full(cls, ambient):
        return cls(ambient, np.eye(ambient), label="V")

    @property
    def dim(self):
        return self.basis.shape[1]

    def projector(self):
        return self.basis @ self.basis.conj().T

    def contains(self, other, tol=EQ_TOL):
        p = self.projector()
        resid = np.linalg.norm(other.basis - p @ other.basis)
        return resid <= tol * max(1.0, self.ambient)

    def equals(self, other, tol=EQ_TOL):
        return (self.dim == other.dim and self.contains(other, tol)
                and other.contains(self, tol))

    def complement(self):
        """Orthonormal basis (columns) of the orthogonal complement."""
        if self.dim == 0:
            return np.eye(self.ambient, dtype=complex)
        if self.dim == self.ambient:
            return np.zeros((self.ambient, 0), dtype=complex)
        rows = nullspace(self.basis.conj().T)
        return rows.T

    def is_invariant(self, rep, tol=RANK_TOL):
        if self.dim in (0, self.ambient):
            return True
        p = self.projector()
        for g in rep.group.generators:
            moved = rep.matrices[g] @ self.basis
            if np.linalg.norm(moved - p @ moved) > tol * max(1.0, self.ambient):
                return False
        return True


@dataclass
class OneSidedIdeal:
    """A left or right ideal of matrices, with the subspace it came from."""

    side: str  # "left" | "right"
    space: MatrixSubspace
    source: SubspaceOfV = None

    def __post_init__(self):
        if self.side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {self.side!r}")

    @property
    def dim(self):
        return self.space.dim

    def verify(self, tol=RANK_TOL):
        """Check the one-sided ideal property; raise :class:`NotAnIdeal`."""
        rows, cols = self.space.shape
        if self.space.dim == 0:
            return
        if self.side == "left":
            prod = span_product(MatrixSubspace.full((rows, rows)), self.space, tol)
        else:
            prod = span_product(self.space, MatrixSubspace.full((cols, cols)), tol)
        if not self.space.contains_space(prod, tol * 10):
            raise NotAnIdeal(f"subspace is not a {self.side} ideal")


@dataclass
class Parametrization:
    """Description of an infinite invariant-subspace lattice.

    One factor per isotypic component: invariant subspaces are choices of an
    arbitrary subspace of each multiplicity space, so the lattice is a product
    of Grassmannian families and is infinite as soon as some multiplicity
    exceeds one.  Each factor's third entry is the dimension m d of the whole
    isotypic block, not the dimension d of its irreducible.
    """

    factors: list  # (label, multiplicity m, isotypic block dim m * irrep dim)

    @property
    def finite(self):
        return all(m <= 1 for _, m, _ in self.factors)

    def __str__(self):
        parts = ", ".join(f"{lbl}: subspaces of C^{m}" for lbl, m, _ in self.factors)
        return f"product of ({parts})"


def ann(subspace, codomain=None):
    """All maps (as matrices) vanishing on the subspace — a left ideal.

    With ``codomain`` given, works in the rectangular hom-space of
    ``codomain x ambient`` matrices; the result there is a left module over
    the square algebra acting on the codomain.
    """
    d = subspace.ambient
    dw = d if codomain is None else codomain
    comp = subspace.complement()  # (d, d - k)
    k = subspace.dim
    if comp.shape[1] == 0:
        return OneSidedIdeal("left", MatrixSubspace.zero((dw, d)), subspace)
    # row p of a spanning map is a conjugated complement vector; + 0.0 clears
    # the signed zeros kron leaves, which LAPACK can see
    rows = np.kron(np.eye(dw), comp.conj().T) + 0.0
    space = MatrixSubspace.from_spanning(rows.reshape(-1, dw, d), (dw, d))
    if space.dim != dw * (d - k):
        raise AssertionFailure(
            f"annihilator has dimension {space.dim}, expected {dw * (d - k)}")
    return OneSidedIdeal("left", space, subspace)


def coann(subspace, domain=None):
    """All maps with image inside the subspace — a right ideal.

    With ``domain`` given, works in the rectangular hom-space of
    ``ambient x domain`` matrices; the result is a right module over the
    square algebra acting on the domain.
    """
    d = subspace.ambient
    dv = d if domain is None else domain
    k = subspace.dim
    if k == 0:
        return OneSidedIdeal("right", MatrixSubspace.zero((d, dv)), subspace)
    # column q of a spanning map is a basis vector
    rows = np.kron(subspace.basis.T, np.eye(dv)) + 0.0
    space = MatrixSubspace.from_spanning(rows.reshape(-1, d, dv), (d, dv))
    if space.dim != k * dv:
        raise AssertionFailure(
            f"coannihilator has dimension {space.dim}, expected {k * dv}")
    return OneSidedIdeal("right", space, subspace)


def ideal_to_subspace(ideal, tol=RANK_TOL):
    """Common kernel of a left ideal / sum of images of a right ideal."""
    ideal.verify(tol)
    rows, cols = ideal.space.shape
    basis = ideal.space.basis()
    if ideal.side == "left":
        if len(basis) == 0:
            return SubspaceOfV.full(cols)
        stacked = np.vstack(basis)
        null_rows = nullspace(stacked, tol)
        return SubspaceOfV(cols, null_rows.T)
    if len(basis) == 0:
        return SubspaceOfV.zero(rows)
    stacked = np.hstack(basis)
    return SubspaceOfV(rows, column_space(stacked, tol))


def invariant_subspaces(rep, tol=RANK_TOL):
    """Invariant subspaces of a linear or projective representation, read
    off the commutant End_G(V) (:func:`.reps.commutant_decomposition`).

    Its components M_{m_i}, ordered by (rank e_i, m_i), are labelled ``U0,
    U1, ...``.  Multiplicity-free (every m_i = 1): all sums of the images of
    the e_i, ``2^m`` entries sorted by dimension.  Otherwise a
    :class:`Parametrization` describing the infinite lattice.
    """
    meta = commutant_decomposition(rep, tol)
    comps = sorted(zip(meta.component_dims, meta.multiplicities, meta.idempotents),
                   key=lambda c: (c[0] * c[1], c[0]))
    if any(m > 1 for m, _, _ in comps):
        return Parametrization([(f"U{i}", m, m * d_i) for i, (m, d_i, _) in enumerate(comps)])
    images = [column_space(e, tol) for _, _, e in comps]
    out = []
    for r in range(len(comps) + 1):
        for subset in itertools.combinations(range(len(comps)), r):
            if not subset:
                out.append(SubspaceOfV.zero(rep.dim))
                continue
            cols = np.hstack([images[i] for i in subset])
            label = "+".join(f"U{i}" for i in subset)
            out.append(SubspaceOfV.from_columns(rep.dim, cols, tol, label=label))
    out.sort(key=lambda s: (s.dim, np.round(s.projector(), 9).tobytes()))
    return out


def _ideal_lattice(subs, side, tol, other=None):
    """The ideal of each subspace in ``subs``: vanishing (``ann``) for the
    left side, image (``coann``) for the right, in the hom-space to or from
    dimension ``other`` when given.  The order law is verified on every pair.
    """
    ideals = [ann(s, other) if side == "left" else coann(s, other) for s in subs]
    for i, si in enumerate(subs):
        for j, sj in enumerate(subs):
            if not si.contains(sj, tol * 10):
                continue
            # sj <= si
            if side == "left":
                ok = ideals[j].space.contains_space(ideals[i].space, tol * 10)
            else:
                ok = ideals[i].space.contains_space(ideals[j].space, tol * 10)
            if not ok:
                law = "reversal" if side == "left" else "preservation"
                raise AssertionFailure(f"order {law} fails on a subspace pair")
    return ideals


def invariant_ideals(rep, side, tol=RANK_TOL):
    """Invariant one-sided ideals of the full matrix algebra on V.

    Left ideals come from the vanishing map (order-reversing), right ideals
    from the image map (order-preserving); both order laws are verified on
    every pair before returning.  Raises :class:`InfiniteLattice` when some
    multiplicity exceeds one.
    """
    subs = invariant_subspaces(rep, tol=tol)
    if isinstance(subs, Parametrization):
        raise InfiniteLattice(
            "invariant subspace lattice is infinite: " + str(subs),
            parametrization=subs)
    return _ideal_lattice(subs, side, tol)


def hom_lattice(v_rep, w_rep, side, tol=RANK_TOL):
    """Invariant one-sided submodules of the hom-space from V to W.

    Left submodules (under the matrix algebra on W) are vanishing ideals of
    invariant subspaces of V; right submodules (under the algebra on V) are
    image ideals of invariant subspaces of W.
    """
    rep, other, where = ((v_rep, w_rep, "domain") if side == "left"
                         else (w_rep, v_rep, "codomain"))
    subs = invariant_subspaces(rep, tol=tol)
    if isinstance(subs, Parametrization):
        raise InfiniteLattice(
            f"infinite lattice on the {where}: " + str(subs), parametrization=subs)
    out = _ideal_lattice(subs, side, tol, other.dim)
    for ideal in out:
        ideal.verify(tol)
    return out


@dataclass
class ProductLattice:
    """Ideals of a direct sum of matrix blocks: one choice per block."""

    side: str
    factors: list  # per-block lists of OneSidedIdeal
    block_dims: list

    @property
    def count(self):
        n = 1
        for f in self.factors:
            n *= len(f)
        return n

    def materialize(self, choice):
        """Block-diagonal matrix subspace for one tuple of per-block picks."""
        total = sum(self.block_dims)
        offsets = np.concatenate([[0], np.cumsum(self.block_dims)])
        mats = []
        for b, pick in enumerate(choice):
            ideal = self.factors[b][pick]
            for m in ideal.space.basis():
                big = np.zeros((total, total), dtype=complex)
                lo, hi = offsets[b], offsets[b + 1]
                big[lo:hi, lo:hi] = m
                mats.append(big)
        if not mats:
            return MatrixSubspace.zero((total, total))
        return MatrixSubspace.from_spanning(mats, (total, total))

    def __iter__(self):
        ranges = [range(len(f)) for f in self.factors]
        return (self.materialize(choice) for choice in itertools.product(*ranges))


def semisimple_ideal_lattice(components, side, tol=RANK_TOL):
    """Invariant one-sided ideals of a direct sum of full matrix blocks.

    ``components`` is a list of representations, one per block; the ideal
    lattice of the sum is the product of the per-block lattices, so the
    counts multiply.
    """
    factors = []
    for rep in components:
        factors.append(invariant_ideals(rep, side, tol=tol))
    return ProductLattice(side, factors, [rep.dim for rep in components])
