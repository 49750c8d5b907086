"""Structure theory of product-closed matrix subspaces.

Semisimplicity is certified by nondegeneracy of the trace form
``(x, y) -> tr(L_x L_y)`` of the left regular action (whose radical equals
the Jacobson radical in characteristic zero, so a nullspace vector is a
radical witness).  Central primitive idempotents come from eigenprojections
of a generic central element: a central element of a semisimple algebra acts
as a scalar on each Wedderburn block, so its spectral projectors *are* the
block idempotents whenever the scalars separate.
"""

from dataclasses import dataclass

import numpy as np

from ._linalg import (EQ_TOL, RANK_TOL, cluster_complex, intertwiners,
                      round_to_int)
from .errors import (AssertionFailure, MatchFailure, NotSemisimple,
                     ToleranceFailure)
from .groups import Subgroup
from .spaces import MatrixSubspace

IDEMPOTENT_RETRIES = 20
IDEMPOTENT_GAP = 1e-6


@dataclass
class InvariantSubalgebra:
    """A product-closed invariant subspace with its Wedderburn data."""

    space: MatrixSubspace
    unital: bool
    idempotents: list
    component_dims: list
    multiplicities: list
    induction_datum: object = None

    @property
    def dim(self):
        return self.space.dim

    @property
    def num_components(self):
        return len(self.component_dims)


def centralizer(space, tol=RANK_TOL):
    """Matrices commuting with every element of ``space`` (in the full algebra)."""
    d = space.ambient_dim
    basis = space.basis()
    return MatrixSubspace(intertwiners(basis, basis, tol).reshape(-1, d * d), (d, d))


def center(space, tol=RANK_TOL):
    """Elements of ``space`` commuting with all of ``space``."""
    return space.intersect(centralizer(space, tol), tol)


def left_multiplication_operators(space, tol=RANK_TOL):
    """Matrices of left multiplication on the space's own basis.

    Requires product closure; the residual of re-projecting each product is
    checked against ``tol`` and a ValueError raised on violation.
    """
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


def trace_form_gram(space, tol=RANK_TOL):
    """Gram matrix of ``(x, y) -> tr(L_x L_y)`` on the space's basis."""
    ops = left_multiplication_operators(space, tol)
    return np.einsum("iab,jba->ij", ops, ops)


def semisimplicity_certificate(space, tol=RANK_TOL):
    """Smallest singular value of the trace-form Gram matrix.

    A value above ``tol`` certifies semisimplicity.  Returns the pair
    ``(smallest_sv, radical_witness_or_None)``.
    """
    if space.dim == 0:
        return np.inf, None
    gram = trace_form_gram(space, tol)
    u, s, vh = np.linalg.svd(gram)
    smallest = float(s[-1])
    scale = max(1.0, float(s[0]))
    if smallest > tol * scale:
        return smallest, None
    witness = (vh[-1].conj() @ space.flat).reshape(space.shape)
    return smallest, witness


def algebra_unit(space, tol=RANK_TOL):
    """The multiplicative unit of the algebra, or ``None`` if there is none."""
    if space.dim == 0:
        return None
    basis = space.basis()
    k = space.dim
    # solve u @ b_j = b_j and b_j @ u = b_j in the coordinates of the basis
    rows = []
    rhs = []
    for bj in basis:
        rows.append(np.stack([(bi @ bj).reshape(-1) for bi in basis], axis=1))
        rhs.append(bj.reshape(-1))
        rows.append(np.stack([(bj @ bi).reshape(-1) for bi in basis], axis=1))
        rhs.append(bj.reshape(-1))
    a = np.vstack(rows)
    b = np.concatenate(rhs)
    coeff, *_ = np.linalg.lstsq(a, b, rcond=None)
    u = np.tensordot(coeff, basis, axes=(0, 0))
    resid = max(np.linalg.norm(u @ bj - bj) + np.linalg.norm(bj @ u - bj)
                for bj in basis)
    if resid > 1e-6:
        return None
    return u


def central_primitive_idempotents(space, seed=0, tol=RANK_TOL):
    """Central primitive idempotents of a product-closed semisimple algebra.

    Strategy: certify semisimplicity with the trace form, then take a random
    generic element of the center and cluster its eigenvalues; spectral
    projectors of the clusters are the candidate idempotents, validated and
    retried with fresh randomness on failure.  Raises :class:`NotSemisimple`
    with a radical witness when the trace form is degenerate, or after the
    retry budget is exhausted.
    """
    smallest, witness = semisimplicity_certificate(space, tol)
    if witness is not None:
        raise NotSemisimple(
            f"trace form is degenerate (smallest singular value {smallest:.3g})",
            witness=witness)
    unit = algebra_unit(space, tol)
    if unit is None:
        raise NotSemisimple("algebra has no unit element")
    z = center(space, tol)
    l = z.dim
    if l == 0:
        raise NotSemisimple("center is zero")

    idems = _spectral_split(space, z.basis(), l, seed,
                            lambda projs: _complete_and_orthogonal(projs, unit))
    if idems is None:
        raise NotSemisimple(
            f"could not separate central idempotents after {IDEMPOTENT_RETRIES} attempts")
    # deterministic order: by rounded fingerprint of the idempotent
    idems.sort(key=lambda p: np.round(p, 9).tobytes())
    return idems


def _complete_and_orthogonal(idems, unit):
    """Whether ``idems`` sum to ``unit`` and annihilate each other pairwise."""
    return (np.linalg.norm(np.sum(idems, axis=0) - unit) <= 1e-6
            and all(np.linalg.norm(e @ f) < 1e-6
                    for i, e in enumerate(idems)
                    for j, f in enumerate(idems) if i != j))


def _spectral_split(space, basis, count, seed, accept):
    """Spectral projectors of a random element of ``span(basis)``, or ``None``.

    Eigenvalues cluster at ``IDEMPOTENT_GAP`` times the spectral radius.  A
    draw is kept when its ``count`` cluster projectors are idempotent, lie in
    ``space`` and pass ``accept``; after ``IDEMPOTENT_RETRIES`` rejected draws
    from ``seed``'s stream the result is ``None``.
    """
    rng = np.random.default_rng(seed)
    for attempt in range(IDEMPOTENT_RETRIES):
        coeff = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
        x = np.tensordot(coeff, basis, axes=(0, 0))
        try:
            vals, vecs = np.linalg.eig(x)
            vinv = np.linalg.inv(vecs)
        except np.linalg.LinAlgError:
            continue
        clusters = cluster_complex(vals, IDEMPOTENT_GAP * max(1.0, float(np.max(np.abs(vals)))))
        if len(clusters) != count:
            continue
        projs = [vecs[:, ix] @ vinv[ix] for ix in clusters]
        if all(np.linalg.norm(p @ p - p) <= 1e-6 and space.contains(p, 1e-6)
               for p in projs) and accept(projs):
            return projs
    return None


def z0(space, seed=0, tol=RANK_TOL):
    """Span of the central primitive idempotents."""
    idems = central_primitive_idempotents(space, seed=seed, tol=tol)
    return MatrixSubspace.from_spanning(idems, space.shape, tol)


def wedderburn_decompose(space, seed=0, tol=RANK_TOL):
    """Component dimensions and multiplicities of a semisimple subalgebra.

    Component ``i`` is ``e_i B`` with dimension ``k_i^2``; its multiplicity in
    the ambient column space is ``rank(e_i) / k_i``.  Integer failures raise
    :class:`ToleranceFailure`.
    """
    idems = central_primitive_idempotents(space, seed=seed, tol=tol)
    basis = space.basis()
    dims = []
    mults = []
    for e in idems:
        comp = MatrixSubspace.from_spanning([e @ b for b in basis], space.shape, tol)
        k2 = comp.dim
        k = int(round(np.sqrt(k2)))
        if k * k != k2:
            raise ToleranceFailure(f"component dimension {k2} is not a perfect square")
        rank = round_to_int(np.trace(e).real, what="idempotent rank")
        if rank % k != 0:
            raise ToleranceFailure(
                f"idempotent rank {rank} not divisible by component size {k}")
        dims.append(k)
        mults.append(rank // k)
    unital = space.contains_identity(tol)
    if unital:
        d = space.ambient_dim
        if sum(k * m for k, m in zip(dims, mults)) != d:
            raise ToleranceFailure("component dimensions do not fill the column space")
    return InvariantSubalgebra(space=space, unital=unital, idempotents=idems,
                               component_dims=dims, multiplicities=mults)


def is_invariant(space, adjoint, tol=RANK_TOL):
    """Whether the conjugation action maps the subspace into itself.

    ``adjoint`` is the conjugation representation on flattened matrices; a
    subspace mapped into itself by every generator is mapped into itself by
    the group, so the check runs over the generating set.
    """
    for g in adjoint.group.generators:
        act = adjoint.matrices[g]
        for b in space.basis():
            moved = (act @ b.reshape(-1)).reshape(space.shape)
            if not space.contains(moved, tol):
                return False
    return True


def is_symmetrically_embedded(space, seed=0, tol=RANK_TOL):
    """All component dims equal and all multiplicities equal.

    Cross-checked against the centralizer: its component dims must be the
    multiplicities of the algebra and vice versa, and the symmetric-embedding
    property must be equivalent to both sides being sums of pairwise
    isomorphic simple algebras.  A mismatch raises :class:`AssertionFailure`.
    """
    meta = space if isinstance(space, InvariantSubalgebra) else wedderburn_decompose(space, seed, tol)
    cent = centralizer(meta.space, tol)
    cmeta = wedderburn_decompose(cent, seed, tol)
    flag = len(set(meta.component_dims)) == 1 and len(set(meta.multiplicities)) == 1
    if sorted(cmeta.component_dims) != sorted(meta.multiplicities) or \
       sorted(cmeta.multiplicities) != sorted(meta.component_dims):
        raise AssertionFailure(
            "centralizer components do not mirror the algebra's multiplicities")
    both_isotypic = (len(set(meta.component_dims)) == 1
                     and len(set(cmeta.component_dims)) == 1)
    if both_isotypic != flag:
        raise AssertionFailure(
            "symmetric-embedding characterizations disagree")
    return flag


def double_centralizer_check(space, tol=RANK_TOL):
    """Whether the double centralizer returns the algebra itself."""
    return centralizer(centralizer(space, tol), tol).equals(space)


def permutation_action(meta, adjoint, tol=EQ_TOL):
    """The permutation of central idempotents induced by conjugation.

    Returns ``(sigma, transitive)`` where ``sigma[g]`` lists the image index
    of each idempotent under the action of ``g``.  The integer permutations
    are verified to compose like the group; unmatched images raise
    :class:`MatchFailure`.
    """
    group = adjoint.group
    idems = np.array([e.reshape(-1) for e in meta.idempotents])
    bound = tol * np.maximum(1.0, np.linalg.norm(idems, axis=1))
    sigma = np.zeros((group.order, len(idems)), dtype=np.intp)
    for g in range(group.order):
        moved = idems @ adjoint.matrices[g].T
        dists = np.linalg.norm(moved[:, None, :] - idems[None, :, :], axis=2)
        sigma[g] = np.argmin(dists, axis=1)
        best = dists[np.arange(len(idems)), sigma[g]]
        bad = np.flatnonzero(best > bound)
        if bad.size:
            i = int(bad[0])
            raise MatchFailure(
                f"conjugate of idempotent {i} by element {g} matches nothing "
                f"(best distance {best[i]:.3g})")
    if not np.array_equal(sigma[:, sigma], sigma[group.mult]):
        raise AssertionFailure("idempotent permutations do not compose")
    # the permutations form an action, so the orbit of 0 is its column of images
    return sigma, len(np.unique(sigma[:, 0])) == len(idems)


def inertia_subgroup(meta, adjoint, i=0, tol=EQ_TOL):
    """Stabilizer of the ``i``-th idempotent; its index must be the block count."""
    sigma, _ = permutation_action(meta, adjoint, tol)
    group = adjoint.group
    members = tuple(g for g in range(group.order) if sigma[g, i] == i)
    sub = Subgroup(group, members)
    if sub.index != len(meta.idempotents):
        raise AssertionFailure(
            f"inertia subgroup has index {sub.index}, expected {len(meta.idempotents)}")
    return sub
