"""Structure theory of product-closed matrix subspaces.

Semisimplicity is certified by nondegeneracy of the trace form
``(x, y) -> tr(L_x L_y)`` of the left regular action (whose radical equals
the Jacobson radical in characteristic zero, so a nullspace vector is a
radical witness).  Central primitive idempotents come from eigenprojections
of a generic central element: a central element of a semisimple algebra acts
as a scalar on each Wedderburn block, so its spectral projectors *are* the
block idempotents whenever the scalars separate.
"""

import functools
from dataclasses import dataclass

import numpy as np

from ._linalg import (CERT_TOL, EQ_TOL, IDEMPOTENT_GAP, INT_TOL, RANK_TOL, _rank,
                      cluster_complex, intertwiners, nullspace, round_to_int,
                      row_norms)
from .errors import (AssertionFailure, MatchFailure, NotSemisimple,
                     ToleranceFailure)
from .groups import Subgroup
from .spaces import MatrixSubspace

IDEMPOTENT_RETRIES = 20
# the seed of every spectral split's draws; no answer depends on which draw succeeds
_DRAW_SEED = 0


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


def _memoized(fn):
    """Memoize ``fn(space, tol)`` per tolerance on the read-only space."""
    @functools.wraps(fn)
    def memo(space, tol=RANK_TOL):
        key = (fn.__name__, tol)
        if key not in space._memo:
            space._memo[key] = fn(space, tol)
        return space._memo[key]
    return memo


@_memoized
def centralizer(space, tol=RANK_TOL):
    """Matrices commuting with all of ``space``; solved once per tolerance."""
    d, basis = space.ambient_dim, space.basis()
    return MatrixSubspace(intertwiners(basis, basis, tol).reshape(-1, d * d), (d, d))


@_memoized
def center(space, tol=RANK_TOL):
    """Elements of a product-closed ``space`` commuting with all of it.

    Solved in the space's own coordinates: ``sum_i c_i (b_i b_j - b_j b_i)
    = 0`` for every j is a (k^2, k) system on the structure constants of
    :func:`left_multiplication_operators`, which raises ValueError when the
    space is not closed.  Memoized per tolerance.
    """
    if space.dim == 0:
        return space
    ops = left_multiplication_operators(space, tol)
    # row (j, l), column i: coordinate l of b_i b_j - b_j b_i
    comm = (ops.transpose(2, 1, 0) - ops).reshape(-1, space.dim)
    return MatrixSubspace(nullspace(comm, tol) @ space.flat, space.shape)


def _basis_products(space):
    """All basis products ``b_i @ b_j`` as one ``(k, k, d, d)`` stack."""
    basis = space.basis()
    return basis[:, None] @ basis[None]


@_memoized
def left_multiplication_operators(space, tol=RANK_TOL):
    """Matrices of left multiplication on the space's own basis (read-only).

    These are the structure constants: ``ops[i, l, j]`` is coordinate l of
    ``b_i b_j``.  Requires product closure; the residual of re-projecting
    each product is checked against ``tol`` and a ValueError raised on
    violation.  Memoized per tolerance.
    """
    k = space.dim
    prods = _basis_products(space).reshape(k, k, -1)
    if not space.contains_all(prods, tol):
        raise ValueError("subspace is not closed under products")
    # column j of L_{b_i} holds the coordinates of b_i b_j
    coeff = prods @ space.flat.conj().T
    ops = np.ascontiguousarray(coeff.transpose(0, 2, 1))
    ops.flags.writeable = False
    return ops


def trace_form_gram(space, tol=RANK_TOL):
    """Gram matrix of ``(x, y) -> tr(L_x L_y)`` on the space's basis."""
    ops = left_multiplication_operators(space, tol)
    return np.einsum("iab,jba->ij", ops, ops)


@_memoized
def semisimplicity_certificate(space, tol=RANK_TOL):
    """Smallest singular value of the trace-form Gram matrix.

    Full rank under :func:`._linalg._rank` certifies semisimplicity.
    Returns the pair ``(smallest_sv, radical_witness_or_None)``; memoized per
    tolerance, so the witness is read-only.
    """
    if space.dim == 0:
        return np.inf, None
    gram = trace_form_gram(space, tol)
    u, s, vh = np.linalg.svd(gram)
    smallest = float(s[-1])
    if _rank(s, tol) == len(s):
        return smallest, None
    witness = (vh[-1].conj() @ space.flat).reshape(space.shape)
    witness.flags.writeable = False
    return smallest, witness


def algebra_unit(space):
    """The multiplicative unit of the algebra, or ``None`` if there is none."""
    if space.dim == 0:
        return None
    basis = space.basis()
    k = space.dim
    flat = space.flat
    # solve u @ b_j = b_j and b_j @ u = b_j in the coordinates of the basis:
    # for each j, the rows of b_i b_j and then of b_j b_i, one column per i
    prods = _basis_products(space).reshape(k, k, -1)
    left = prods.transpose(1, 2, 0)    # [j, :, i] = b_i b_j
    right = prods.transpose(0, 2, 1)   # [j, :, i] = b_j b_i
    a = np.stack([left, right], axis=1).reshape(-1, k)
    b = np.stack([flat, flat], axis=1).reshape(-1)
    coeff, *_ = np.linalg.lstsq(a, b, rcond=None)
    u = np.tensordot(coeff, basis, axes=(0, 0))
    resid = np.max(np.linalg.norm(u @ basis - basis, axis=(1, 2))
                   + np.linalg.norm(basis @ u - basis, axis=(1, 2)))
    if resid > CERT_TOL:
        return None
    return u


def central_primitive_idempotents(space, tol=RANK_TOL):
    """Central primitive idempotents of a product-closed semisimple algebra.

    Strategy: certify semisimplicity with the trace form, then take a random
    generic element of the center and cluster its eigenvalues; spectral
    projectors of the clusters are the candidate idempotents, validated and
    retried with fresh randomness on failure.  The projectors sum to I, so a
    unit other than I is split together with ``I - unit``, which is then
    dropped.  Raises :class:`NotSemisimple` with a radical witness when the
    trace form is degenerate, or after the retry budget is exhausted.
    """
    smallest, witness = semisimplicity_certificate(space, tol)
    if witness is not None:
        raise NotSemisimple(
            f"trace form is degenerate (smallest singular value {smallest:.3g})",
            witness=witness)
    unit = algebra_unit(space)
    if unit is None:
        raise NotSemisimple("algebra has no unit element")
    z = center(space, tol)
    l = z.dim
    if l == 0:
        raise NotSemisimple("center is zero")

    basis, whole, rest = z.basis(), space, np.eye(space.ambient_dim) - unit
    if np.linalg.norm(rest) > CERT_TOL:
        basis = np.concatenate([basis, rest[None]])
        whole = space.add(MatrixSubspace.from_spanning([rest], space.shape, tol), tol)
    idems = _spectral_split(whole, basis, len(basis))
    if idems is None:
        raise NotSemisimple(
            f"could not separate central idempotents after {IDEMPOTENT_RETRIES} attempts")
    if len(basis) > l:  # drop I - unit
        idems.pop(int(np.argmin([np.linalg.norm(p - rest) for p in idems])))
    return _sorted_idempotents(idems)


def _sorted_idempotents(idems):
    """Idempotents in a deterministic order: by rounded fingerprint."""
    return sorted(idems, key=lambda p: np.round(p, 9).tobytes())


def _all_idempotent(projs):
    """Whether every matrix ``p`` of the stack has ``|p p - p| <= CERT_TOL``."""
    projs = np.asarray(projs)
    return bool(np.all(row_norms(projs @ projs - projs) <= CERT_TOL))


def _inverse_residual(v, w):
    """``max(|wv - I|, |vw - I|) max(1, |v||w|)`` for a claimed inverse ``w``
    of ``v``: the one residual :func:`_certified_projectors` bounds."""
    res = max(np.linalg.norm(w @ v - np.eye(w.shape[0])),
              np.linalg.norm(v @ w - np.eye(v.shape[0])))
    return res * max(1.0, np.linalg.norm(v) * np.linalg.norm(w))


def _certified_projectors(v, w, parts, cols=slice(None)):
    """Projectors ``v[:, ix] @ w[ix]`` (columns ``cols``) over ``parts``, a
    partition of the columns of ``v``; ``None`` unless ``max(|wv - I|, |vw -
    I|) max(1, |v||w|) <= CERT_TOL``.  As ``P_i P_j - [i == j] P_i = v_i (wv - I)_ij w_j`` and
    ``sum P - I = vw - I``, that one residual bounds every defect of a
    complete system of orthogonal idempotents: two products, not k^2.
    """
    if _inverse_residual(v, w) > CERT_TOL:
        return None
    return [v[:, ix] @ w[ix, cols] for ix in parts]


def _draws(basis, count):
    """Eigen-splits ``(x, vals, vecs, vinv, clusters)`` of random elements x
    of ``span(basis)`` into ``count`` clusters at ``IDEMPOTENT_GAP`` times the
    spectral radius, whose projectors :func:`_certified_projectors` accepts.
    Every call restarts the one stream seeded by ``_DRAW_SEED`` and draws at
    most ``IDEMPOTENT_RETRIES`` times."""
    rng = np.random.default_rng(_DRAW_SEED)
    for _ in range(IDEMPOTENT_RETRIES):
        coeff = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
        x = np.tensordot(coeff, basis, axes=(0, 0))
        try:
            vals, vecs = np.linalg.eig(x)
            vinv = np.linalg.inv(vecs)
        except np.linalg.LinAlgError:
            continue
        clusters = cluster_complex(vals, IDEMPOTENT_GAP * max(1.0, float(np.max(np.abs(vals)))))
        if len(clusters) == count and _inverse_residual(vecs, vinv) <= CERT_TOL:
            yield x, vals, vecs, vinv, clusters


def _eigen_split(basis, count):
    """``(vecs, vinv, clusters)`` of a random element x of ``span(basis)``, a
    commutative span with ``count`` primitive idempotents, or ``None``.

    The cluster projectors ``vecs[:, ix] @ vinv[ix]`` are those idempotents
    once a draw of :func:`_draws` has ``max_i |x v_i - l_i v_i| / |v_i|``
    times ``|V| |V^-1|`` at most ``CERT_TOL`` times the least gap between
    eigenvalues of different clusters.
    """
    for x, vals, vecs, vinv, clusters in _draws(basis, count):
        gaps = np.abs(vals[:, None] - vals)
        for ix in clusters:  # only gaps between clusters count
            gaps[np.ix_(ix, ix)] = np.inf
        resid = np.max(row_norms((x @ vecs - vecs * vals).T) / row_norms(vecs.T))
        if resid * np.linalg.norm(vecs) * np.linalg.norm(vinv) <= CERT_TOL * gaps.min():
            return vecs, vinv, clusters
    return None


def _spectral_split(space, basis, count, cols=slice(None)):
    """Spectral projectors of a random element x of ``span(basis)``, or ``None``.

    A draw of :func:`_draws` is kept when its ``count`` cluster projectors
    lie in ``space``, a unital algebra holding x.  With ``space`` None the
    span must be commutative with ``count`` primitive idempotents, certified
    by :func:`_eigen_split` instead of membership, and only the columns
    ``cols`` of each projector are formed.
    """
    if space is None:
        split = _eigen_split(basis, count)
        if split is None:
            return None
        vecs, vinv, clusters = split
        return [vecs[:, ix] @ vinv[ix, cols] for ix in clusters]
    for _, _, vecs, vinv, clusters in _draws(basis, count):
        projs = [vecs[:, ix] @ vinv[ix] for ix in clusters]
        if space.contains_all(projs, CERT_TOL):
            return projs
    return None


def z0(space, tol=RANK_TOL):
    """Span of the central primitive idempotents."""
    idems = central_primitive_idempotents(space, tol=tol)
    return MatrixSubspace.from_spanning(idems, space.shape, tol)


def wedderburn_decompose(space, tol=RANK_TOL):
    """Component dimensions and multiplicities of a semisimple subalgebra.

    Component ``i`` is ``e_i B`` with dimension ``k_i^2``; its multiplicity in
    the ambient column space is ``rank(e_i) / k_i``.  Integer failures raise
    :class:`ToleranceFailure`.
    """
    return _wedderburn_data(space, central_primitive_idempotents(space, tol=tol), tol)


def _wedderburn_data(space, idems, tol):
    """:func:`wedderburn_decompose` on the central primitive idempotents
    ``idems`` of ``space``, found or certified by the caller."""
    basis, dims, mults = space.basis(), [], []
    for e in idems:
        comp = MatrixSubspace.from_spanning(e @ basis, space.shape, tol)
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


def is_invariant(space, rep, tol=RANK_TOL):
    """Whether conjugation by ``rep``'s matrices maps the subspace into itself.

    A subspace mapped into itself by every generator is mapped into itself by
    the group, so the check runs over the generating set.
    """
    gens = list(rep.group.generators)
    moved = rep.matrices[gens, None] @ space.basis() @ rep.inverses(gens)[:, None]
    return space.contains_all(moved, tol)


def is_symmetrically_embedded(space, tol=RANK_TOL):
    """All component dims equal and all multiplicities equal.

    Cross-checked against the centralizer: its component dims must be the
    multiplicities of the algebra and vice versa, and the symmetric-embedding
    property must be equivalent to both sides being sums of pairwise
    isomorphic simple algebras.  A mismatch raises :class:`AssertionFailure`.
    """
    meta = space if isinstance(space, InvariantSubalgebra) else wedderburn_decompose(space, tol)
    return _symmetric_embedding(meta, centralizer(meta.space, tol), tol)


def _symmetric_embedding(meta, cent, tol):
    """:func:`is_symmetrically_embedded` on the data ``meta`` of a semisimple
    B and a space ``cent`` equal to B'.  B'' = B gives Z(B') = B' meet B'' =
    Z(B), so B's central primitive idempotents E are B''s, once certified:
    ``dim Z(B)`` of them, in Z(B) and B', idempotents summing to I whose
    traces are positive integers (so orthogonal).  Else AssertionFailure."""
    d = cent.ambient_dim
    idems = np.asarray(meta.idempotents, dtype=complex).reshape(-1, d, d)
    z, traces = center(meta.space, tol), np.einsum("kii->k", idems).real
    if not (len(idems) == z.dim and z.contains_all(idems, CERT_TOL)
            and cent.contains_all(idems, CERT_TOL) and _all_idempotent(idems)
            and np.linalg.norm(idems.sum(axis=0) - np.eye(d)) <= CERT_TOL
            and np.all(np.abs(traces - np.round(traces)) <= INT_TOL) and traces.min() > 0.5):
        raise AssertionFailure(
            "the algebra's idempotents are not the centralizer's central primitive ones")
    cmeta = _wedderburn_data(cent, idems, tol)
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


def permutation_action(meta, rep, tol=EQ_TOL):
    """The permutation of central idempotents induced by conjugation.

    Returns ``(sigma, transitive)`` where ``sigma[g]`` lists the image index
    of each idempotent under conjugation by ``rep``'s matrix for ``g``.  The
    integer permutations are verified to compose like the group; unmatched
    images raise :class:`MatchFailure`.
    """
    idems = np.array(meta.idempotents)
    (n, d), l = rep.matrices.shape[:2], len(idems)
    flat = idems.reshape(l, -1)
    norms = row_norms(flat)
    bound = tol * np.maximum(1.0, norms)
    # row g*l + i of moved is rho(g) e_i rho(g)^-1; the nearest e_j minimizes
    # |e_j|^2 - 2 Re <moved, e_j>, and its distance is then taken exactly
    left = (rep.matrices @ np.hstack(idems)).reshape(n, d, l, d).swapaxes(1, 2)
    moved = (left.reshape(n, l * d, d) @ rep.inverses()).reshape(n * l, d * d)
    sigma = np.argmin(norms ** 2 - 2 * (moved @ flat.conj().T).real, axis=1)
    best = row_norms(moved - flat[sigma]).reshape(n, l)
    sigma = sigma.reshape(n, l)
    bad = np.flatnonzero(best > bound)
    if bad.size:
        g, i = divmod(int(bad[0]), len(idems))
        raise MatchFailure(
            f"conjugate of idempotent {i} by element {g} matches nothing "
            f"(best distance {best[g, i]:.3g})")
    if not np.array_equal(sigma[:, sigma], sigma[rep.group.mult]):
        raise AssertionFailure("idempotent permutations do not compose")
    # the permutations form an action, so the orbit of 0 is its column of images
    return sigma, bool(np.bincount(sigma[:, 0], minlength=len(idems)).all())


def inertia_subgroup(meta, rep, i=0, tol=EQ_TOL):
    """Stabilizer of the ``i``-th idempotent; its index must be the block count."""
    return _stabilizer(rep.group, permutation_action(meta, rep, tol)[0], i)


def _stabilizer(group, sigma, i=0):
    """Stabilizer of idempotent ``i`` under the permutations ``sigma`` of
    :func:`permutation_action`; its index must be the block count."""
    sub = Subgroup(group, tuple(np.flatnonzero(sigma[:, i] == i).tolist()))
    if sub.index != sigma.shape[1]:
        raise AssertionFailure(
            f"inertia subgroup has index {sub.index}, expected {sigma.shape[1]}")
    return sub
