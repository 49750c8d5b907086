"""Central simple invariant subalgebras and tensor factorizations.

An invariant central simple subalgebra B of the matrix algebra on an
irreducible (possibly projective) representation W pairs with its centralizer
Z: together they span everything, and W factors as a tensor product of two
smaller projective representations carried by the two sides.  Recovery is
numerical — matrix units of B give a basis change to Kronecker form, after
which each group element's matrix is rank one under the row/column
rearrangement and splits by SVD.

The scan over sums of isotypic components of the conjugation action reads
closure off one table of the components each product of two components
reaches.  A nonzero closed sum is a largest closed proper subsum plus one
component, closed, so a sweep lists them all at m closures each, not 2^m.
It is certified complete exactly when that action is multiplicity-free;
otherwise generated-algebra closures are added as uncertified candidates.
On a certified scan every invariant subspace is a sum of components, so the
same pass also tables which components commute: a closed sum's centralizer,
center and unitality are then bitmasks, and only the central simple sums are
built, each with its partner and center memoized (:mod:`.classify` builds
every unital sum of V's own scan the same way).  An uncertified list is
filtered and closed under centralizers by solving them.  A W of dimension 1
or prime runs no scan: its list is read off a theorem.
"""

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from ._linalg import (CERT_TOL, PART_SCALE, RANK_TOL, ZERO_TRACE, _rank,
                      column_space, kron_stack, row_norms)
from .algebras import (_spectral_split, center, centralizer,
                       semisimplicity_certificate)
from .errors import AssertionFailure, FactorRecoveryFailure, NotCentralSimple
from .reps import (Representation, _as_projective_rep, _normalize_projective,
                   _pair_blocks, conjugation_decomposition)
from .spaces import MatrixSubspace, SpaceIndex, generated_algebra


@dataclass
class DualPairFactorization:
    """A dual pair B, Z with the recovered tensor splitting of W."""

    b_space: MatrixSubspace
    z_space: MatrixSubspace
    a: int
    b: int
    sigma: Representation
    tau: Representation
    basis_change: np.ndarray
    lambdas: np.ndarray
    residual: float


def _closed_sets(reach):
    """Every bitmask S with ``reach[i][j]`` inside S for all i, j in S; 0 first."""
    m = len(reach)
    # both = reach[i][j] | reach[j][i]: where the products of C_i and C_j reach
    both = [[a | b for a, b in zip(row, col)] for row, col in zip(reach, zip(*reach))]
    closed_sets, seen = [0], {0}
    for closed in closed_sets:  # grows as the sweep finds more
        members = [j for j in range(m) if closed >> j & 1]
        for k in range(m):
            if closed >> k & 1:
                continue
            # only products with a new member can leave the closed set
            done, mask, grown = closed, closed | 1 << k, list(members)
            while mask != done:
                i = (mask & ~done).bit_length() - 1
                done |= 1 << i
                grown.append(i)
                row = both[i]
                for j in grown:
                    mask |= row[j]
            if mask not in seen:
                seen.add(mask)
                closed_sets.append(mask)
    return closed_sets


def _mask(flags):
    """The bitmask of the true entries of a boolean vector."""
    return sum(1 << k for k in np.flatnonzero(flags).tolist())


def _reach_table(spaces, projs, tol):
    """``(reach, commute)`` over the components C_i spanned by ``spaces``.

    ``reach[i][j]`` is the bitmask of the components ``C_i C_j`` has a part
    in, by the isotypic projectors ``projs`` (which split along them even
    when not orthogonal); ``commute[i]`` is the bitmask of the C_k each of
    whose basis matrices commutes with each of C_i's.  Both are read off the
    products of C_i's basis with the stacked bases of all components, a
    bounded block of products at a time.
    """
    m, ww = len(spaces), spaces[0].flat.shape[1]
    projs = np.stack(projs).reshape(m * ww, ww)
    stacked = np.concatenate([sp.basis() for sp in spaces])
    starts = np.cumsum([0] + [sp.dim for sp in spaces[:-1]])
    cut = tol * PART_SCALE
    reach, commute = [], []
    for sp in spaces:
        basis = sp.basis()
        prods = (basis[:, None] @ stacked[None]).reshape(-1, ww)
        hit = np.empty((m, len(prods)), dtype=bool)
        moved = np.empty(len(prods), dtype=bool)
        for cols in _pair_blocks(len(prods), m * ww):
            parts = np.linalg.norm((projs @ prods[cols].T).reshape(m, ww, -1), axis=1)
            hit[:, cols] = parts > cut * np.linalg.norm(prods[cols], axis=1)
            # product a * len(stacked) + j is basis[a] @ stacked[j]
            a, j = np.divmod(np.arange(cols.start, cols.stop), len(stacked))
            flipped = (stacked[j] @ basis[a]).reshape(-1, ww)
            moved[cols] = row_norms(prods[cols] - flipped) > cut
        # [k, j]: some product of C_i with C_j has a part in C_k
        hit = np.logical_or.reduceat(hit.reshape(m, sp.dim, -1).any(axis=1), starts, axis=1)
        reach.append([_mask(col) for col in hit.T])
        moved = np.logical_or.reduceat(moved.reshape(sp.dim, -1).any(axis=0), starts)
        commute.append(_mask(~moved))
    return reach, commute


class _Isotypic(NamedTuple):
    """The isotypic components of conjugation on End(W) and their tables."""

    spaces: list      # component C_i, as a space
    reach: list       # reach[i][j]: mask of the components C_i C_j has a part in
    commute: list     # commute[i]: mask of the components commuting with C_i
    scalar: int       # the component whose projector fixes I
    certified: bool   # every multiplicity is at most one

    def sum_space(self, mask, tol):
        """The sum of the components in ``mask``, from their stacked bases."""
        w = self.spaces[0].shape[0]
        return MatrixSubspace.from_spanning(
            np.concatenate([sp.flat for i, sp in enumerate(self.spaces) if mask >> i & 1]),
            (w, w), tol)

    def centralizer_mask(self, mask):
        """The components commuting with every component of ``mask``."""
        out = (1 << len(self.spaces)) - 1
        for i, row in enumerate(self.commute):
            if mask >> i & 1:
                out &= row
        return out


def _isotypic_table(rep, tol):
    """The isotypic components of ``rep``'s conjugation action and their tables."""
    projs, certified = conjugation_decomposition(rep)
    w = rep.dim
    spaces = [MatrixSubspace(column_space(p, tol).T, (w, w)) for p in projs]
    eye = np.eye(w).ravel()
    scalar = int(np.argmin([np.linalg.norm(p @ eye - eye) for p in projs]))
    return _Isotypic(spaces, *_reach_table(spaces, projs, tol), scalar, certified)


def _closed_sums(table, tol):
    """:func:`multfree_scan` on the components and tables of ``table``."""
    spaces, w = table.spaces, table.spaces[0].shape[0]
    found = [MatrixSubspace.zero((w, w))] + [
        table.sum_space(mask, tol) for mask in sorted(_closed_sets(table.reach))[1:]]

    if not table.certified:
        # heuristic candidates: close each component (with the unit adjoined)
        # under products; sound but not exhaustive
        index = SpaceIndex(found)
        found = index.spaces
        cands = [generated_algebra(sp, include_identity=True, tol=tol) for sp in spaces]
        for cand in [MatrixSubspace.identity_line(w)] + [
                c for c in cands if c.is_product_closed(tol * 10)]:
            if index.find(cand) is None:
                index.append(cand)

    unital, nonunital = [], []
    for s in found:
        (unital if s.contains_identity(tol * 10) and s.dim else nonunital).append(s)
    unital.sort(key=lambda s: (s.dim, s.fingerprint()))
    nonunital.sort(key=lambda s: (s.dim, s.fingerprint()))
    return unital, nonunital, table.certified


def multfree_scan(rep, tol=RANK_TOL):
    """Scan sums of isotypic components of conjugation for product closure.

    Returns ``(unital, nonunital, certified)``: product-closed sums that do /
    do not contain the identity matrix, and whether the lists are exhaustive:
    true exactly when every isotypic multiplicity is at most one (then every
    invariant subspace is such a sum), for any number of components.  A sum
    over S is closed when no product of two of its components has a part
    outside S; one closure sweep over that reach table lists every closed S.
    """
    return _closed_sums(_isotypic_table(rep, tol), tol)


def _square_divisor(dim, d):
    """Whether ``dim`` is a^2 with a dividing ``d`` (as dim M_a in End(C^d))."""
    a = math.isqrt(dim)
    return 0 < a and a * a == dim and d % a == 0


def _unital_masks(table):
    """Each closed sum S holding the scalar component, mapped to its
    centralizer S' (the components commuting with all of S)."""
    one = 1 << table.scalar
    return {mask: table.centralizer_mask(mask)
            for mask in sorted(_closed_sets(table.reach)) if mask & one}


def _memoized_sums(table, partners, tol):
    """The sums of the masks S of ``partners`` (S -> S'), each memoizing the
    built S' as its centralizer and S meet S' as its center; both must be
    keys of ``partners``."""
    built = {mask: table.sum_space(mask, tol) for mask in partners}
    for mask, partner in partners.items():
        built[mask]._memo[("centralizer", tol)] = built[partner]
        built[mask]._memo[("center", tol)] = built[mask & partner]
    return built


def _central_simple_masks(table, d, tol):
    """The central simple sums of a certified scan, as bitmasks.

    A closed sum S is unital when it holds the scalar component, its
    centralizer is S' and its center S meet S' (:func:`_unital_masks`).
    Kept are the unital S of dimension a^2, a | d, with center the scalar
    component; for each, S'' = S is checked and S' must be kept too.  Only
    kept sums are built (:func:`_memoized_sums`).  (Such an S is semisimple,
    as is every invariant subalgebra on an irreducible W;
    ``extract_factorization`` certifies it.)
    """
    one = 1 << table.scalar
    dims = [sp.dim for sp in table.spaces]

    def dim(mask):
        return sum(k for i, k in enumerate(dims) if mask >> i & 1)

    kept = {mask: partner for mask, partner in _unital_masks(table).items()
            if mask & partner == one and _square_divisor(dim(mask), d)}
    for mask, partner in kept.items():
        if kept.get(partner) != mask:
            if partner not in kept:
                raise AssertionFailure(f"the centralizer of a dim-{dim(mask)} "
                                       "central simple sum is not central simple")
            raise AssertionFailure("double centralizer moved")
    return list(_memoized_sums(table, kept, tol).values())


def central_simple_invariant_subalgebras(w_rep, tol=RANK_TOL):
    """Invariant subalgebras with center exactly the scalar line.

    Returns ``(list, certified)``.  The list is closed under taking
    centralizers and always contains the scalar line and the full algebra.
    A central simple C = M_a inside End(W) makes W a sum of copies of C^a,
    so a divides d = dim W: for d of 1 or prime the list is the scalars and
    End(W), read off with no scan and certified.  Otherwise it is certified
    when the isotypic scan is, and then read off the scan's masks with each
    entry's centralizer and center memoized (:func:`_central_simple_masks`).
    An uncertified scan's sums of dimension a^2, a | d, get the
    semisimplicity and center solves, and the list is closed under
    centralizers by solving them.
    """
    d = w_rep.dim
    if all(d % p for p in range(2, math.isqrt(d) + 1)):
        ends = [MatrixSubspace.identity_line(d), MatrixSubspace.full(d)]
        return ends[:1] if d == 1 else ends, True
    table = _isotypic_table(w_rep, tol)
    if table.certified:
        out = _central_simple_masks(table, d, tol)
    else:
        unital, _, _ = _closed_sums(table, tol)
        out = [sp for sp in unital if _square_divisor(sp.dim, d)
               and semisimplicity_certificate(sp, tol)[1] is None
               and center(sp, tol).dim == 1]
        # close under centralizer (the partner of a dual pair is again
        # central simple and invariant)
        index = SpaceIndex(out)
        out = index.spaces
        for sp in out:  # grows as it runs
            z = centralizer(sp, tol)
            if index.find(z) is None:
                index.append(z)
    if not any(sp.dim == 1 for sp in out):
        raise AssertionFailure("scalar line missing")
    if not any(sp.dim == d * d for sp in out):
        raise AssertionFailure("full algebra missing")
    out.sort(key=lambda s: (s.dim, s.fingerprint()))
    return out, table.certified


def _matrix_units(b_space, a, tol):
    """Matrix units of a central simple subalgebra, via a generic element.

    A generic element of B has ``a`` distinct eigenvalues whose spectral
    projectors are the diagonal units; the off-diagonal units come from the
    one-dimensional corner spaces ``f_11 B f_pp``.  Being ``a`` orthogonal
    idempotents summing to I = 1_B in B = M_a, each has rank one in B.
    """
    d = b_space.ambient_dim
    basis = b_space.basis()
    diag = _spectral_split(b_space, basis, a)
    if diag is None:
        raise FactorRecoveryFailure(
            f"could not split a generic element into {a} equal-rank projectors")

    def corner(x, y, label):
        space = MatrixSubspace.from_spanning(diag[x] @ basis @ diag[y], (d, d), tol)
        if space.dim != 1:
            raise FactorRecoveryFailure(
                f"corner space {label} has dimension {space.dim}, expected 1")
        return space.basis()[0]

    units = {(0, 0): diag[0]}
    for p in range(1, a):
        u, v = corner(0, p, f"1-{p}"), corner(p, 0, f"{p}-1")
        c = np.trace(u @ v) / np.trace(diag[0])
        if abs(c) < ZERO_TRACE:
            raise FactorRecoveryFailure("corner generators multiply to zero")
        units[(0, p)] = u
        units[(p, 0)] = v / c
    for p in range(1, a):
        for q in range(1, a):
            units[(p, q)] = units[(p, 0)] @ units[(0, q)]
    for p in range(1, a):
        if np.linalg.norm(units[(p, p)] - diag[p]) > CERT_TOL:
            raise FactorRecoveryFailure("diagonal units disagree with projectors")
    _check_unit_relations(units)
    return units


def _check_unit_relations(units):
    """Raise for the first pair, in the dict's order, that breaks
    ``e_pq e_rs = [q == r] e_ps`` by more than ``CERT_TOL``.

    All a^4 products are formed as stacked rows ``e_pq [e_11, ...]``, a
    block of (p, q) rows at a time.
    """
    keys = list(units)
    stack = np.stack([units[k] for k in keys])
    at = {k: i for i, k in enumerate(keys)}
    # want[i, j]: the unit (p_i, s_j) when q_i = r_j, else no unit (-1)
    want = np.array([[at[(p, s)] if q == r else -1 for (r, s) in keys]
                     for (p, q) in keys])
    d = stack.shape[-1]
    for rows in _pair_blocks(len(keys), len(keys) * d * d):
        diff = stack[rows, None] @ stack
        hit = want[rows] >= 0
        diff[hit] -= stack[want[rows][hit]]
        bad = np.flatnonzero(row_norms(diff.reshape(-1, d, d)) > CERT_TOL)
        if bad.size:
            i, j = divmod(int(bad[0]), len(keys))
            (p, q), (r, s) = keys[rows.start + i], keys[j]
            raise FactorRecoveryFailure(f"unit relations fail at ({p},{q})x({r},{s})")


def extract_factorization(b_space, w_rep, tol=RANK_TOL):
    """Tensor-split W along a central simple invariant subalgebra.

    Builds the basis change taking B to (a x a blocks) kron identity, then
    recovers per-element factors sigma (carried by B) and tau (carried by the
    centralizer) from the rank-one rearrangement of each transformed group
    matrix, with scalars ``lambda_g`` absorbing the projective ambiguity.
    :func:`factor` checks the double centralizer against B's partner.
    """
    d = w_rep.dim
    if b_space.shape != (d, d):
        raise ValueError("subalgebra does not act on the representation space")
    if not b_space.contains_identity(tol * 10):
        raise NotCentralSimple("subalgebra does not contain the identity")
    _, witness = semisimplicity_certificate(b_space, tol)
    if witness is not None:
        raise NotCentralSimple("subalgebra is not semisimple")
    center_dim = center(b_space, tol).dim
    if center_dim != 1:
        raise NotCentralSimple(f"center has dimension {center_dim}, expected 1")
    a = int(round(np.sqrt(b_space.dim)))
    if a * a != b_space.dim:
        raise NotCentralSimple(f"dimension {b_space.dim} is not a perfect square")
    if d % a != 0:
        raise NotCentralSimple(f"matrix size {d} not divisible by block size {a}")
    b = d // a

    units = _matrix_units(b_space, a, tol)
    w_cols = column_space(units[(0, 0)], tol)
    if w_cols.shape[1] != b:
        raise FactorRecoveryFailure(
            f"diagonal unit has rank {w_cols.shape[1]}, expected {b}")
    s_mat = np.hstack([units[(p, 0)] @ w_cols for p in range(a)])
    if _rank(np.linalg.svd(s_mat, compute_uv=False), tol) < d:
        raise FactorRecoveryFailure("block basis change is singular")
    s_inv = np.linalg.inv(s_mat)

    group = w_rep.group
    n = group.order
    rho = np.einsum("ij,gjk,kl->gil", s_inv, w_rep.matrices, s_mat)
    # rho(g) = lambda sigma kron tau exactly when its (a^2, b^2)
    # rearrangement is rank one, with the two factors as its singular pair
    r = rho.reshape(n, a, b, a, b).transpose(0, 1, 3, 2, 4).reshape(n, a * a, b * b)
    u_, s_, vh_ = np.linalg.svd(r)
    zero = s_[:, 0] < tol
    bad = zero | ((s_[:, 1] > CERT_TOL * s_[:, 0]) if min(a, b) > 1 else False)
    stop = int(np.argmax(bad)) if bad.any() else n
    scale = np.sqrt(s_[:stop, 0])[:, None]
    # elements before the first failing one are normalized (and may fail) first
    sig = _normalize_projective((scale * u_[:stop, :, 0]).reshape(stop, a, a))
    tau = _normalize_projective((scale * vh_[:stop, 0]).reshape(stop, b, b))
    if stop < n:
        if zero[stop]:
            raise FactorRecoveryFailure(f"element {stop} transforms to zero")
        raise FactorRecoveryFailure(
            f"element {stop} is not rank one in the product basis "
            f"(second singular value {s_[stop, 1]:.3g})")
    kr = kron_stack(sig, tau).reshape(n, 1, d * d)
    flat = rho.reshape(n, 1, d * d)
    # <kr, rho> / <kr, kr> as stacked (1, d^2) @ (d^2, 1) products, which sum
    # like np.vdot of each pair
    krh = kr.conj()
    lam = (krh @ flat.transpose(0, 2, 1) / (krh @ kr.transpose(0, 2, 1)))[:, 0, 0]
    residual = float(np.max(row_norms(flat - lam[:, None, None] * kr)))

    sigma_rep = _as_projective_rep(group, sig, f"{w_rep.name or 'W'}:left")
    tau_rep = _as_projective_rep(group, tau, f"{w_rep.name or 'W'}:right")
    z_space = centralizer(b_space, tol)
    if b_space.dim * z_space.dim != d * d:
        raise AssertionFailure("dual pair dimensions do not multiply up")
    return DualPairFactorization(
        b_space=b_space, z_space=z_space, a=a, b=b,
        sigma=sigma_rep, tau=tau_rep, basis_change=s_mat, lambdas=lam,
        residual=residual)


def _swapped(fact, partner):
    """The partner's factorization: sides, sizes and factors exchanged, the
    same lambda, and the columns of S permuted by the commutation of
    C^a (x) C^b, so ``S'^-1 rho S' = lambda tau (x) sigma``."""
    a, b = fact.a, fact.b
    perm = np.arange(a * b).reshape(a, b).T.ravel()
    return DualPairFactorization(
        b_space=partner, z_space=fact.b_space, a=b, b=a,
        sigma=fact.tau, tau=fact.sigma, basis_change=fact.basis_change[:, perm],
        lambdas=fact.lambdas, residual=fact.residual)


def factor(cs_list, w_rep, tol=RANK_TOL):
    """Factorizations of W along every entry of a centralizer-closed list of
    central simple invariant subalgebras, in list order.

    Each unordered dual pair (B, B') is extracted once, from the entry that
    comes first; B' is the entry equal to ``centralizer(B)``
    (:class:`AssertionFailure` if none is), its factorization is B's with the
    sides exchanged, and ``centralizer(B') = B`` is asserted.  The scalar
    line of a one-dimensional W is its own partner.  On a certified scan's
    list both centralizers are the entries the search memoized, so nothing
    is solved here but each pair's trace-form certificate.
    """
    index = SpaceIndex(cs_list)
    out = [None] * len(cs_list)
    for i, sp in enumerate(cs_list):
        if out[i] is not None:
            continue
        z = centralizer(sp, tol)
        j = index.find(z)
        if j is None:
            raise AssertionFailure(
                f"the centralizer of entry {i} (dim {z.dim}) is not in the list")
        fact = extract_factorization(sp, w_rep, tol=tol)
        if not centralizer(cs_list[j], tol).equals(sp):
            raise AssertionFailure("double centralizer moved")
        out[i] = replace(fact, z_space=cs_list[j])
        if j != i:
            out[j] = _swapped(fact, cs_list[j])
    return out


def cocycle_consistency(fact, w_rep):
    """Max deviation of the cocycle balance over all element pairs.

    The product of the recovered factors' cocycles, corrected by the scalar
    ``lambda`` table, must reproduce the cocycle of the input representation:
    ``alpha_rho(g,h) = alpha_sigma(g,h) alpha_tau(g,h) lambda_g lambda_h /
    lambda_{gh}``.
    """
    g = w_rep.group
    n = g.order

    def table(rep):
        if rep.cocycle is None:
            return np.ones((n, n), dtype=complex)
        return rep.cocycle.values

    pred = (table(fact.sigma) * table(fact.tau)
            * fact.lambdas[:, None] * fact.lambdas[None, :]
            / fact.lambdas[g.mult])
    return float(np.max(np.abs(table(w_rep) - pred)))
