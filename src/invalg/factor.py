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
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from ._linalg import (CERT_TOL, RANK_TOL, ZERO_TRACE, _rank, column_space,
                      kron_stack, row_norms)
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
    closed_sets, seen = [0], {0}
    for closed in closed_sets:  # grows as the sweep finds more
        members = [j for j in range(m) if closed >> j & 1]
        for k in range(m):
            # only products with a new member can leave the closed set
            done, mask, grown = closed, closed | 1 << k, list(members)
            while mask != done:
                i = (mask & ~done).bit_length() - 1
                done |= 1 << i
                grown.append(i)
                for j in grown:
                    mask |= reach[i][j] | reach[j][i]
            if mask not in seen:
                seen.add(mask)
                closed_sets.append(mask)
    return closed_sets


def _reach_table(spaces, comps, tol):
    """``reach[i][j]``: bitmask of the components ``C_i C_j`` has a part in, by
    the isotypic projectors (which split along them even when not orthogonal)."""
    m, ww = len(spaces), spaces[0].flat.shape[1]
    projs = np.stack([c.projector for c in comps]).reshape(m * ww, ww)
    stacked = np.concatenate([sp.basis() for sp in spaces])
    starts = np.cumsum([0] + [sp.dim for sp in spaces[:-1]])
    reach = []
    for sp in spaces:
        prods = (sp.basis()[:, None] @ stacked[None]).reshape(-1, ww)
        hit = np.empty((m, len(prods)), dtype=bool)
        for cols in _pair_blocks(len(prods), m * ww):
            parts = np.linalg.norm((projs @ prods[cols].T).reshape(m, ww, -1), axis=1)
            hit[:, cols] = parts > tol * 10 * np.linalg.norm(prods[cols], axis=1)
        # [k, j]: some product of C_i with C_j has a part in C_k
        hit = np.logical_or.reduceat(hit.reshape(m, sp.dim, -1).any(axis=1), starts, axis=1)
        reach.append([sum(1 << k for k in np.flatnonzero(col).tolist()) for col in hit.T])
    return reach


def multfree_scan(rep, tol=RANK_TOL):
    """Scan sums of isotypic components of conjugation for product closure.

    Returns ``(unital, nonunital, certified)``: product-closed sums that do /
    do not contain the identity matrix, and whether the lists are exhaustive:
    true exactly when every isotypic multiplicity is at most one (then every
    invariant subspace is such a sum), for any number of components.  A sum
    over S is closed when no product of two of its components has a part
    outside S; one closure sweep over that reach table lists every closed S.
    """
    comps = conjugation_decomposition(rep)
    w = rep.dim
    spaces = [MatrixSubspace(column_space(c.projector, tol).T, (w, w))
              for c in comps]
    m = len(comps)
    certified = all(c.multiplicity <= 1 for c in comps)
    reach = _reach_table(spaces, comps, tol)

    found = [MatrixSubspace.zero((w, w))] + [
        MatrixSubspace.from_spanning(
            np.concatenate([spaces[i].flat for i in range(m) if mask >> i & 1]), (w, w), tol)
        for mask in sorted(_closed_sets(reach))[1:]]

    if not certified:
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
    return unital, nonunital, certified


def central_simple_invariant_subalgebras(w_rep, tol=RANK_TOL):
    """Invariant subalgebras with center exactly the scalar line.

    Returns ``(list, certified)``.  The list is closed under taking
    centralizers and always contains the scalar line and the full algebra.
    It is certified complete when the isotypic scan is, or when dim W is 1 or
    prime.  Only an uncertified scan is closed under centralizers by solving
    them: a complete list holds every partner already (:func:`factor` looks
    each one up and raises if it is missing).
    """
    unital, _, certified = multfree_scan(w_rep, tol=tol)
    d = w_rep.dim
    out = []
    for sp in unital:
        # a central simple C = M_a inside End(W) makes W a sum of copies of
        # C^a, so dim C = a^2 with a | d; no other sum needs a solve
        a = math.isqrt(sp.dim)
        if a * a != sp.dim or d % a:
            continue
        _, witness = semisimplicity_certificate(sp, tol)
        if witness is not None:
            continue
        if center(sp, tol).dim == 1:
            out.append(sp)
    if not certified:
        # close under centralizer (the partner of a dual pair is again central
        # simple and invariant; a certified scan already holds it)
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
    # for d = 1 or prime only the scalars and End(W) are central simple
    if all(d % p for p in range(2, d)):
        if any(sp.dim not in (1, d * d) for sp in out):
            raise AssertionFailure(
                f"central simple subalgebra of a prime-dimensional End(W), d = {d}")
        certified = True
    out.sort(key=lambda s: (s.dim, s.fingerprint()))
    return out, certified


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
    line of a one-dimensional W is its own partner.
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
