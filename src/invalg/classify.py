"""Classification of invariant subalgebras by induction data.

Every unital invariant subalgebra of the matrix algebra on an irreducible,
possibly projective, V arises from a triple: a subgroup H, an irreducible
H-constituent W of the restriction with Ind(W) = V, and an H-invariant
central simple C inside End(W).  Two routes list them.

When the conjugation action of G on End(V) is multiplicity-free, every
invariant subspace is a sum of its isotypic components, so the unital
closed sums of one scan on V (:mod:`.factor`) are the whole list, and their
centralizers and centers are bitmasks.  Each entry's datum is read off the
entry B itself: the center of B splits into central idempotents that G
permutes transitively, H is a stabilizer of one, e, W = eV and C is B
compressed to W.  No subgroup is swept and no centralizer is solved.  The
mask lattice must certify itself (S'' = S for every unital closed sum S).

Every other V, and a scan that fails that check, takes the induction route:
W is read off the commutant of each restriction, and each pair carries the
block basis of its transversal translates.  The construction conjugates C
into each translate of the distinguished W-copy and sums the blocks; the
route walks all induction pairs, pulls the central simple subalgebras from
:mod:`.factor`, and dedupes by subspace equality (conjugate data give
literally equal subalgebras).
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from ._linalg import CERT_TOL, RANK_TOL, _rank, column_space
from .algebras import (InvariantSubalgebra, _certified_projectors, _sorted_idempotents,
                       _spectral_split, _stabilizer, _symmetric_embedding, center,
                       centralizer, is_invariant, permutation_action,
                       semisimplicity_certificate, wedderburn_decompose)
from .errors import AssertionFailure, BlocksNotDirect, InvalgError
from .factor import (_isotypic_table, _memoized_sums, _unital_masks,
                     central_simple_invariant_subalgebras, multfree_scan)
from .groups import (Subgroup, _conjugates, _subgroup_cap, are_conjugate_subgroups,
                     left_transversal, subgroups_of_index_dividing)
from .groups import all_subgroups  # noqa: F401  bench/check.py traces it here
from .reps import (Representation, _conjugation_count, commutant_decomposition,
                   is_irreducible, restrict)
from .spaces import MatrixSubspace, SpaceIndex


@dataclass
class InductionPair:
    """A subgroup H with an irreducible constituent W inducing back to V.

    ``s`` holds the translates ``rho(t_i) Q`` of the W-copy Q side by side,
    one block of dim W columns per element ``t_i`` of ``transversal`` (``t_0``
    is the identity, so ``s[:, :dim W]`` is Q), and ``s_inv`` is its inverse.
    """

    subgroup: Subgroup
    w_rep: Representation
    transversal: object
    s: np.ndarray
    s_inv: np.ndarray


@dataclass
class InductionDatum:
    """An induction pair plus a subalgebra C of End(W) to spread over blocks."""

    pair: InductionPair
    c_space: MatrixSubspace
    quad: tuple = None  # (a, b) with a*b = dim W when C is central simple


@dataclass
class ClassificationReport:
    violations: list
    checked: int

    @property
    def ok(self):
        return not self.violations


def _normalizer_members(group, sub):
    rows = _conjugates(group, sub.members)
    return np.flatnonzero((rows == np.array(sub.members)).all(axis=1))


def induction_pairs(v_rep, tol=RANK_TOL):
    """All induction pairs (H, W) for an irreducible V, one per conjugacy orbit.

    Scans the proper subgroup classes of index l dividing d = dim V in
    increasing order.  The central idempotents of End_H(V) are the isotypic
    projectors of the restriction (:func:`.reps.commutant_decomposition`).
    One of component size 1 (multiplicity one) and rank d / l cuts out a W
    with Ind W = V by Frobenius reciprocity; W keeps the restriction's
    cocycle, so V may be projective.  The normalizer of H permutes these
    projectors by conjugation, and a W moved by it gives the same blocks
    downstream, so the first of each orbit is kept.  By Mackey,
    dim End_H(V) <= [G:H] <= d.  The pair (G, V) comes last, W = V copied by
    the identity.
    """
    if not is_irreducible(v_rep):
        raise ValueError("induction pairs are defined for irreducible input")
    group, d = v_rep.group, v_rep.dim
    pairs = []
    *proper, whole = subgroups_of_index_dividing(group, d)
    for sub in proper:
        res = restrict(v_rep, sub)
        meta = commutant_decomposition(res, tol)
        keep = [i for i, (k, m) in enumerate(zip(meta.component_dims, meta.multiplicities))
                if k == 1 and m == d // sub.index]
        if len(keep) > 1:
            normalizer = Subgroup(group, _normalizer_members(group, sub))
            sigma, _ = permutation_action(meta, restrict(v_rep, normalizer))
            keep = [i for i in keep if sigma[:, i].min() == i]
        pairs.extend(_image_pair(v_rep, sub, res, meta.idempotents[i], tol) for i in keep)
    pairs.append(_whole_pair(v_rep, whole, tol))
    return pairs


def _image_pair(v_rep, sub, res, e, tol=RANK_TOL):
    """The pair (H, eV) for an idempotent ``e`` of V commuting with H, where
    ``res`` is V restricted to H; eV keeps the restriction's cocycle."""
    q = column_space(e, tol)
    w_mats = np.einsum("ai,gab,bj->gij", q.conj(), res.matrices, q)
    return _pair(v_rep, sub, replace(res, dim=q.shape[1], matrices=w_mats), q, tol)


def _whole_pair(v_rep, whole, tol=RANK_TOL):
    """The pair (G, V), V copied by the identity."""
    return _pair(v_rep, whole, restrict(v_rep, whole), np.eye(v_rep.dim, dtype=complex), tol)


def _pair(v_rep, sub, w_rep, q, tol=RANK_TOL):
    """The pair (H, W) on the W-copy with columns ``q``, with its block basis.

    ``s`` puts the translates ``rho(t_i) Q`` side by side over the left
    transversal; it must be square of rank dim V, which certifies V = sum
    rho(t_i) W = Ind W (:class:`BlocksNotDirect` otherwise).
    """
    trans = left_transversal(sub)
    s = np.hstack(v_rep.matrices[list(trans.reps)] @ q)
    if s.shape[1] != v_rep.dim or _rank(np.linalg.svd(s, compute_uv=False), tol) < v_rep.dim:
        raise BlocksNotDirect(
            "transversal translates of the W-copy do not span independently")
    return InductionPair(subgroup=sub, w_rep=w_rep, transversal=trans,
                         s=s, s_inv=np.linalg.inv(s))


def _block_span(pair, c_space, v_rep, tol=RANK_TOL):
    """Span of C conjugated into each transversal translate of the W-copy.

    Block ``i`` of ``c`` is ``s[:, I] @ c @ s_inv[I]`` on the columns ``I`` of
    translate ``rho(t_i) Q`` in the pair's ``s``.  Raises
    :class:`AssertionFailure` unless the span is invariant of dim [G:H] dim C.
    """
    l, w, d = pair.subgroup.index, pair.w_rep.dim, v_rep.dim
    blocks = pair.s.reshape(d, l, w).transpose(1, 0, 2)
    mats = blocks[:, None] @ c_space.basis()[None] @ pair.s_inv.reshape(l, w, d)[:, None]
    space = MatrixSubspace.from_spanning(mats.reshape(-1, d, d), (d, d), tol)
    if space.dim != l * c_space.dim:
        raise AssertionFailure(
            f"block span has dimension {space.dim}, expected {l * c_space.dim}")
    if not is_invariant(space, v_rep, tol * 100):
        raise AssertionFailure("block construction lost invariance")
    return space


def theta(datum, v_rep, tol=RANK_TOL):
    """Spread a central simple C = M_a over the transversal blocks of its pair.

    The output acts as (a conjugate of) C on each translate of the W-copy and
    as zero between translates: [G:H] copies of C, so its Wedderburn data are
    read off the datum.  The central primitive idempotents are the blocks of
    the identity of End(W), certified on ``s`` and ``s^-1`` and inside the
    span; each component has size ``a`` (``datum.quad[0]``, else
    ``sqrt(dim C)``) and multiplicity ``dim W / a``.  Any other C goes
    through :func:`_block_span` alone.
    """
    w, k = datum.pair.w_rep.dim, datum.c_space.dim
    a = datum.quad[0] if datum.quad else math.isqrt(k)
    if a * a != k or w % a:
        raise ValueError(f"a dim-{k} C is not M_a for any a dividing dim W = {w}")
    space = _block_span(datum.pair, datum.c_space, v_rep, tol)
    s = datum.pair.s
    idems = _certified_projectors(s, datum.pair.s_inv, np.arange(len(s)).reshape(-1, w))
    if idems is None or not space.contains_all(idems, CERT_TOL):
        raise AssertionFailure("block projectors fail as central idempotents of the span")
    return InvariantSubalgebra(
        space=space, unital=True, idempotents=_sorted_idempotents(idems),
        component_dims=[a] * len(idems), multiplicities=[w // a] * len(idems),
        induction_datum=datum)


def enumerate_invariant_subalgebras(v_rep, tol=RANK_TOL):
    """All unital invariant subalgebras of End(V), with a completeness flag.

    When V's conjugation action is multiplicity-free (read off its class
    trace form, with no class sum built), every invariant subspace of End(V)
    is a sum of isotypic components, so the unital closed sums of one scan
    on V are the whole list, complete (:func:`_scan_route`).  Every other V,
    and a scan whose mask lattice fails its double centralizer check, takes
    the induction route (:func:`_induction_route`).  Groups past the
    subgroup order cap raise :class:`.CapExceeded` on either route.
    """
    _subgroup_cap(v_rep.group)
    if _conjugation_count(v_rep)[1]:
        out = _scan_route(v_rep, tol)
        if out is not None:
            return out, True
    return _induction_route(v_rep, tol)


def _scan_route(v_rep, tol=RANK_TOL):
    """The list read off a multiplicity-free scan of V, or ``None`` unless
    its mask lattice certifies itself.

    Each unital closed sum S of :func:`.factor._isotypic_table` has the
    centralizer mask S' (:func:`.factor._unital_masks`), which must again be
    a unital closed sum with S'' = S (double centralizer theorem).  Each sum
    is built once, memoizing S' as its centralizer and S meet S' as its
    center.  An entry's Wedderburn data and induction datum come from its
    center Z(B) of dimension l (:func:`_center_pair`): B is l copies of
    M_a, a^2 = dim B / l, each of multiplicity dim W / a with W = e V for a
    central primitive idempotent e of B, and C is B compressed to W.
    """
    if not is_irreducible(v_rep):
        raise ValueError("invariant subalgebras are classified for irreducible input")
    table = _isotypic_table(v_rep, tol)
    partners = _unital_masks(table)
    if any(partners.get(partner) != mask for mask, partner in partners.items()):
        return None
    built = _memoized_sums(table, partners, tol)
    centers, out = {}, []  # centers: mask of Z(B) -> (idempotents, pair)
    for mask, partner in partners.items():
        space, zmask = built[mask], mask & partner
        if zmask not in centers:
            centers[zmask] = _center_pair(v_rep, built[zmask], tol)
        idems, pair = centers[zmask]
        l, w = len(idems), pair.w_rep.dim
        q = pair.s[:, :w]
        c_space = space if l == 1 else MatrixSubspace.from_spanning(
            q.conj().T @ space.basis() @ q, (w, w), tol)
        a = math.isqrt(space.dim // l)
        if a * a * l != space.dim or c_space.dim != a * a or w % a:
            raise AssertionFailure(
                f"a dim-{space.dim} sum is not {l} blocks M_a with a dividing {w}")
        out.append(InvariantSubalgebra(
            space=space, unital=True, idempotents=idems, component_dims=[a] * l,
            multiplicities=[w // a] * l,
            induction_datum=InductionDatum(pair, c_space, quad=(a, w // a))))
    return _finished(out, v_rep.dim)


def _center_pair(v_rep, z, tol=RANK_TOL):
    """``(idempotents, pair)`` for the invariant subalgebras with center ``z``.

    A one-dimensional center gives ``[I]`` and the pair (G, V).  Otherwise
    one spectral split of the commutative ``z`` gives its l primitive
    idempotents, which G permutes transitively (V is irreducible).  H is
    the lexicographically least of their stabilizers, so it depends on the
    center alone, and W = e V for the first idempotent e it fixes; the rank
    of the pair's translates certifies Ind W = V.
    """
    group, d, l = v_rep.group, v_rep.dim, z.dim
    if l == 1:
        return [np.eye(d, dtype=complex)], _whole_pair(
            v_rep, Subgroup(group, range(group.order)), tol)
    idems = _spectral_split(None, z.basis(), l)
    if idems is None:
        raise AssertionFailure(f"a dim-{l} center failed to split")
    idems = _sorted_idempotents(idems)
    # Z(B) is itself an invariant subalgebra: l components M_1 of rank d / l
    sigma, _ = permutation_action(InvariantSubalgebra(
        space=z, unital=True, idempotents=idems, component_dims=[1] * l,
        multiplicities=[d // l] * l), v_rep)
    stabs = [tuple(np.flatnonzero(sigma[:, i] == i).tolist()) for i in range(l)]
    i = stabs.index(min(stabs))
    sub = _stabilizer(group, sigma, i)
    return idems, _image_pair(v_rep, sub, restrict(v_rep, sub), idems[i], tol)


def _induction_route(v_rep, tol=RANK_TOL):
    """:func:`enumerate_invariant_subalgebras` by induction data, for any V.

    Walks every induction pair, takes every central simple invariant C in the
    corresponding End(W), and emits the block construction; equal outputs
    from different data are merged (first datum found is kept).  ``complete``
    is true when the central-simple search was certified for every pair.
    """
    pairs = induction_pairs(v_rep, tol=tol)
    out, index = [], SpaceIndex()
    complete = True
    for pair in pairs:
        cs_list, certified = central_simple_invariant_subalgebras(pair.w_rep, tol=tol)
        complete = complete and certified
        w = pair.w_rep.dim
        for c_space in cs_list:
            a = int(round(np.sqrt(c_space.dim)))
            datum = InductionDatum(pair, c_space, quad=(a, w // a))
            b = theta(datum, v_rep, tol=tol)
            if index.find(b.space) is None:
                index.append(b.space)
                out.append(b)
    for b in out:
        if index.find(centralizer(b.space, tol)) is None:
            raise AssertionFailure(
                f"centralizer of a dim-{b.space.dim} output is missing from the list")
    return _finished(out, v_rep.dim), complete


def _finished(out, d):
    """``out`` sorted by dimension and fingerprint, once it is seen to hold
    the scalar line and the full algebra."""
    if not any(o.space.dim == 1 for o in out):
        raise AssertionFailure("scalar line missing")
    if not any(o.space.dim == d * d for o in out):
        raise AssertionFailure("full algebra missing")
    out.sort(key=lambda o: (o.space.dim, o.space.fingerprint()))
    return out


def verify_classification(subalgebras, v_rep, tol=RANK_TOL):
    """Run the structural guarantees over a list of candidate subalgebras.

    Checks per entry: invariance, semisimplicity, symmetric embedding (the
    partner's data read off the entry's idempotents), double centralizer,
    centralizer (partner) membership in the list, transitivity of the
    block permutation action, inertia group conjugate to the recorded H, and
    the center (the entry meet its centralizer) being the block construction
    of the scalar subalgebra for the same pair.  Violations, including the
    domain errors a check raises, are collected, not raised.
    """
    spaces = [b.space if isinstance(b, InvariantSubalgebra) else b
              for b in subalgebras]
    index = SpaceIndex(spaces)
    violations = []
    cartans = {}  # id(pair) -> scalar-block span of the pair, built once
    for idx, entry in enumerate(subalgebras):
        space = spaces[idx]
        label = f"entry {idx} (dim {space.dim})"
        try:
            if not is_invariant(space, v_rep, tol * 100):
                violations.append(f"{label}: not invariant under conjugation")
                continue
            _, witness = semisimplicity_certificate(space, tol)
            if witness is not None:
                violations.append(f"{label}: trace form degenerate (radical found)")
                continue
            meta = (entry if isinstance(entry, InvariantSubalgebra)
                    else wedderburn_decompose(space, tol=tol))
            z = centralizer(space, tol)
            j = index.find(z)
            partner = z if j is None else spaces[j]
            if not _symmetric_embedding(meta, partner, tol):
                violations.append(f"{label}: embedding is not symmetric")
            if not centralizer(partner, tol).equals(space):
                violations.append(f"{label}: double centralizer moved")
            if j is None:
                violations.append(f"{label}: centralizer missing from the list")
            sigma, transitive = permutation_action(meta, v_rep)
            if not transitive:
                violations.append(f"{label}: block permutation action not transitive")
            datum = meta.induction_datum
            if datum is not None:
                inert = _stabilizer(v_rep.group, sigma)
                if not are_conjugate_subgroups(inert, datum.pair.subgroup):
                    violations.append(
                        f"{label}: inertia group not conjugate to the recorded subgroup")
                cartan = cartans.get(id(datum.pair))
                if cartan is None:
                    # a failed build is not stored, so each entry of the
                    # pair reports the same error
                    cartan = cartans[id(datum.pair)] = _block_span(
                        datum.pair, MatrixSubspace.identity_line(datum.pair.w_rep.dim),
                        v_rep, tol)
                if not center(space, tol).equals(cartan):
                    violations.append(
                        f"{label}: center differs from the scalar-block span")
        except (InvalgError, ValueError, np.linalg.LinAlgError) as exc:
            # a domain failure is this entry's violation; a bug propagates
            violations.append(f"{label}: {type(exc).__name__}: {exc}")
    return ClassificationReport(violations=violations, checked=len(subalgebras))


def theta_lattice_check(pair, c1, c2, v_rep, tol=RANK_TOL):
    """Intersections and inclusions must commute with the block construction."""
    violations = []
    t1, t2, tmeet = (_block_span(pair, c, v_rep, tol)
                     for c in (c1, c2, c1.intersect(c2, tol)))
    if not tmeet.equals(t1.intersect(t2, tol)):
        violations.append("block construction does not commute with intersection")
    for x, y, tx, ty, tag in ((c1, c2, t1, t2, "C in C'"),
                              (c2, c1, t2, t1, "C' in C")):
        if y.contains_space(x) != ty.contains_space(tx):
            violations.append(f"inclusion {tag} not preserved and reflected")
    return ClassificationReport(violations=violations, checked=3)


def theta_transitivity_check(v_rep, tol=RANK_TOL):
    """Composing the construction along a chain H <= K <= G matches going direct.

    For every non-trivial pair (K, U) of V and every non-trivial pair (H, W)
    of U, the block construction of a subalgebra of End(W) through K and then
    G must equal some direct construction at a pair of V with the same
    subgroup order (the composite pair, up to conjugacy).  Checked with both
    the scalar line and the full End(W).
    """
    pairs = induction_pairs(v_rep, tol=tol)
    violations = []
    checked = 0
    group = v_rep.group
    kinds = {"scalars": MatrixSubspace.identity_line,
             "full": lambda w: MatrixSubspace.full((w, w))}
    for outer in pairs:
        if outer.subgroup.order == group.order:
            continue
        inner_pairs = induction_pairs(outer.w_rep, tol=tol)
        for inner in inner_pairs:
            if inner.subgroup.order == outer.subgroup.order:
                continue
            for kind, c_of in kinds.items():
                step = _block_span(inner, c_of(inner.w_rep.dim), outer.w_rep, tol)
                composed = _block_span(outer, step, v_rep, tol)
                target_order = inner.subgroup.order
                direct_hits = [
                    _block_span(p, c_of(p.w_rep.dim), v_rep, tol).equals(composed)
                    for p in pairs if p.subgroup.order == target_order]
                if not any(direct_hits):
                    violations.append(
                        f"chain through order-{outer.subgroup.order} subgroup, "
                        f"inner order {target_order}, {kind}: no direct match")
                checked += 1
    return ClassificationReport(violations=violations, checked=checked)


def nonunital_scan(v_rep, tol=RANK_TOL):
    """Product-closed invariant subspaces without the identity.

    Returns ``(list, certified)`` from the isotypic subset scan of the
    conjugation action.  For irreducible V the zero space is proved to be the
    only entry, so the result is always certified: a nonzero invariant
    subalgebra has an invariant radical R, and RV is a G-submodule, so R = 0;
    its unit e then makes eV a nonzero submodule, so e = I.  The scan checks
    this and any other entry raises :class:`AssertionFailure`.
    """
    if not is_irreducible(v_rep):
        raise ValueError("the nonunital scan is defined for irreducible input")
    _, nonunital, _ = multfree_scan(v_rep, tol=tol)
    if len(nonunital) != 1 or nonunital[0].dim != 0:
        raise AssertionFailure(
            "an irreducible rep produced a nonzero nonunital closed subspace")
    return nonunital, True
