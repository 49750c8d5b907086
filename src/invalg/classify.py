"""Classification of invariant subalgebras by induction data.

Every unital invariant subalgebra of the matrix algebra on an irreducible V
arises from a triple: a subgroup H, an irreducible H-constituent W of the
restriction with Ind(W) = V, and an H-invariant central simple C inside
End(W).  The construction conjugates C into each transversal translate of the
distinguished W-copy and sums the blocks; enumeration walks all induction
pairs, pulls the central simple subalgebras from :mod:`.factor`, and dedupes
by subspace equality (conjugate data give literally equal subalgebras).
"""

from dataclasses import dataclass

import numpy as np

from ._linalg import RANK_TOL, column_space
from .algebras import (InvariantSubalgebra, centralizer, inertia_subgroup,
                       is_invariant, is_symmetrically_embedded,
                       permutation_action, semisimplicity_certificate,
                       wedderburn_decompose)
from .errors import AssertionFailure, BlocksNotDirect, InvalgError
from .factor import central_simple_invariant_subalgebras, multfree_scan
from .groups import (Subgroup, _conjugates, all_subgroups,
                     are_conjugate_subgroups, class_index_array,
                     left_transversal)
from .reps import (Representation, adjoint_rep, character, character_table,
                   induced_character, inner_product, is_induced_from,
                   is_irreducible, restrict)
from .spaces import MatrixSubspace


@dataclass
class InductionPair:
    """A subgroup H with an irreducible constituent W inducing back to V."""

    subgroup: Subgroup
    w_rep: Representation
    copy_projector: np.ndarray
    transversal: object
    copy_basis: np.ndarray  # (dim V, dim W) orthonormal columns of the W-copy


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


def _conjugate_character_tuple(group, sub, chi, n):
    """Per-element values of ``h -> chi(n^-1 h n)``, rounded for comparison."""
    h_group = sub.as_group()
    cls = class_index_array(h_group)
    pos = {m: i for i, m in enumerate(sub.members)}
    ni = group.inv[n]
    vals = []
    for h in sub.members:
        moved = int(group.mult[group.mult[ni, h], n])
        v = chi.values[cls[pos[moved]]]
        vals.append((round(v.real, 8), round(v.imag, 8)))
    return tuple(vals)


def induction_pairs(v_rep, seed=0, tol=RANK_TOL):
    """All induction pairs (H, W) for an irreducible V, one per conjugacy orbit.

    Scans subgroup-class representatives in increasing order; for each, the
    irreducible constituents W of the restriction with the right dimension
    and induced character equal to the character of V.  Constituents in the
    same orbit under the normalizer of H give the same blocks downstream, so
    one representative (least by rounded character values) is kept.  The pair
    (G, V) itself is always present.
    """
    if not is_irreducible(v_rep):
        raise ValueError("induction pairs are defined for irreducible input")
    group = v_rep.group
    d = v_rep.dim
    pairs = []
    for sub in all_subgroups(group):
        index = sub.index
        if d % index != 0:
            continue
        w_dim = d // index
        h_group = sub.as_group()
        res = restrict(v_rep, sub)
        res_char = character(res)
        table = character_table(h_group, seed=seed)
        normalizer = _normalizer_members(group, sub)
        seen_orbits = set()
        for chi in table:
            if abs(chi.at_element(h_group.identity) - w_dim) > 0.5:
                continue
            if inner_product(res_char, chi) != 1:
                continue
            ind = induced_character(sub, chi)
            chi_v = character(v_rep)
            if max(abs(a - b) for a, b in zip(ind.values, chi_v.values)) > 1e-6:
                continue
            orbit = frozenset(_conjugate_character_tuple(group, sub, chi, n)
                              for n in normalizer)
            if orbit in seen_orbits:
                continue
            seen_orbits.add(orbit)
            # distinguished copy of W: image of the isotypic projector
            proj = np.einsum("g,gij->ij",
                             np.array([chi.values[c].conjugate()
                                       for c in class_index_array(h_group)]),
                             res.matrices) * (w_dim / sub.order)
            if w_dim == d:
                basis = np.eye(d, dtype=complex)
            else:
                basis = column_space(proj, tol)
            if basis.shape[1] != w_dim:
                raise AssertionFailure(
                    f"distinguished copy has dimension {basis.shape[1]}, "
                    f"expected {w_dim}")
            for h in h_group.generators:
                if np.linalg.norm(res.matrices[h] @ proj - proj @ res.matrices[h]) > 1e-6:
                    raise AssertionFailure("copy projector fails to commute")
            w_mats = np.einsum("ai,gab,bj->gij", basis.conj(), res.matrices, basis)
            w_rep = Representation(group=h_group, dim=w_dim, matrices=w_mats,
                                   unitary=v_rep.unitary, name=None)
            if not is_induced_from(v_rep, sub, w_rep):
                raise AssertionFailure("V is not induced from the distinguished copy")
            pairs.append(InductionPair(
                subgroup=sub, w_rep=w_rep, copy_projector=proj,
                transversal=left_transversal(sub), copy_basis=basis))
    if not any(p.subgroup.order == group.order for p in pairs):
        raise AssertionFailure("the trivial pair (G, V) went missing")
    return pairs


def theta(datum, v_rep, seed=0, tol=RANK_TOL):
    """Spread C over the transversal blocks of its induction pair.

    The output acts as (a conjugate of) C on each translate of the W-copy and
    as zero between translates; it is the invariant subalgebra attached to
    the datum.  Abstractly it is a direct sum of [G:H] copies of C, which is
    checked on the component dimensions.
    """
    pair = datum.pair
    sub = pair.subgroup
    l = sub.index
    w = pair.w_rep.dim
    d = v_rep.dim
    q = pair.copy_basis
    blocks = [v_rep.matrices[g] @ q for g in pair.transversal.reps]
    s = np.hstack(blocks)
    svals = np.linalg.svd(s, compute_uv=False)
    if svals[-1] < tol * max(1.0, svals[0]):
        raise BlocksNotDirect(
            "transversal translates of the W-copy do not span independently")
    s_inv = np.linalg.inv(s)
    c_basis = datum.c_space.basis()
    mats = []
    for i in range(l):
        left = blocks[i]
        right = s_inv[i * w:(i + 1) * w]
        for c in c_basis:
            mats.append(left @ c @ right)
    space = MatrixSubspace.from_spanning(mats, (d, d), tol)
    if space.dim != l * datum.c_space.dim:
        raise AssertionFailure(
            f"block span has dimension {space.dim}, expected {l * datum.c_space.dim}")
    if not is_invariant(space, adjoint_rep(v_rep), tol * 100):
        raise AssertionFailure("block construction lost invariance")
    meta = wedderburn_decompose(space, seed=seed, tol=tol)
    c_meta = wedderburn_decompose(datum.c_space, seed=seed, tol=tol)
    if sorted(meta.component_dims) != sorted(c_meta.component_dims * l):
        raise AssertionFailure(
            f"components {meta.component_dims} are not {l} copies of "
            f"{c_meta.component_dims}")
    meta.induction_datum = datum
    return meta


def enumerate_invariant_subalgebras(v_rep, seed=0, tol=RANK_TOL):
    """All unital invariant subalgebras of End(V), with a completeness flag.

    Walks every induction pair, takes every central simple invariant C in the
    corresponding End(W), and emits the block construction; equal outputs
    from different data are merged (first datum found is kept).  ``complete``
    is true when the central-simple search was certified for every pair.
    """
    pairs = induction_pairs(v_rep, seed=seed, tol=tol)
    out = []
    complete = True
    for pair in pairs:
        cs_list, certified = central_simple_invariant_subalgebras(
            pair.w_rep, seed=seed, tol=tol)
        complete = complete and certified
        w = pair.w_rep.dim
        for c_space in cs_list:
            a = int(round(np.sqrt(c_space.dim)))
            datum = InductionDatum(pair, c_space, quad=(a, w // a))
            b = theta(datum, v_rep, seed=seed, tol=tol)
            if not any(b.space.equals(o.space) for o in out):
                out.append(b)
    for b in list(out):
        z = centralizer(b.space, tol)
        if not any(z.equals(o.space) for o in out):
            raise AssertionFailure(
                f"centralizer of a dim-{b.space.dim} output is missing from the list")
    d = v_rep.dim
    if not any(o.space.dim == 1 for o in out):
        raise AssertionFailure("scalar line missing")
    if not any(o.space.dim == d * d for o in out):
        raise AssertionFailure("full algebra missing")
    out.sort(key=lambda o: (o.space.dim, o.space.fingerprint()))
    return out, complete


def verify_classification(subalgebras, v_rep, seed=0, tol=RANK_TOL):
    """Run the structural guarantees over a list of candidate subalgebras.

    Checks per entry: invariance, semisimplicity, symmetric embedding, double
    centralizer, centralizer membership in the list, transitivity of the
    block permutation action, inertia group conjugate to the recorded H, and
    the span of the central idempotents being the block construction of the
    scalar subalgebra for the same pair.  Violations, including the domain
    errors a check raises, are collected, not raised.
    """
    ad = adjoint_rep(v_rep)
    spaces = [b.space if isinstance(b, InvariantSubalgebra) else b
              for b in subalgebras]
    violations = []
    for idx, entry in enumerate(subalgebras):
        space = spaces[idx]
        label = f"entry {idx} (dim {space.dim})"
        try:
            if not is_invariant(space, ad, tol * 100):
                violations.append(f"{label}: not invariant under conjugation")
                continue
            _, witness = semisimplicity_certificate(space, tol)
            if witness is not None:
                violations.append(f"{label}: trace form degenerate (radical found)")
                continue
            meta = (entry if isinstance(entry, InvariantSubalgebra)
                    else wedderburn_decompose(space, seed=seed, tol=tol))
            if not is_symmetrically_embedded(meta, seed=seed, tol=tol):
                violations.append(f"{label}: embedding is not symmetric")
            z = centralizer(space, tol)
            if not centralizer(z, tol).equals(space):
                violations.append(f"{label}: double centralizer moved")
            if not any(z.equals(o) for o in spaces):
                violations.append(f"{label}: centralizer missing from the list")
            sigma, transitive = permutation_action(meta, ad)
            if not transitive:
                violations.append(f"{label}: block permutation action not transitive")
            datum = meta.induction_datum
            if datum is not None:
                inert = inertia_subgroup(meta, ad)
                if not are_conjugate_subgroups(inert, datum.pair.subgroup):
                    violations.append(
                        f"{label}: inertia group not conjugate to the recorded subgroup")
                cartan = theta(
                    InductionDatum(datum.pair,
                                   MatrixSubspace.identity_line(datum.pair.w_rep.dim)),
                    v_rep, seed=seed, tol=tol)
                idem_span = MatrixSubspace.from_spanning(
                    meta.idempotents, space.shape, tol)
                if not idem_span.equals(cartan.space):
                    violations.append(
                        f"{label}: idempotent span differs from the scalar-block span")
        except (InvalgError, ValueError, np.linalg.LinAlgError) as exc:
            # a domain failure is this entry's violation; a bug propagates
            violations.append(f"{label}: {type(exc).__name__}: {exc}")
    return ClassificationReport(violations=violations, checked=len(subalgebras))


def theta_lattice_check(pair, c1, c2, v_rep, seed=0, tol=RANK_TOL):
    """Intersections and inclusions must commute with the block construction."""
    violations = []
    t1 = theta(InductionDatum(pair, c1), v_rep, seed=seed, tol=tol).space
    t2 = theta(InductionDatum(pair, c2), v_rep, seed=seed, tol=tol).space
    meet = c1.intersect(c2, tol)
    tmeet = theta(InductionDatum(pair, meet), v_rep, seed=seed, tol=tol).space
    if not tmeet.equals(t1.intersect(t2, tol)):
        violations.append("block construction does not commute with intersection")
    for x, y, tx, ty, tag in ((c1, c2, t1, t2, "C in C'"),
                              (c2, c1, t2, t1, "C' in C")):
        if y.contains_space(x) != ty.contains_space(tx):
            violations.append(f"inclusion {tag} not preserved and reflected")
    return ClassificationReport(violations=violations, checked=3)


def theta_transitivity_check(v_rep, seed=0, tol=RANK_TOL):
    """Composing the construction along a chain H <= K <= G matches going direct.

    For every non-trivial pair (K, U) of V and every non-trivial pair (H, W)
    of U, the block construction of a subalgebra of End(W) through K and then
    G must equal some direct construction at a pair of V with the same
    subgroup order (the composite pair, up to conjugacy).  Checked with both
    the scalar line and the full End(W).
    """
    pairs = induction_pairs(v_rep, seed=seed, tol=tol)
    violations = []
    checked = 0
    group = v_rep.group
    for outer in pairs:
        if outer.subgroup.order == group.order:
            continue
        inner_pairs = induction_pairs(outer.w_rep, seed=seed, tol=tol)
        for inner in inner_pairs:
            if inner.subgroup.order == outer.subgroup.order:
                continue
            wdim = inner.w_rep.dim
            for c_w, kind in ((MatrixSubspace.identity_line(wdim), "scalars"),
                              (MatrixSubspace.full((wdim, wdim)), "full")):
                step = theta(InductionDatum(inner, c_w), outer.w_rep,
                             seed=seed, tol=tol)
                composed = theta(InductionDatum(outer, step.space), v_rep,
                                 seed=seed, tol=tol)
                target_order = inner.subgroup.order
                direct_hits = []
                for p in pairs:
                    if p.subgroup.order != target_order:
                        continue
                    pdim = p.w_rep.dim
                    c_v = (MatrixSubspace.identity_line(pdim) if kind == "scalars"
                           else MatrixSubspace.full((pdim, pdim)))
                    cand = theta(InductionDatum(p, c_v), v_rep, seed=seed, tol=tol)
                    direct_hits.append(cand.space.equals(composed.space))
                if not any(direct_hits):
                    violations.append(
                        f"chain through order-{outer.subgroup.order} subgroup, "
                        f"inner order {target_order}, {kind}: no direct match")
                checked += 1
    return ClassificationReport(violations=violations, checked=checked)


def nonunital_scan(v_rep, seed=0, tol=RANK_TOL):
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
    _, nonunital, _ = multfree_scan(adjoint_rep(v_rep), seed=seed, tol=tol)
    if len(nonunital) != 1 or nonunital[0].dim != 0:
        raise AssertionFailure(
            "an irreducible rep produced a nonzero nonunital closed subspace")
    return nonunital, True
