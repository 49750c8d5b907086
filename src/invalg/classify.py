"""Classification of invariant subalgebras by induction data.

Every unital invariant subalgebra of the matrix algebra on an irreducible V
arises from a triple: a subgroup H, an irreducible H-constituent W of the
restriction with Ind(W) = V, and an H-invariant central simple C inside
End(W).  The construction conjugates C into each transversal translate of the
distinguished W-copy and sums the blocks; enumeration walks all induction
pairs, pulls the central simple subalgebras from :mod:`.factor`, and dedupes
by subspace equality (conjugate data give literally equal subalgebras).
"""

import math
from dataclasses import dataclass

import numpy as np

from ._linalg import CERT_TOL, INT_TOL, RANK_TOL, _rank, column_space
from .algebras import (InvariantSubalgebra, _certified_projectors, _sorted_idempotents,
                       _stabilizer, _symmetric_embedding, center, centralizer,
                       is_invariant, permutation_action, semisimplicity_certificate,
                       wedderburn_decompose)
from .errors import AssertionFailure, BlocksNotDirect, InvalgError
from .factor import central_simple_invariant_subalgebras, multfree_scan
from .groups import (Subgroup, _conjugates, are_conjugate_subgroups,
                     class_index_array, conjugacy_classes, left_transversal,
                     subgroups_of_index_dividing)
from .groups import all_subgroups  # noqa: F401  bench/check.py traces it here
from .reps import (Representation, character, character_table,
                   induced_character, inner_product, is_induced_from,
                   is_irreducible, restrict)
from .spaces import MatrixSubspace, SpaceIndex


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


def _conjugation_class_maps(group, sub, normalizer):
    """Distinct rows ``c -> class of n^-1 h_c n`` over ``n`` in the normalizer.

    ``h_c`` is the least member of class ``c`` of H.  Conjugation by ``n``
    permutes the classes of H, so a row fixes the conjugate of a character;
    all rows come from one gather over the normalizer.
    """
    h_group = sub.as_group()
    members = np.array(sub.members)
    pos = np.full(group.order, -1, dtype=np.intp)
    pos[members] = np.arange(len(members))
    reps = members[[c[0] for c in conjugacy_classes(h_group)]]
    n = np.asarray(normalizer)
    moved = group.mult[group.mult[group.inv[n][:, None], reps[None, :]], n[:, None]]
    return np.unique(class_index_array(h_group)[pos[moved]], axis=0)


def induction_pairs(v_rep, tol=RANK_TOL):
    """All induction pairs (H, W) for an irreducible V, one per conjugacy orbit.

    Scans the subgroup classes of index dividing dim V in increasing order;
    for each, the irreducible constituents W of the restriction with the
    right dimension and induced character equal to the character of V.
    Constituents in the same orbit under the normalizer of H give the same
    blocks downstream, so one representative (least by rounded character
    values) is kept.  The pair (G, V) itself is always present.
    """
    if not is_irreducible(v_rep):
        raise ValueError("induction pairs are defined for irreducible input")
    group = v_rep.group
    d = v_rep.dim
    chi_v = character(v_rep)
    pairs = []
    for sub in subgroups_of_index_dividing(group, d):
        w_dim = d // sub.index
        h_group = sub.as_group()
        res = restrict(v_rep, sub)
        res_char = character(res)
        table = character_table(h_group)
        class_maps = _conjugation_class_maps(
            group, sub, _normalizer_members(group, sub))
        seen_orbits = set()
        for chi in table:
            if abs(chi.at_element(h_group.identity) - w_dim) > 0.5:
                continue
            if inner_product(res_char, chi) != 1:
                continue
            ind = induced_character(sub, chi)
            if max(abs(a - b) for a, b in zip(ind.values, chi_v.values)) > INT_TOL:
                continue
            rounded = [(round(v.real, 8), round(v.imag, 8)) for v in chi.values]
            orbit = frozenset(tuple(rounded[c] for c in row) for row in class_maps)
            if orbit in seen_orbits:
                continue
            seen_orbits.add(orbit)
            # distinguished copy of W: image of the isotypic projector
            proj = np.einsum("g,gij->ij", np.conj(chi.values)[class_index_array(h_group)],
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
                if np.linalg.norm(res.matrices[h] @ proj - proj @ res.matrices[h]) > CERT_TOL:
                    raise AssertionFailure("copy projector fails to commute")
            w_mats = np.einsum("ai,gab,bj->gij", basis.conj(), res.matrices, basis)
            w_rep = Representation(group=h_group, dim=w_dim, matrices=w_mats, name=None)
            if not is_induced_from(v_rep, sub, w_rep):
                raise AssertionFailure("V is not induced from the distinguished copy")
            pairs.append(InductionPair(
                subgroup=sub, w_rep=w_rep, copy_projector=proj,
                transversal=left_transversal(sub), copy_basis=basis))
    if not any(p.subgroup.order == group.order for p in pairs):
        raise AssertionFailure("the trivial pair (G, V) went missing")
    return pairs


def _block_span(pair, c_space, v_rep, tol=RANK_TOL):
    """Span of C conjugated into each transversal translate of the W-copy.

    Returns ``(space, s, s_inv)``; block ``i`` of ``c`` is ``s[:, I] @ c @
    s_inv[I]`` on the columns ``I`` of translate ``rho(t_i) Q`` in ``s``.  Raises
    :class:`BlocksNotDirect` unless the translates span V independently, and
    :class:`AssertionFailure` unless the span is invariant of dim [G:H] dim C.
    """
    l, w, d = pair.subgroup.index, pair.w_rep.dim, v_rep.dim
    blocks = v_rep.matrices[list(pair.transversal.reps)] @ pair.copy_basis
    s = np.hstack(blocks)
    if _rank(np.linalg.svd(s, compute_uv=False), tol) < d:
        raise BlocksNotDirect(
            "transversal translates of the W-copy do not span independently")
    s_inv = np.linalg.inv(s)
    mats = blocks[:, None] @ c_space.basis()[None] @ s_inv.reshape(l, w, d)[:, None]
    space = MatrixSubspace.from_spanning(mats.reshape(-1, d, d), (d, d), tol)
    if space.dim != l * c_space.dim:
        raise AssertionFailure(
            f"block span has dimension {space.dim}, expected {l * c_space.dim}")
    if not is_invariant(space, v_rep, tol * 100):
        raise AssertionFailure("block construction lost invariance")
    return space, s, s_inv


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
    space, s, s_inv = _block_span(datum.pair, datum.c_space, v_rep, tol)
    idems = _certified_projectors(s, s_inv, np.arange(len(s)).reshape(-1, w))
    if idems is None or not space.contains_all(idems, CERT_TOL):
        raise AssertionFailure("block projectors fail as central idempotents of the span")
    return InvariantSubalgebra(
        space=space, unital=True, idempotents=_sorted_idempotents(idems),
        component_dims=[a] * len(idems), multiplicities=[w // a] * len(idems),
        induction_datum=datum)


def enumerate_invariant_subalgebras(v_rep, tol=RANK_TOL):
    """All unital invariant subalgebras of End(V), with a completeness flag.

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
    d = v_rep.dim
    if not any(o.space.dim == 1 for o in out):
        raise AssertionFailure("scalar line missing")
    if not any(o.space.dim == d * d for o in out):
        raise AssertionFailure("full algebra missing")
    out.sort(key=lambda o: (o.space.dim, o.space.fingerprint()))
    return out, complete


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
                        v_rep, tol)[0]
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
    t1, t2, tmeet = (_block_span(pair, c, v_rep, tol)[0]
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
                step = _block_span(inner, c_of(inner.w_rep.dim), outer.w_rep, tol)[0]
                composed = _block_span(outer, step, v_rep, tol)[0]
                target_order = inner.subgroup.order
                direct_hits = [
                    _block_span(p, c_of(p.w_rep.dim), v_rep, tol)[0].equals(composed)
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
