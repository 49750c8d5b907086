"""Linear and projective matrix representations of finite groups.

A representation assigns one ``d x d`` complex matrix to each group element
(indexed ``0..n-1``).  Projective representations carry an explicit 2-cocycle
table: ``rho(g) @ rho(h) = alpha(g, h) * rho(g*h)``.

The irreducible character table of a group is read off its class algebra
(Burnside's method as in Dixon 1967): the class sums multiply by integer
structure constants, and the central characters ``|C| chi / chi(1)`` are the
common eigenvectors of the k x k matrices of that multiplication, found as
the spectral projectors of a generic element of their span.

The conjugation action ``X -> rho(g) X rho(g)^-1`` on End(V) is split the
same way, on its own class sums: one certified eigen-split gives the
eigenvectors whose clusters span its isotypic components, which the scan of
:mod:`.factor` reads directly, and from which the projectors are formed
only on request (:func:`conjugation_decomposition`).
"""

from dataclasses import dataclass

import numpy as np

from ._linalg import (CERT_TOL, INT_TOL, RANK_TOL, ZERO_DET, _rank, intertwiners,
                      kron_stack, round_to_gaussian_int, round_to_int,
                      row_norms, scalar_multiple_of_identity)
from .algebras import (_eigen_split, _sorted_idempotents, _spectral_split,
                       _wedderburn_data, center)
from .errors import (AssertionFailure, FactorRecoveryFailure, NotAnAutomorphism,
                     NotARepresentation, ToleranceFailure)
from .groups import (FiniteGroup, class_index_array, conjugacy_classes,
                     left_transversal)
from .spaces import MatrixSubspace

#: dimension cap for induced representations
INDUCE_DIM_CAP = 500
#: matrix entries one block of the (g, h) pair checks holds
_PAIR_BLOCK = 1 << 16


def _pair_blocks(n, per_row):
    """Slices of ``range(n)``: rows of an n x n pair table, each block
    holding about ``_PAIR_BLOCK`` entries at ``per_row`` entries a row."""
    step = max(1, _PAIR_BLOCK // per_row)
    return [slice(i, min(i + step, n)) for i in range(0, n, step)]


@dataclass(frozen=True)
class TwoCocycle:
    """A normalized 2-cocycle ``alpha: G x G -> C*`` stored as an n x n table."""

    group: FiniteGroup
    values: np.ndarray

    def validate(self, tol=RANK_TOL):
        """Check nonvanishing, normalization and the cocycle identity.

        The identity ``alpha(x,y) alpha(xy,z) = alpha(y,z) alpha(x,yz)`` is
        checked for z in ``group.generators`` only.  That suffices: the ratio
        f(x,y,z) of its two sides is a coboundary, so
        ``f(x,y,zs) = f(x,y,z) f(x,yz,s) f(y,z,s) / f(xy,z,s)`` carries
        ``f = 1`` from z = 1 (normalization) along words in the generators.
        """
        a = np.asarray(self.values)
        n = self.group.order
        if a.shape != (n, n):
            raise ValueError("cocycle table has wrong shape")
        if np.min(np.abs(a)) < tol:
            raise ValueError("cocycle values must be nonzero")
        e = self.group.identity
        if np.max(np.abs(a[e, :] - 1.0)) > tol or np.max(np.abs(a[:, e] - 1.0)) > tol:
            raise ValueError("cocycle is not normalized: alpha(1,x)=alpha(x,1)=1")
        gens = list(self.group.generators)
        if not gens:  # the trivial group: normalization is the whole identity
            return 0.0
        m = self.group.mult
        mg, ag = m[:, gens], a[:, gens]
        # a block of x rows at a time, so no n^2 |S| table is ever held
        devs = []
        for xs in _pair_blocks(n, n * len(gens)):
            lhs = ag[m[xs]]
            lhs *= a[xs, :, None]                # [x,y,s] = a(x,y) a(xy,s)
            rhs = a[xs][:, mg]
            rhs *= ag                            # [x,y,s] = a(y,s) a(x,ys)
            lhs -= rhs
            devs.append(np.max(np.abs(lhs)))
        dev = np.max(devs)
        if dev > tol:
            raise ValueError(f"cocycle identity fails by {dev:.3g}")
        return float(dev)


@dataclass(frozen=True)
class Representation:
    """Matrices for each element of ``group``, optionally with a cocycle."""

    group: FiniteGroup
    dim: int
    matrices: np.ndarray
    cocycle: TwoCocycle = None
    name: str = None

    @property
    def is_projective(self):
        return self.cocycle is not None

    def inverses(self, elems=slice(None)):
        """``rho(g)^-1`` for ``g`` in ``elems``, read off the group table:
        ``rho(g) rho(g^-1) = alpha(g, g^-1) I`` (alpha = 1 when linear)."""
        g = np.arange(self.group.order)[elems]
        inv = self.group.inv[g]
        alpha = 1.0 if self.cocycle is None else self.cocycle.values[g, inv][..., None, None]
        return self.matrices[inv] / alpha


@dataclass(frozen=True)
class ClassFunction:
    """Values of a class function, ordered like ``conjugacy_classes(group)``."""

    group: FiniteGroup
    values: tuple

    def at_element(self, g):
        return self.values[class_index_array(self.group)[g]]


@dataclass(frozen=True)
class ValidationReport:
    max_deviation: float
    worst_pair: tuple
    identity_deviation: float
    unitary_deviation: float
    projective: bool


def _fold_law(worst, mats, mult, rows, prod, alpha=None):
    """Fold ``|prod[a, b] - alpha(a, b) rho(ab)|`` over a row block into
    ``worst = (deviation, pair)``, keeping the first worst pair row-major."""
    target = mats[mult[rows]]
    if alpha is not None:
        target = target * alpha[rows, :, None, None]
    devs = np.linalg.norm((prod - target).reshape(len(prod), len(mats), -1), axis=2)
    devs[np.isnan(devs)] = np.inf  # a non-finite entry is the worst deviation
    for i, b in enumerate(np.argmax(devs, axis=1)):
        if devs[i, b] > worst[0]:
            worst = (float(devs[i, b]), (rows.start + i, int(b)))
    return worst


def _check_law(worst, tol):
    dev, pair = worst
    if not dev <= tol:
        raise NotARepresentation(
            f"multiplication law fails by {dev:.3g} at pair {pair}",
            worst_pair=pair, deviation=dev)


def _generator_law(group, mats, cocycle=None, prods=None):
    """The law ``rho(g) rho(h) = alpha(g, h) rho(gh)`` (alpha = 1 without a
    cocycle), measured on the generator pairs and bounded on every pair.

    Returns ``((deviation, pair), bound)``: the largest Frobenius deviation
    E(g, s) over s in ``group.generators`` with its first pair, row-major,
    and a bound on every |E(g, h)| and on |rho(1) - I|.  ``prods`` may hold
    the products ``rho(g) rho(s)`` as an (n, |S|, d, d) stack.

    The bound: expanding ``rho(g) rho(h) rho(s)`` both ways gives

        E(g, hs) = [f rho(ghs) + alpha(g,h) E(gh,s) + E(g,h) rho(s)
                    - rho(g) E(h,s)] / alpha(h,s),

    with ``f = alpha(g,h) alpha(gh,s) - alpha(h,s) alpha(g,hs)`` the cocycle
    identity's defect (zero for an exact cocycle; for the recovered table it
    carries the rounding of the fill).  So, with ``|.|`` the Frobenius and
    ``|.|_2`` the spectral norm,

        B(g, hs) = [|f| |rho(ghs)| + |alpha(g,h)| |E(gh,s)| + B(g,h) |rho(s)|_2
                    + |rho(g)|_2 |E(h,s)|] / |alpha(h,s)|

    bounds |E(g, hs)| from the measured generator pairs, one breadth-first
    layer of ``group.word_layers`` at a time, vectorized over g, starting
    from the measured E(g, 1) and E(g, s).  If every generator pair holds
    exactly, every pair does.  The recurrence runs in the frame
    ``X -> T X T^-1`` with ``T^* T = sum_g rho(g)^* rho(g)``, where a
    representation with |alpha| = 1 is unitary, so ``|rho(s)|_2`` is about
    one and the bound grows about linearly with word length (at most the
    Cayley graph's diameter), not as a product of norms; ``|T|_2 |T^-1|_2``
    takes it back.  Any invertible T gives a valid bound, up to the
    rounding of its own few terms.
    """
    n, k, e = group.order, mats.shape[-1], group.identity
    gens = np.array(group.generators, dtype=np.intp)
    alpha = np.ones((n, n)) if cocycle is None else cocycle.values
    if prods is None:
        prods = mats[:, None] @ mats[gens]
    diff = prods - alpha[:, gens, None, None] * mats[group.mult[:, gens]]
    devs = np.linalg.norm(diff.reshape(n, len(gens), -1), axis=2)
    devs[np.isnan(devs)] = np.inf  # a non-finite entry is the worst deviation
    worst = (0.0, (e, e))
    if gens.size:
        g, j = divmod(int(np.argmax(devs)), len(gens))
        worst = (float(devs[g, j]), (g, int(gens[j])))
    w, v = np.linalg.eigh(np.einsum("gji,gjk->ik", mats.conj(), mats))
    root = np.sqrt(w)
    t, t_inv = root[:, None] * v.conj().T, v / root  # T^* T = V diag(w) V^*
    mats_t = t @ mats @ t_inv
    frob = row_norms(mats_t)
    # |A|_2^2 = |A^* A|_2 <= 1 + |A^* A - I|: about one for the unitary A here
    spec = np.sqrt(1.0 + row_norms(np.swapaxes(mats_t.conj(), 1, 2) @ mats_t - np.eye(k)))
    devs_t = np.linalg.norm((t @ diff @ t_inv).reshape(n, len(gens), -1), axis=2)
    bound = np.empty((n, n))
    bound[:, e] = row_norms(t @ (mats @ mats[e] - alpha[:, e, None, None] * mats) @ t_inv)
    bound[:, gens] = devs_t
    size = np.abs(alpha)
    for h, p, j in group.word_layers:
        s, gp = gens[j], group.mult[:, p]
        if cocycle is None:  # f = 0 and |alpha| = 1: the same sum, term for term
            bound[:, h] = devs_t[gp, j] + bound[:, p] * spec[s] + spec[:, None] * devs_t[p, j]
            continue
        f = np.abs(alpha[:, p] * alpha[gp, s] - alpha[p, s] * alpha[:, h])
        bound[:, h] = (f * frob[group.mult[:, h]] + size[:, p] * devs_t[gp, j]
                       + bound[:, p] * spec[s] + spec[:, None] * devs_t[p, j]) / size[p, s]
    kappa = root[-1] / root[0]  # |T|_2 |T^-1|_2
    return worst, max(float(np.linalg.norm(mats[e] - np.eye(k))), kappa * float(np.max(bound)))


def _certify_law(rep, tol, prods=None):
    """Raise :class:`NotARepresentation` unless the law holds within ``tol``
    on every pair: a generator pair that fails is named; otherwise the
    propagated bound of :func:`_generator_law` certifies all pairs, and only
    where it exceeds ``tol`` (a badly conditioned basis) are all pairs
    checked as :func:`validate` does.  Never looser than that all-pairs check.
    """
    worst, bound = _generator_law(rep.group, rep.matrices, rep.cocycle, prods)
    _check_law(worst, tol)
    if not bound <= tol:
        validate(rep, tol)


def check_law(rep, tol=RANK_TOL):
    """Certify the homomorphism (or cocycle) law from the n |S| products over
    ``group.generators`` (see :func:`_certify_law`), after the declared
    cocycle's own identity and the identity matrix.  Raises
    :class:`NotARepresentation`, or ValueError for a broken cocycle.
    """
    mats = np.asarray(rep.matrices, dtype=complex)
    if mats.shape != (rep.group.order, rep.dim, rep.dim):
        raise NotARepresentation("matrix array has wrong shape")
    if rep.cocycle is not None:
        rep.cocycle.validate(tol=max(tol, RANK_TOL))
    e = rep.group.identity  # first, so that the frame of the bound exists
    _check_law((float(np.linalg.norm(mats[e] - np.eye(rep.dim))), (e, e)), tol)
    _certify_law(rep, tol)


def validate(rep, tol=RANK_TOL):
    """Verify the homomorphism (or cocycle) law and the identity matrix.

    Returns a :class:`ValidationReport`; raises :class:`NotARepresentation`
    with the worst offending pair when the deviation exceeds ``tol``.
    """
    g = rep.group
    mats = np.asarray(rep.matrices, dtype=complex)
    n, d = g.order, rep.dim
    if mats.shape != (n, d, d):
        raise NotARepresentation("matrix array has wrong shape")
    id_dev = float(np.linalg.norm(mats[g.identity] - np.eye(d)))
    if rep.cocycle is not None:
        rep.cocycle.validate(tol=max(tol, RANK_TOL))
    alpha = None if rep.cocycle is None else rep.cocycle.values
    worst = (id_dev, (g.identity, g.identity))
    for rows in _pair_blocks(n, n * d * d):
        worst = _fold_law(worst, mats, g.mult, rows, mats[rows, None] @ mats, alpha)
    uhu = np.einsum("gji,gjk->gik", mats.conj(), mats)
    unit_dev = float(np.max(np.linalg.norm(uhu - np.eye(d), axis=(1, 2))))
    _check_law(worst, tol)
    return ValidationReport(max_deviation=worst[0], worst_pair=worst[1],
                            identity_deviation=id_dev, unitary_deviation=unit_dev,
                            projective=rep.is_projective)


def unitarize(rep):
    """Equivalent unitary representation via averaging; returns ``(rep', T)``.

    ``H = sum_g rho(g)^* rho(g)`` is invariant, and with ``H = T^* T`` the
    conjugated representation ``T rho T^{-1}`` is unitary.  For projective
    input the matrices are first rescaled so the cocycle has modulus one
    (the modulus of a cocycle over a finite group is always a coboundary),
    which the averaging argument requires.
    """
    g = rep.group
    mats = np.asarray(rep.matrices, dtype=complex)
    cocycle = rep.cocycle
    if cocycle is not None:
        logmod = np.log(np.abs(cocycle.values))
        c = np.exp(logmod.mean(axis=1))  # c_g = geometric mean over h of |alpha(g,h)|
        mats = mats / c[:, None, None]
        cocycle = TwoCocycle(g, cocycle.values * c[g.mult] / (c[:, None] * c[None, :]))
    h = np.einsum("gji,gjk->ik", mats.conj(), mats) / g.order
    t = np.linalg.cholesky(h).conj().T  # h = t^* t
    tinv = np.linalg.inv(t)
    new_mats = t @ mats @ tinv
    out = Representation(group=g, dim=rep.dim, matrices=new_mats,
                         cocycle=cocycle, name=rep.name)
    validate(out)
    return out, t


def character(rep):
    """The character as a :class:`ClassFunction` (linear representations only)."""
    if rep.is_projective:
        raise ValueError("characters of projective representations are not class functions here")
    heads = [c[0] for c in conjugacy_classes(rep.group)]
    vals = np.einsum("gii->g", rep.matrices[heads]).astype(complex, copy=False)
    return ClassFunction(group=rep.group, values=tuple(vals.tolist()))


def inner_product(chi1, chi2, tol=INT_TOL):
    """Hermitian character pairing, rounded to a Gaussian integer.

    Raises :class:`RoundingAmbiguous` when the value is not within ``tol``
    of a Gaussian integer (character pairings always are).
    """
    if chi1.group is not chi2.group:
        raise ValueError("class functions on different groups")
    sizes = np.bincount(class_index_array(chi1.group))
    val = np.dot(sizes * np.asarray(chi1.values), np.conj(chi2.values)) / chi1.group.order
    return round_to_gaussian_int(val, tol, what="character pairing")


def is_irreducible(rep):
    """Character test for linear reps, which a commutant solve would make
    about 5% slower per catalog job; commutant test for projective ones."""
    if rep.is_projective:
        return commutant_dimension(rep) == 1
    chi = character(rep)
    return inner_product(chi, chi) == 1


def _commutant(rep, tol):
    """``End_G(V) = {X : X rho(g) = rho(g) X for all g}`` as a matrix space.

    Solved on the generators only: X commuting with each generator commutes
    with every product of them, and cocycle scalars do not matter.
    """
    d, gens = rep.dim, rep.matrices[list(rep.group.generators)]
    return MatrixSubspace(intertwiners(gens, gens, tol).reshape(-1, d * d), (d, d))


def commutant_dimension(rep, tol=RANK_TOL):
    """Dimension of the commutant End_G(V) (see :func:`_commutant`)."""
    return _commutant(rep, tol).dim


def commutant_decomposition(rep, tol=RANK_TOL):
    """Wedderburn data of ``End_G(V)``: it is semisimple and holds I
    (Maschke), so one spectral split of its center gives its central
    primitive idempotents e_i, the isotypic projectors of V.  Component i is
    M_{m_i} for an irreducible of dimension d_i and multiplicity m_i in V,
    and ``rank e_i = m_i d_i``."""
    commutant = _commutant(rep, tol)
    center_basis = center(commutant, tol).basis()
    idems = _spectral_split(commutant, center_basis, len(center_basis))
    if idems is None:
        raise AssertionFailure("the commutant failed to split")
    return _wedderburn_data(commutant, _sorted_idempotents(idems), tol)


def _regular_representation(group):
    n = group.order
    mats = np.zeros((n, n, n))
    for g in range(n):
        mats[g, group.mult[g], np.arange(n)] = 1.0
    return Representation(group=group, dim=n, matrices=mats.astype(complex),
                          name="regular")


def character_table(group):
    """All irreducible characters, from the class algebra's structure constants.

    ``K_i K_l = sum_j N[i, l, j] K_j`` for the class sums, with
    ``N[i, l, j] = #{x in C_i : x^-1 r_j in C_l}``, and each central character
    ``w_j = |C_j| chi(r_j) / chi(1)`` solves ``N_i w = w_i w``.  Conjugated by
    ``diag(sqrt|C_j|)`` the ``N_i`` are commuting normal matrices; column
    ``e`` (the identity class) of each rank-one spectral projector of a random
    element of their span (:func:`_spectral_split`), scaled to 1 at ``e``, is
    ``sqrt|C_j| chi(r_j) / chi(1)``, and ``sum_j |C_j| |chi(r_j)|^2 = |G|``
    fixes ``chi(1)``.  The table must pass the row and column orthogonality
    relations.  Characters are sorted by (dimension, rounded values); labels
    ``chi0, chi1, ...`` follow that order.
    """
    if "char_table" in group._cache:
        return group._cache["char_table"]
    n = group.order
    classes = conjugacy_classes(group)
    k = len(classes)
    cls = class_index_array(group)
    root = np.sqrt([len(c) for c in classes])
    mats = np.zeros((k, k, k))
    heads = cls[group.mult[group.inv[:, None], [c[0] for c in classes]]]
    np.add.at(mats, (cls[:, None], heads, np.arange(k)), 1.0)
    mats *= root
    mats /= root[:, None]
    # column e of k projectors of k x k matrices: the split certifies them on
    # the eigenvectors and never reads the (unital, commutative) span of the mats
    e = int(cls[group.identity])
    cols = _spectral_split(None, mats, k, e)
    if cols is None:
        raise ToleranceFailure("could not separate the class-algebra spectrum")
    table = np.array([c / c[e] for c in cols])
    table *= np.array([round_to_int(np.sqrt(n / np.vdot(u, u).real), what="degree")
                       for u in table])[:, None] / root
    unit = table * (root / np.sqrt(n))
    if max(np.linalg.norm(unit @ unit.conj().T - np.eye(k)),
           np.linalg.norm(unit.conj().T @ unit - np.eye(k))) > INT_TOL:
        raise ToleranceFailure("character table fails the orthogonality relations")
    # sort by degree, then by the values rounded to 8 places, real part first
    degrees, rounded = np.round(table[:, e].real), np.round(table, 8)
    keys = np.column_stack([degrees, np.stack([rounded.real, rounded.imag], 2).reshape(k, -1)])
    order = np.lexsort(keys.T[::-1])
    chars = [ClassFunction(group=group, values=tuple(table[i].tolist())) for i in order]
    if np.sum(degrees ** 2) != n:
        raise ToleranceFailure("character table incomplete or inconsistent")
    group._cache["char_table"] = chars
    return chars


def conjugation_decomposition(rep):
    """``(projectors, multiplicity_free)``: the isotypic projectors of ``X ->
    rho(g) X rho(g)^-1`` on row-major flattened matrices, sorted by
    :func:`_sorted_idempotents`, and whether every multiplicity is one.

    The projectors are the cluster projectors of :func:`_conjugation_split`.
    Raises :class:`ToleranceFailure` when the split fails.
    """
    count, multiplicity_free = _conjugation_count(rep)
    vecs, vinv, clusters = _conjugation_split(rep, count)
    return _sorted_idempotents([vecs[:, ix] @ vinv[ix] for ix in clusters]), multiplicity_free


def _conjugation_split(rep, count):
    """``(vecs, vinv, clusters)``: one certified eigen-split
    (:func:`.algebras._eigen_split`) of the conjugation action, whose
    clusters' eigenvector columns span its ``count`` isotypic components.

    The action's class sums span the image of Z(C[G]), a commutative
    semisimple algebra whose primitive idempotents are the isotypic
    projectors, so one split of the span finds them all.  ``count`` is the
    rank of the class trace form (:func:`_conjugation_count`).  The class
    sums are freed on return.  Raises :class:`ToleranceFailure` when the
    split fails.
    """
    classes = conjugacy_classes(rep.group)
    split = _eigen_split(_conjugation_class_sums(rep, classes, rep.inverses()), count)
    if split is None:
        raise ToleranceFailure("the class sums of the conjugation action failed to split")
    return split


def _conjugation_count(rep):
    """``(count, multiplicity_free)`` of :func:`conjugation_decomposition`,
    from the class trace form alone: no class sum is built.

    The count of isotypic components is the rank of the class trace form
    ``tr(K_j K_l) / sqrt(|C_j| |C_l|)`` (singular values ``m_i |G| / d_i``),
    read off ``chi(g) = tr rho(g) tr rho(g)^-1`` and the group table; the
    cocycle cancels, and ``<chi, chi> = sum m_i^2``.
    """
    group = rep.group
    classes = conjugacy_classes(group)
    chi = np.einsum("gii->g", rep.matrices) * np.einsum("gii->g", rep.inverses())
    # tr(K_j K_l) = |C_j| sum_{h in C_l} chi(r_j h), as chi is a class function
    heads, sizes = [c[0] for c in classes], np.array([len(c) for c in classes], dtype=float)
    form = chi[group.mult[heads]] @ np.eye(len(classes))[class_index_array(group)]
    form *= np.sqrt(sizes[:, None] / sizes)
    count = _rank(np.linalg.svd(form, compute_uv=False), RANK_TOL)
    return count, round_to_int(np.vdot(chi, chi).real / group.order, what="<chi, chi>") == count


def _conjugation_class_sums(rep, classes, invs):
    """The class sums ``K_j`` of ``rho(g) kron rho(g)^-T`` (``invs[g]`` is
    ``rho(g)^-1``), each summed a block of elements at a time, so no n d^4
    array is formed.  Only the split holds them."""
    dd = rep.dim ** 2
    sums = np.zeros((len(classes), dd, dd), dtype=complex)
    for j, members in enumerate(classes):
        for block in _pair_blocks(len(members), dd * dd):
            g = np.array(members[block])
            sums[j] += kron_stack(rep.matrices[g], np.swapaxes(invs[g], 1, 2)).sum(axis=0)
    return sums


def restrict(rep, subgroup):
    """Restriction to a subgroup, as a representation of ``subgroup.as_group()``."""
    h = subgroup.as_group()
    emb = subgroup.embedding()
    mats = rep.matrices[emb]
    cocycle = None
    if rep.cocycle is not None:
        cocycle = TwoCocycle(h, rep.cocycle.values[np.ix_(emb, emb)])
    return Representation(group=h, dim=rep.dim, matrices=mats,
                          cocycle=cocycle, name=None)


def induce(subgroup, w_rep, cap=INDUCE_DIM_CAP):
    """Induced representation over a left transversal (linear input only).

    Block ``(i, j)`` of the induced matrix for ``g`` is ``rho_W(t_i^-1 g t_j)``
    when that element lies in the subgroup and zero otherwise; the basis
    order is the distinguished copies ``t_i . W``.
    """
    if w_rep.is_projective:
        raise ValueError("induction is implemented for linear representations only")
    group = subgroup.parent
    trans = left_transversal(subgroup)
    l, k = subgroup.index, w_rep.dim
    if l * k > cap:
        raise ValueError(f"induced dimension {l * k} exceeds cap {cap}")
    pos = {m: i for i, m in enumerate(subgroup.members)}
    n = group.order
    mats = np.zeros((n, l * k, l * k), dtype=complex)
    for g in range(n):
        for j, tj in enumerate(trans.reps):
            gt = group.mult[g, tj]
            for i, ti in enumerate(trans.reps):
                x = int(group.mult[group.inv[ti], gt])
                if x in pos:
                    mats[g, i * k:(i + 1) * k, j * k:(j + 1) * k] = w_rep.matrices[pos[x]]
                    break
    return Representation(group=group, dim=l * k, matrices=mats, name=None)


def induced_character(subgroup, chi_w):
    """Character of the induced representation, by the averaging formula."""
    group = subgroup.parent
    # chi_w extended to G by zero, read at x^-1 g x for every x and every
    # class representative g
    ext = np.zeros(group.order, dtype=complex)
    ext[list(subgroup.members)] = np.asarray(chi_w.values)[
        class_index_array(subgroup.as_group())]
    reps = [cls[0] for cls in conjugacy_classes(group)]
    x = np.arange(group.order)[:, None]
    vals = ext[group.mult[group.mult[group.inv[x], reps], x]].sum(axis=0)
    return ClassFunction(group=group, values=tuple(vals / subgroup.order))


def is_induced_from(v_rep, subgroup, w_rep, tol=INT_TOL):
    """Whether ``V = Ind(W)`` at the character level.

    Precondition: ``dim V = [G:H] * dim W`` (ValueError otherwise).  When the
    characters match, the multiplicity of W inside the restriction of V is
    asserted to be one; a different value raises :class:`AssertionFailure`.
    """
    if v_rep.dim != subgroup.index * w_rep.dim:
        raise ValueError("dimension mismatch: dim V != [G:H] * dim W")
    chi_v = character(v_rep)
    chi_ind = induced_character(subgroup, character(w_rep))
    match = max(abs(a - b) for a, b in zip(chi_v.values, chi_ind.values)) < tol
    if match:
        chi_res = character(restrict(v_rep, subgroup))
        m = inner_product(chi_res, character(w_rep))
        if m != 1:
            raise AssertionFailure(
                f"induced character matches but W-multiplicity in Res V is {m}, not 1")
    return match


def equivariant_hom_space(v_rep, w_rep, tol=RANK_TOL):
    """Orthonormal basis of ``{f : f rho_V(g) = rho_W(g) f}`` (maps V -> W)."""
    if v_rep.group is not w_rep.group:
        raise ValueError("representations of different groups")
    return intertwiners(v_rep.matrices, w_rep.matrices, tol)


def skolem_noether_lift(group, action):
    """Lift an automorphism action on ``M_d`` to a projective representation.

    Parameters
    ----------
    group : FiniteGroup
    action : (n, d^2, d^2) array
        One matrix per group element, acting on row-major flattened ``d x d``
        matrices in the matrix-unit basis.  Each must be an algebra
        automorphism (checked; :class:`NotAnAutomorphism` otherwise).

    Returns a :class:`Representation` with ``rho(1) = I`` whose conjugation
    action reproduces the input, together with the 2-cocycle recovered from
    ``rho(g) rho(h) = alpha(g, h) rho(g h)`` (``None`` when that cocycle is
    trivial).  A unital multiplicative T is inner (Skolem–Noether), so
    rho(g) is read off the images of the first column's matrix units; the
    round trip certifies it (:class:`ToleranceFailure` otherwise).
    """
    action = np.asarray(action, dtype=complex)
    n = group.order
    d2 = action.shape[1]
    d = int(round(np.sqrt(d2)))
    if action.shape != (n, d2, d2) or d * d != d2:
        raise ValueError("action must be an (n, d^2, d^2) array")
    eye = np.eye(d, dtype=complex)
    # images[g, u] = T_g(E_u): column u of the action
    images = action.transpose(0, 2, 1).reshape(n, d2, d, d)

    for g in range(n):
        t_eye = (action[g] @ eye.reshape(d2)).reshape(d, d)
        if np.linalg.norm(t_eye - eye) > CERT_TOL:
            raise NotAnAutomorphism(f"action of element {g} does not fix the identity")
        # T(E_ij) T(E_kl) against T(E_ij E_kl) = delta_jk T(E_il), all pairs at once
        t = images[g]
        prods = (t.reshape(d2 * d, d) @ t.transpose(1, 0, 2).reshape(d, d2 * d)
                 ).reshape(d2, d, d2, d).transpose(0, 2, 1, 3)
        want = np.einsum("jk,ilac->ijklac", eye, t.reshape(d, d, d, d))
        want = want.reshape(prods.shape)
        if np.max(np.linalg.norm(prods - want, axis=(2, 3))) > CERT_TOL:
            raise NotAnAutomorphism(f"action of element {g} is not multiplicative")

    # T(E_11) projects onto the line of rho(g) e_1 and T(E_j1) carries that
    # line to rho(g) e_j, so its largest column v gives rho(g) up to scale
    mats = np.zeros((n, d, d), dtype=complex)
    for g in range(n):
        first = images[g, 0]
        v = first[:, np.argmax(np.linalg.norm(first, axis=0))]
        mats[g] = (images[g, ::d] @ v).T
    mats = _normalize_projective(mats)
    rep = _as_projective_rep(group, mats, None)

    # round trip: conjugation by the lift reproduces the action; its image
    # rho(g) E_ij rho(g)^-1 is column i of rho(g) times row j of rho(g)^-1
    rebuilt = np.einsum("gai,gjb->gijab", mats, rep.inverses()).reshape(images.shape)
    worst = float(np.max(row_norms(rebuilt - images)))
    if worst > CERT_TOL:
        raise ToleranceFailure(f"lift round-trip residual {worst:.3g}")
    return rep


def _normalize_projective(mats):
    """Scale each matrix of a stack to |det| = 1, then make its
    largest-modulus entry positive real."""
    n, k = mats.shape[0], mats.shape[-1]
    det = np.linalg.det(mats)
    # moduli by hypot and roots by scalar pow: the vectorized complex abs
    # and power may differ from them in the last bit
    det = np.hypot(det.real, det.imag)
    if np.any(det < ZERO_DET):
        raise FactorRecoveryFailure("recovered projective matrix is singular")
    mats = mats / np.array([x ** (1.0 / k) for x in det.tolist()])[:, None, None]
    flat = mats.reshape(n, k * k)
    entry = flat[np.arange(n), np.argmax(np.round(np.abs(flat), 10), axis=1)]
    return mats * (entry.conjugate() / np.hypot(entry.real, entry.imag))[:, None, None]


def _as_projective_rep(group, mats, name):
    """Wrap matrices as a representation, recovering the cocycle table.

    ``rho(1)`` is set to exactly ``I`` in place when it is within
    ``RANK_TOL`` of it, as the normalized cocycle assumes.  ``alpha(g, s)``
    is the scalar ``rho(g) rho(s) rho(gs)^-1`` for s in ``group.generators``;
    a product that is not scalar raises :class:`ToleranceFailure` naming
    that pair.
    The rest of the table follows along ``group.word_layers``, from
    ``alpha(g, hs) = alpha(g, h) alpha(gh, s) / alpha(h, s)``, and
    :func:`_certify_law` certifies the law on every pair from the n |S|
    generator products.  A cocycle within ``RANK_TOL`` of one everywhere is
    dropped, leaving a linear representation.
    """
    n, k, e = group.order, mats.shape[1], group.identity
    if np.linalg.norm(mats[e] - np.eye(k)) < RANK_TOL:
        mats[e] = np.eye(k)
    gens = np.array(group.generators, dtype=np.intp)
    prods = mats[:, None] @ mats[gens]
    c, ok = scalar_multiple_of_identity(
        prods @ np.linalg.inv(mats)[group.mult[:, gens]], tol=CERT_TOL)
    if not ok.all():
        g, j = divmod(int(np.argmin(ok)), len(gens))  # first failure, row-major
        raise ToleranceFailure(f"rho(g)rho(h)rho(gh)^-1 is not scalar at ({g}, {gens[j]})")
    vals = np.ones((n, n), dtype=complex)
    vals[:, gens] = c
    vals[e] = 1.0  # normalized before the layers read it, and after (x / x may miss 1)
    for h, p, j in group.word_layers:
        vals[:, h] = vals[:, p] * vals[group.mult[:, p], gens[j]] / vals[p, gens[j]]
    vals[e] = 1.0
    cocycle = None
    if np.max(np.abs(vals - 1.0)) > RANK_TOL:
        cocycle = TwoCocycle(group, vals)
        cocycle.validate(tol=CERT_TOL)
    rep = Representation(group=group, dim=k, matrices=mats,
                         cocycle=cocycle, name=name)
    _certify_law(rep, CERT_TOL, prods)
    return rep
