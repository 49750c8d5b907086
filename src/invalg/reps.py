"""Linear and projective matrix representations of finite groups.

A representation assigns one ``d x d`` complex matrix to each group element
(indexed ``0..n-1``).  Projective representations carry an explicit 2-cocycle
table: ``rho(g) @ rho(h) = alpha(g, h) * rho(g*h)``.

The irreducible character table of a group is read off the central
primitive idempotents ``e_chi = (chi(1)/|G|) sum_g conj(chi(g)) g`` of the
group algebra, found as the spectral projectors of a generic element of its
center (the span of the class sums) in the regular representation.
"""

from dataclasses import dataclass, field

import numpy as np

from ._linalg import (INT_TOL, RANK_TOL, intertwiners, round_to_gaussian_int,
                      round_to_int, scalar_multiple_of_identity)
from .algebras import _complete_and_orthogonal, _spectral_split
from .errors import (AssertionFailure, FactorRecoveryFailure, NotAnAutomorphism,
                     NotARepresentation, ToleranceFailure)
from .groups import (FiniteGroup, class_index_array, conjugacy_classes,
                     left_transversal)
from .spaces import MatrixSubspace

#: dimension cap for induced representations
INDUCE_DIM_CAP = 500


@dataclass(frozen=True)
class TwoCocycle:
    """A normalized 2-cocycle ``alpha: G x G -> C*`` stored as an n x n table."""

    group: FiniteGroup
    values: np.ndarray

    def validate(self, tol=RANK_TOL):
        """Check nonvanishing, normalization and the cocycle identity."""
        a = np.asarray(self.values)
        n = self.group.order
        if a.shape != (n, n):
            raise ValueError("cocycle table has wrong shape")
        if np.min(np.abs(a)) < tol:
            raise ValueError("cocycle values must be nonzero")
        e = self.group.identity
        if np.max(np.abs(a[e, :] - 1.0)) > tol or np.max(np.abs(a[:, e] - 1.0)) > tol:
            raise ValueError("cocycle is not normalized: alpha(1,x)=alpha(x,1)=1")
        m = self.group.mult
        # alpha(x,y) alpha(xy,z) = alpha(y,z) alpha(x, yz) for all x, y, z
        lhs = a[:, :, None] * a[m]          # [x,y,z] = a(x,y) a(xy,z)
        rhs = a[None, :, :] * a[:, m]       # [x,y,z] = a(y,z) a(x,yz)
        dev = np.max(np.abs(lhs - rhs))
        if dev > tol:
            raise ValueError(f"cocycle identity fails by {dev:.3g}")
        return float(dev)


@dataclass(frozen=True)
class Representation:
    """Matrices for each element of ``group``, optionally with a cocycle."""

    group: FiniteGroup
    dim: int
    matrices: np.ndarray
    unitary: bool = False
    cocycle: TwoCocycle = None
    name: str = None
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def is_projective(self):
        return self.cocycle is not None


@dataclass(frozen=True)
class ClassFunction:
    """Values of a class function, ordered like ``conjugacy_classes(group)``."""

    group: FiniteGroup
    values: tuple

    def at_element(self, g):
        return self.values[class_index_array(self.group)[g]]


@dataclass(frozen=True)
class IsotypicComponent:
    """One isotypic block of a representation."""

    projector: np.ndarray
    irrep_label: str
    multiplicity: int
    dim: int
    character: ClassFunction


@dataclass(frozen=True)
class ValidationReport:
    max_deviation: float
    worst_pair: tuple
    identity_deviation: float
    unitary_deviation: float
    projective: bool


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
        rep.cocycle.validate(tol=max(tol, 1e-8))
    worst = (g.identity, g.identity)
    worst_dev = id_dev
    for a in range(n):
        prod = mats[a] @ mats  # (n, d, d): rho(a) rho(b)
        target = mats[g.mult[a]]
        if rep.cocycle is not None:
            target = target * rep.cocycle.values[a][:, None, None]
        devs = np.linalg.norm((prod - target).reshape(n, -1), axis=1)
        b = int(np.argmax(devs))
        if devs[b] > worst_dev:
            worst_dev = float(devs[b])
            worst = (a, b)
    unit_dev = 0.0
    if rep.unitary:
        uhu = np.einsum("gji,gjk->gik", mats.conj(), mats)
        unit_dev = float(np.max(np.linalg.norm(uhu - np.eye(d), axis=(1, 2))))
    if worst_dev > tol:
        raise NotARepresentation(
            f"multiplication law fails by {worst_dev:.3g} at pair {worst}",
            worst_pair=worst, deviation=worst_dev)
    return ValidationReport(max_deviation=worst_dev, worst_pair=worst,
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
    mats = np.asarray(rep.matrices, dtype=complex).copy()
    cocycle = rep.cocycle
    if cocycle is not None:
        logmod = np.log(np.abs(cocycle.values))
        c = np.exp(logmod.mean(axis=1))  # c_g = geometric mean over h of |alpha(g,h)|
        mats = mats / c[:, None, None]
        new_vals = cocycle.values.copy()
        n = g.order
        new_vals = new_vals * c[g.mult] / (c[:, None] * c[None, :])
        cocycle = TwoCocycle(g, new_vals)
    h = np.einsum("gji,gjk->ik", mats.conj(), mats) / g.order
    t = np.linalg.cholesky(h).conj().T  # h = t^* t
    tinv = np.linalg.inv(t)
    new_mats = t @ mats @ tinv
    out = Representation(group=g, dim=rep.dim, matrices=new_mats, unitary=True,
                         cocycle=cocycle, name=rep.name)
    validate(out)
    return out, t


def character(rep):
    """The character as a :class:`ClassFunction` (linear representations only)."""
    if rep.is_projective:
        raise ValueError("characters of projective representations are not class functions here")
    classes = conjugacy_classes(rep.group)
    vals = tuple(complex(np.trace(rep.matrices[c[0]])) for c in classes)
    return ClassFunction(group=rep.group, values=vals)


def inner_product(chi1, chi2, tol=INT_TOL):
    """Hermitian character pairing, rounded to a Gaussian integer.

    Raises :class:`RoundingAmbiguous` when the value is not within ``tol``
    of a Gaussian integer (character pairings always are).
    """
    if chi1.group is not chi2.group:
        raise ValueError("class functions on different groups")
    classes = conjugacy_classes(chi1.group)
    total = sum(len(c) * v1 * np.conj(v2)
                for c, v1, v2 in zip(classes, chi1.values, chi2.values))
    val = total / chi1.group.order
    return round_to_gaussian_int(val, tol, what="character pairing")


def is_irreducible(rep):
    """Character test for linear reps; commutant test for projective ones."""
    if rep.is_projective:
        return commutant_dimension(rep) == 1
    chi = character(rep)
    return inner_product(chi, chi) == 1


def commutant_dimension(rep, tol=RANK_TOL):
    """Dimension of ``{X : X rho(g) = rho(g) X for all g}``.

    Solved on the generators only: X commuting with each generator commutes
    with every product of them, and cocycle scalars do not matter.
    """
    gens = rep.matrices[list(rep.group.generators)]
    return len(intertwiners(gens, gens, tol))


def adjoint_rep(rep):
    """The conjugation action on ``d x d`` matrices, as a ``d^2``-dim rep.

    Matrices act on row-major flattened arguments; for projective input the
    scalars cancel and the result is an honest linear representation.  It is
    built once per representation and kept in ``rep._cache``.
    """
    if "adjoint" not in rep._cache:
        mats = rep.matrices
        if rep.unitary:
            invs = np.conj(np.transpose(mats, (0, 2, 1)))
        else:
            invs = np.linalg.inv(mats)
        big = np.stack([np.kron(m, vi.T) for m, vi in zip(mats, invs)])
        rep._cache["adjoint"] = Representation(
            group=rep.group, dim=rep.dim ** 2, matrices=big,
            unitary=rep.unitary, name=None)
    return rep._cache["adjoint"]


def _regular_representation(group):
    n = group.order
    mats = np.zeros((n, n, n))
    for g in range(n):
        mats[g, group.mult[g], np.arange(n)] = 1.0
    return Representation(group=group, dim=n, matrices=mats.astype(complex),
                          unitary=True, name="regular")


def character_table(group, seed=0):
    """All irreducible characters, from the center of the group algebra.

    The class sums, as matrices of the regular representation, have disjoint
    supports, so scaled to unit norm they are an orthonormal basis of the
    center.  The spectral projectors of a random central element (drawn from
    ``seed``) are the ``e_chi``; column ``e`` of ``e_chi`` holds
    ``(chi(1)/|G|) conj(chi(g))`` in row ``g``.  Characters are sorted by
    (dimension, rounded values); labels ``chi0, chi1, ...`` follow that order.
    """
    cache_key = ("char_table", seed)
    if cache_key in group._cache:
        return group._cache[cache_key]
    n, e = group.order, group.identity
    classes = conjugacy_classes(group)
    k = len(classes)
    cls = class_index_array(group)
    sums = np.zeros((k, n, n))
    # the regular matrix of g has a one at (g*j, j)
    sums[cls[:, None], group.mult, np.arange(n)] = 1.0
    norms = np.sqrt(n * np.array([len(c) for c in classes], dtype=float))
    center = MatrixSubspace(sums.reshape(k, -1) / norms[:, None], (n, n))
    projs = _spectral_split(center, center.basis(), k, seed,
                            lambda ps: _complete_and_orthogonal(ps, np.eye(n)))
    if projs is None:
        raise ToleranceFailure("could not separate the class-sum spectrum")
    chars = []
    for p in projs:
        dim = int(np.sqrt(round_to_int(n * p[e, e].real, what="squared degree")))
        chi = ClassFunction(group=group, values=tuple(
            complex(n * np.conj(p[c[0], e]) / dim) for c in classes))
        if inner_product(chi, chi) != 1:
            raise ToleranceFailure("a spectral projector gives a reducible character")
        chars.append(chi)
    ident_cls = int(cls[e])
    chars.sort(key=lambda c: (round(c.values[ident_cls].real),
                              tuple((round(v.real, 8), round(v.imag, 8)) for v in c.values)))
    dims = [int(round(c.values[ident_cls].real)) for c in chars]
    if sum(d * d for d in dims) != group.order or len(chars) != len(classes):
        raise ToleranceFailure("character table incomplete or inconsistent")
    group._cache[cache_key] = chars
    return chars


def isotypic_decomposition(rep, seed=0, tol=RANK_TOL):
    """Isotypic projectors of a linear representation.

    Uses the averaging projector ``(d_i/|G|) sum_g conj(chi_i(g)) rho(g)``.
    The projectors are validated (idempotent, mutually annihilating, summing
    to the identity); :class:`ToleranceFailure` otherwise.
    """
    group = rep.group
    table = character_table(group, seed=seed)
    cls_idx = class_index_array(group)
    chi_v = character(rep)
    ident_cls = int(cls_idx[group.identity])
    comps = []
    for i, chi in enumerate(table):
        mult = inner_product(chi_v, chi)
        if mult.imag != 0 or mult.real < 0:
            raise ToleranceFailure(f"impossible multiplicity {mult} for chi{i}")
        m = int(mult.real)
        if m == 0:
            continue
        d_i = int(round(chi.values[ident_cls].real))
        vals = np.conj(np.array([chi.values[cls_idx[g]] for g in range(group.order)]))
        proj = np.einsum("g,gij->ij", vals, rep.matrices) * (d_i / group.order)
        comps.append(IsotypicComponent(projector=proj, irrep_label=f"chi{i}",
                                       multiplicity=m, dim=m * d_i, character=chi))
    projs = [c.projector for c in comps]
    if not (all(np.linalg.norm(p @ p - p) <= 1e-6 for p in projs)
            and _complete_and_orthogonal(projs, np.eye(rep.dim))):
        raise ToleranceFailure(
            "isotypic projectors are not orthogonal idempotents summing to the identity")
    return comps


def restrict(rep, subgroup):
    """Restriction to a subgroup, as a representation of ``subgroup.as_group()``."""
    h = subgroup.as_group()
    emb = subgroup.embedding()
    mats = rep.matrices[emb]
    cocycle = None
    if rep.cocycle is not None:
        cocycle = TwoCocycle(h, rep.cocycle.values[np.ix_(emb, emb)])
    return Representation(group=h, dim=rep.dim, matrices=mats,
                          unitary=rep.unitary, cocycle=cocycle, name=None)


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
    return Representation(group=group, dim=l * k, matrices=mats,
                          unitary=w_rep.unitary, name=None)


def induced_character(subgroup, chi_w):
    """Character of the induced representation, by the averaging formula."""
    group = subgroup.parent
    h_group = subgroup.as_group()
    pos = {m: i for i, m in enumerate(subgroup.members)}
    h_cls = class_index_array(h_group)
    classes = conjugacy_classes(group)
    vals = []
    for cls in classes:
        g = cls[0]
        total = 0.0 + 0.0j
        for x in range(group.order):
            y = int(group.mult[group.mult[group.inv[x], g], x])
            if y in pos:
                total += chi_w.values[h_cls[pos[y]]]
        vals.append(total / subgroup.order)
    return ClassFunction(group=group, values=tuple(vals))


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


def skolem_noether_lift(group, action, tol=RANK_TOL):
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
    units = np.eye(d2).reshape(d2, d, d)
    # images[g, u] = T_g(E_u): column u of the action
    images = action.transpose(0, 2, 1).reshape(n, d2, d, d)

    for g in range(n):
        t_eye = (action[g] @ eye.reshape(d2)).reshape(d, d)
        if np.linalg.norm(t_eye - eye) > 1e-6:
            raise NotAnAutomorphism(f"action of element {g} does not fix the identity")
        # T(E_ij) T(E_kl) against T(E_ij E_kl) = delta_jk T(E_il), all pairs at once
        t = images[g]
        prods = (t.reshape(d2 * d, d) @ t.transpose(1, 0, 2).reshape(d, d2 * d)
                 ).reshape(d2, d, d2, d).transpose(0, 2, 1, 3)
        want = np.einsum("jk,ilac->ijklac", eye, t.reshape(d, d, d, d))
        want = want.reshape(prods.shape)
        if np.max(np.linalg.norm(prods - want, axis=(2, 3))) > 1e-6:
            raise NotAnAutomorphism(f"action of element {g} is not multiplicative")

    # T(E_11) projects onto the line of rho(g) e_1 and T(E_j1) carries that
    # line to rho(g) e_j, so its largest column v gives rho(g) up to scale
    mats = np.zeros((n, d, d), dtype=complex)
    for g in range(n):
        first = images[g, 0]
        v = first[:, np.argmax(np.linalg.norm(first, axis=0))]
        mats[g] = _normalize_projective((images[g, ::d] @ v).T)
    rep = _as_projective_rep(group, mats, None)

    # round trip: conjugation by the lift reproduces the action
    inv_mats = np.linalg.inv(mats)
    worst = 0.0
    for g in range(n):
        rebuilt = np.einsum("ij,ujk,kl->uil", mats[g], units, inv_mats[g])
        worst = max(worst, float(np.linalg.norm(rebuilt - images[g])))
    if worst > 1e-6:
        raise ToleranceFailure(f"lift round-trip residual {worst:.3g}")
    return rep


def _normalize_projective(m):
    """Scale to |det| = 1, then make the largest-modulus entry positive real."""
    k = m.shape[0]
    det = np.linalg.det(m)
    if abs(det) < 1e-12:
        raise FactorRecoveryFailure("recovered projective matrix is singular")
    m = m / abs(det) ** (1.0 / k)
    flat = np.abs(m).reshape(-1)
    pos = int(np.argmax(np.round(flat, 10)))
    entry = m.reshape(-1)[pos]
    return m * (entry.conjugate() / abs(entry))


def _as_projective_rep(group, mats, name):
    """Wrap matrices as a representation, recovering the cocycle table.

    ``rho(1)`` is set to exactly ``I`` in place when it is within 1e-8 of
    it, as the normalized cocycle assumes.  ``alpha(g, h)`` is the scalar
    ``rho(g) rho(h) rho(gh)^-1``; a product that is not scalar raises
    :class:`ToleranceFailure`.  A cocycle within 1e-8 of one everywhere is
    dropped, leaving a linear representation.
    """
    n, k = group.order, mats.shape[1]
    if np.linalg.norm(mats[group.identity] - np.eye(k)) < 1e-8:
        mats[group.identity] = np.eye(k)
    inv_mats = np.linalg.inv(mats)
    vals = np.ones((n, n), dtype=complex)
    for g in range(n):
        c, ok = scalar_multiple_of_identity(
            mats[g] @ mats @ inv_mats[group.mult[g]], tol=1e-6)
        if not ok.all():
            raise ToleranceFailure(
                f"rho(g)rho(h)rho(gh)^-1 is not scalar at ({g}, {np.argmin(ok)})")
        vals[g] = c
    vals[group.identity, :] = 1.0
    vals[:, group.identity] = 1.0
    cocycle = None
    if np.max(np.abs(vals - 1.0)) > 1e-8:
        cocycle = TwoCocycle(group, vals)
    rep = Representation(group=group, dim=k, matrices=mats,
                         unitary=False, cocycle=cocycle, name=name)
    validate(rep, tol=1e-6)
    return rep
