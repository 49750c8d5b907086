"""Finite groups as integer-indexed multiplication tables.

Elements of a group of order ``n`` are the integers ``0..n-1``.  All group
data lives in two integer tables (multiplication and inverses), which keeps
every downstream computation a table lookup and makes numpy vectorization
straightforward.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AssertionFailure, CapExceeded, NotAGroup

#: largest group order accepted by subgroup enumeration
SUBGROUP_ORDER_CAP = 500
#: largest closure size accepted when generating from permutations
PERM_CLOSURE_CAP = 5000
#: exhaustive associativity checking is done up to this order
ASSOC_CHECK_CAP = 256


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group given by its Cayley table.

    Attributes
    ----------
    order : int
        Number of elements; elements are ``0..order-1``.
    identity : int
        Index of the identity element.
    mult : (order, order) int array
        ``mult[g, h]`` is the product ``g*h``.
    inv : (order,) int array
        ``inv[g]`` is the inverse of ``g``.
    name : str, optional
        Display name.
    permutations : tuple of tuples, optional
        When built from permutations, the permutation realizing each element.
    """

    order: int
    identity: int
    mult: np.ndarray
    inv: np.ndarray
    name: str = None
    permutations: tuple = None
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __hash__(self):
        return id(self)

    def __eq__(self, other):
        return self is other

    def elements(self):
        return range(self.order)

    def conj(self, g, x):
        """Conjugate ``g * x * g^-1``."""
        return int(self.mult[self.mult[g, x], self.inv[g]])

    @property
    def generators(self):
        """Greedy generating set: each element, in label order, outside the
        subgroup generated so far.  Each one at least doubles that subgroup, so
        there are at most log2(order); the trivial group has ``()``.
        """
        if "generators" not in self._cache:
            gens = []
            inside = np.zeros(self.order, dtype=bool)
            inside[self.identity] = True
            for x in range(self.order):
                if not inside[x]:
                    gens.append(x)
                    inside[_generated(self, gens)] = True
            self._cache["generators"] = tuple(gens)
        return self._cache["generators"]

    @property
    def word_layers(self):
        """Breadth-first layers of the Cayley graph on ``generators``, past
        the generators themselves: per word length 2, 3, ... the arrays
        ``(h, parent, j)`` with ``h = parent * generators[j]``, each element
        once, its parent in an earlier layer (or a generator).
        """
        if "word_layers" not in self._cache:
            gens = np.array(self.generators, dtype=np.intp)
            seen = np.zeros(self.order, dtype=bool)
            seen[self.identity] = True
            seen[gens] = True
            layers, frontier = [], gens
            while frontier.size:
                cand = self.mult[frontier[:, None], gens].ravel()  # parent-major
                new, first = np.unique(cand, return_index=True)
                keep = ~seen[new]
                new, first = new[keep], first[keep]
                seen[new] = True
                if new.size:
                    layers.append((new, frontier[first // len(gens)], first % len(gens)))
                frontier = new
            self._cache["word_layers"] = layers
        return self._cache["word_layers"]


@dataclass(frozen=True)
class Subgroup:
    """A subgroup of a parent group, stored as a sorted member tuple."""

    parent: FiniteGroup
    members: tuple

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(sorted(int(m) for m in self.members)))

    @property
    def order(self):
        return len(self.members)

    @property
    def index(self):
        return self.parent.order // len(self.members)

    def as_group(self):
        """Realize this subgroup as a standalone :class:`FiniteGroup`.

        Element ``i`` of the realized group is ``self.members[i]`` in the
        parent; the mapping is returned by :meth:`embedding`.
        """
        cache = self.parent._cache.setdefault("subgroup_groups", {})
        if self.members not in cache:
            members = np.array(self.members, dtype=np.intp)
            k = len(members)
            pos = np.full(self.parent.order, -1, dtype=np.intp)
            pos[members] = np.arange(k)
            cache[self.members] = FiniteGroup(
                order=k, identity=int(pos[self.parent.identity]),
                mult=pos[self.parent.mult[np.ix_(members, members)]],
                inv=pos[self.parent.inv[members]], name=f"subgroup<{k}>",
            )
        return cache[self.members]

    def embedding(self):
        """Array sending realized-group indices to parent indices."""
        return np.array(self.members, dtype=np.intp)


@dataclass(frozen=True)
class Transversal:
    """Left coset representatives for ``subgroup``; ``reps[0]`` is the identity."""

    subgroup: Subgroup
    reps: tuple


def build_from_mult_table(table, name=None, permutations=None):
    """Construct and fully validate a group from a Cayley table.

    Raises :class:`NotAGroup` with a witness triple if associativity fails,
    or with a descriptive message for identity/inverse failures and for
    entries that are not integers (a float or bool is not cast).
    """
    mult = np.asarray(table)
    if mult.ndim != 2 or mult.shape[0] != mult.shape[1]:
        raise NotAGroup("multiplication table must be square")
    n = mult.shape[0]
    if n == 0:
        raise NotAGroup("a group has at least one element")
    if mult.dtype.kind not in "iu":
        raise NotAGroup(f"table entries must be integers; got dtype {mult.dtype}")
    mult = mult.astype(np.intp, copy=False)
    if mult.min() < 0 or mult.max() >= n:
        raise NotAGroup("table entries must index elements 0..n-1")

    # identity: a two-sided unit
    ident = None
    rng_n = np.arange(n)
    for e in range(n):
        if np.array_equal(mult[e], rng_n) and np.array_equal(mult[:, e], rng_n):
            ident = e
            break
    if ident is None:
        raise NotAGroup("no two-sided identity element")

    # inverses
    inv = np.full(n, -1, dtype=np.intp)
    for g in range(n):
        hits = np.nonzero(mult[g] == ident)[0]
        if len(hits) != 1 or mult[hits[0], g] != ident:
            raise NotAGroup(f"element {g} has no two-sided inverse")
        inv[g] = hits[0]

    _check_associativity(mult, n)

    return FiniteGroup(order=n, identity=ident, mult=mult, inv=inv,
                       name=name, permutations=permutations)


def _check_associativity(mult, n):
    if n <= ASSOC_CHECK_CAP:
        # exhaustive, chunked over the first index to bound memory
        for a in range(n):
            left = mult[mult[a], :]          # (n, n): (a*b)*c
            right = mult[a, mult]            # (n, n): a*(b*c)
            if not np.array_equal(left, right):
                b, c = map(int, np.argwhere(left != right)[0])
                raise NotAGroup(
                    f"associativity fails at ({a}, {b}, {c})", witness=(a, b, c)
                )
    else:
        # spot check on a deterministic sample
        rng = np.random.default_rng(0)
        for _ in range(20000):
            a, b, c = rng.integers(0, n, size=3)
            if mult[mult[a, b], c] != mult[a, mult[b, c]]:
                raise NotAGroup(
                    f"associativity fails at ({a}, {b}, {c})",
                    witness=(int(a), int(b), int(c)),
                )


def _compose(p, q):
    """Composition of permutation tuples: ``(p*q)(x) = p(q(x))``."""
    return tuple(p[i] for i in q)


def build_from_permutations(perm_gens, name=None, cap=PERM_CLOSURE_CAP):
    """Close a set of permutations under composition and build the group.

    Elements are canonically ordered by sorting the permutation tuples, which
    places the identity at index 0.  Raises :class:`CapExceeded` if the
    closure grows past ``cap``.
    """
    gens = [tuple(int(x) for x in p) for p in perm_gens]
    if not gens:
        raise NotAGroup("need at least one permutation generator")
    m = len(gens[0])
    for p in gens:
        if sorted(p) != list(range(m)):
            raise NotAGroup(f"{p} is not a permutation of 0..{m - 1}")

    ident = tuple(range(m))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = _compose(p, g)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
                    if len(seen) > cap:
                        raise CapExceeded(
                            f"permutation closure exceeded cap {cap}"
                        )
        frontier = nxt

    elems = sorted(seen)
    pos = {p: i for i, p in enumerate(elems)}
    n = len(elems)
    mult = np.zeros((n, n), dtype=np.intp)
    for i, p in enumerate(elems):
        for j, q in enumerate(elems):
            mult[i, j] = pos[_compose(p, q)]
    return build_from_mult_table(mult, name=name, permutations=tuple(elems))


def conjugacy_classes(group):
    """Conjugacy classes as sorted tuples, ordered by their minimal element.

    Column ``x`` of ``mult[mult[g, x], inv[g]]`` over all ``g`` is the class
    of ``x``, so its least entry names the class: one gather gives every
    class, and the class index is cached with them.
    """
    if "classes" not in group._cache:
        least = group.mult[group.mult, group.inv[:, None]].min(axis=0)
        _, idx = np.unique(least, return_inverse=True)
        members = np.split(np.argsort(idx, kind="stable"), np.cumsum(np.bincount(idx))[:-1])
        group._cache["classes"] = [tuple(c.tolist()) for c in members]
        group._cache["class_index"] = idx.astype(np.intp)
    return group._cache["classes"]


def class_index_array(group):
    """Array mapping each element to the index of its conjugacy class."""
    conjugacy_classes(group)
    return group._cache["class_index"]


def _generated(group, gens):
    """Sorted members of the subgroup generated by ``gens``.

    A breadth-first sweep of right multiplications by ``gens`` from the
    identity over a membership mask.  In a finite group every inverse is a
    positive power, so words without inverses already reach the subgroup.
    """
    gens = np.unique(np.asarray(gens, dtype=np.intp))
    inside = np.zeros(group.order, dtype=bool)
    frontier = np.array([group.identity], dtype=np.intp)
    inside[frontier] = True
    while frontier.size:
        before = inside.copy()
        inside[group.mult[frontier[:, None], gens]] = True
        frontier = np.flatnonzero(inside & ~before)
    return np.flatnonzero(inside)


def _conjugates(group, members):
    """Row ``g`` holds the sorted members of ``g H g^-1``: an (order, |H|) array."""
    members = np.asarray(members, dtype=np.intp)
    return np.sort(group.mult[group.mult[:, members], group.inv[:, None]], axis=1)


def subgroup_generated_by(group, elems):
    return Subgroup(group, tuple(int(x) for x in _generated(group, list(elems))))


def all_subgroups(group):
    """One representative per conjugacy class of subgroups, sorted by order:
    every index divides the order, so this is the sweep from P = 1 of
    :func:`subgroups_of_index_dividing`."""
    return subgroups_of_index_dividing(group, group.order)


def subgroups_of_index_dividing(group, d):
    """One representative per conjugacy class of subgroups of index dividing
    ``d``, sorted by order.

    Each such K contains P = <g^L : g in G>, L = lcm(1..d): the <g>-orbit of
    the coset K has some length k <= [G:K] <= d, so g^k lies in K, and k
    divides L, so g^L does too.  P is normal (conjugation permutes the L-th
    powers), so a subgroup U over P other than P is <M, x> for an M maximal
    in U over P (a maximal subgroup of U/P lifts to one) and any x in U
    outside M, and conjugating U conjugates M, still over P.  So it suffices
    to extend one representative H per class from P, by one x per double
    coset HxH (<H, hxh'> = <H, x>), until no new class appears.  Each class
    is stored under its lexicographically least sorted conjugate; the
    classes over P are memoized per P.  Only groups of order <= 500 are
    accepted.
    """
    if group.order > SUBGROUP_ORDER_CAP:
        raise CapExceeded(f"subgroup enumeration limited to order {SUBGROUP_ORDER_CAP}")
    exponent = math.lcm(*range(1, d + 1))
    power, square = np.full(group.order, group.identity), np.arange(group.order)
    while exponent:  # g^L by repeated squaring on the table
        if exponent & 1:
            power = group.mult[power, square]
        square, exponent = group.mult[square, square], exponent >> 1
    base = _generated(group, power)
    sweeps = group._cache.setdefault("subgroup_sweeps", {})
    classes = sweeps.get(base.tobytes())
    if classes is None:
        mult = group.mult
        keys, seen, work = [], set(), []

        def admit(members):
            conj = _conjugates(group, members)
            # every conjugate is recorded (sorted intp rows, like each closure),
            # so a later closure opens a new class exactly when it is unseen
            seen.update(row.tobytes() for row in conj)
            keys.append(tuple(int(v) for v in conj[np.lexsort(conj.T[::-1])[0]]))
            work.append(members)

        admit(base)
        while work:
            h = work.pop()
            todo = np.ones(group.order, dtype=bool)
            todo[h] = False
            for x in range(group.order):
                if not todo[x]:
                    continue
                todo[mult[mult[h, x][:, None], h]] = False
                k = _generated(group, np.append(h, x))
                if k.tobytes() not in seen:
                    admit(k)
        classes = sweeps[base.tobytes()] = [
            Subgroup(group, s) for s in sorted(keys, key=lambda s: (len(s), s))]
    return [s for s in classes if d % s.index == 0]


def left_transversal(subgroup):
    """Greedy left-coset sweep; the identity always represents the first coset."""
    group = subgroup.parent
    members = np.array(subgroup.members, dtype=np.intp)
    covered = np.zeros(group.order, dtype=bool)
    reps = [int(group.identity)]
    covered[group.mult[group.identity, members]] = True
    for g in range(group.order):
        if covered[g]:
            continue
        reps.append(int(g))
        covered[group.mult[g, members]] = True
    if len(reps) != subgroup.index:
        raise AssertionFailure(
            f"{len(reps)} coset representatives for index {subgroup.index}")
    return Transversal(subgroup=subgroup, reps=tuple(reps))


def direct_product(g1, g2, cap=SUBGROUP_ORDER_CAP):
    """Direct product with index packing ``(a, b) -> a * |G2| + b``."""
    n1, n2 = g1.order, g2.order
    if n1 * n2 > cap:
        raise CapExceeded(f"direct product order {n1 * n2} exceeds cap {cap}")
    m1, m2 = g1.mult, g2.mult
    mult = (m1[:, None, :, None] * n2 + m2[None, :, None, :]).reshape(n1 * n2, n1 * n2)
    name = None
    if g1.name and g2.name:
        name = f"{g1.name}x{g2.name}"
    return build_from_mult_table(mult, name=name)


def product_index(g2_order, a, b):
    """Index of ``(a, b)`` inside ``direct_product(g1, g2)``."""
    return a * g2_order + b


def are_conjugate_subgroups(h1, h2):
    """Whether two subgroups of the same parent are conjugate."""
    if h1.parent is not h2.parent:
        raise ValueError("subgroups of different parents")
    if h1.order != h2.order:
        return False
    rows = _conjugates(h1.parent, h1.members)
    return bool((rows == np.array(h2.members)).all(axis=1).any())


def group_to_json(group):
    """JSON-serializable dict (Cayley-table form)."""
    d = {"order": group.order, "mult_table": [[int(x) for x in row] for row in group.mult]}
    if group.name:
        d["name"] = group.name
    return d


def group_from_json(d):
    """Build a group from a dict in either Cayley-table or generator form."""
    if "mult_table" in d:
        g = build_from_mult_table(d["mult_table"], name=d.get("name"))
        if "order" in d and d["order"] != g.order:
            raise NotAGroup("declared order does not match table size")
        return g
    if "perm_generators" in d:
        return build_from_permutations(d["perm_generators"], name=d.get("name"))
    raise NotAGroup("group JSON needs 'mult_table' or 'perm_generators'")
