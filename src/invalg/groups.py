"""Finite groups as integer-indexed multiplication tables.

Elements of a group of order ``n`` are the integers ``0..n-1``.  All group
data lives in two integer tables (multiplication and inverses), which keeps
every downstream computation a table lookup and makes numpy vectorization
straightforward.
"""

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
            members = np.array(self.members)
            pos = {int(m): i for i, m in enumerate(members)}
            k = len(members)
            mult = np.zeros((k, k), dtype=np.intp)
            for i, a in enumerate(members):
                row = self.parent.mult[a, members]
                mult[i] = [pos[int(x)] for x in row]
            inv = np.array([pos[int(self.parent.inv[m])] for m in members], dtype=np.intp)
            ident = pos[self.parent.identity]
            cache[self.members] = FiniteGroup(
                order=k, identity=ident, mult=mult, inv=inv,
                name=f"subgroup<{k}>",
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
    or with a descriptive message for identity/inverse failures.
    """
    mult = np.asarray(table, dtype=np.intp)
    if mult.ndim != 2 or mult.shape[0] != mult.shape[1]:
        raise NotAGroup("multiplication table must be square")
    n = mult.shape[0]
    if n == 0:
        raise NotAGroup("a group has at least one element")
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
    """Conjugacy classes as sorted tuples, ordered by their minimal element."""
    if "classes" in group._cache:
        return group._cache["classes"]
    n = group.order
    seen = np.zeros(n, dtype=bool)
    classes = []
    for x in range(n):
        if seen[x]:
            continue
        orbit = np.unique(group.mult[group.mult[:, x], group.inv[np.arange(n)]])
        # orbit above computes g*x*g^-1 for all g at once
        seen[orbit] = True
        classes.append(tuple(int(v) for v in orbit))
    classes.sort(key=lambda c: c[0])
    group._cache["classes"] = classes
    return classes


def class_index_array(group):
    """Array mapping each element to the index of its conjugacy class."""
    if "class_index" not in group._cache:
        idx = np.zeros(group.order, dtype=np.intp)
        for i, cls in enumerate(conjugacy_classes(group)):
            for g in cls:
                idx[g] = i
        group._cache["class_index"] = idx
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
        reached = group.mult[frontier[:, None], gens].ravel()
        frontier = np.unique(reached[~inside[reached]])
        inside[frontier] = True
    return np.flatnonzero(inside)


def _conjugates(group, members):
    """Row ``g`` holds the sorted members of ``g H g^-1``: an (order, |H|) array."""
    members = np.asarray(members, dtype=np.intp)
    return np.sort(group.mult[group.mult[:, members], group.inv[:, None]], axis=1)


def subgroup_generated_by(group, elems):
    return Subgroup(group, tuple(int(x) for x in _generated(group, list(elems))))


def all_subgroups(group):
    """One representative per conjugacy class of subgroups, sorted by order.

    Every subgroup U other than 1 is <M, x> for a maximal subgroup M of U and
    any x in U outside M, and conjugating U conjugates M.  So it suffices to
    extend one representative H per class, by one x per double coset HxH
    (<H, hxh'> = <H, x>), until no new class appears.  Each class is stored
    under its lexicographically least sorted conjugate.  Only groups of order
    <= 500 are accepted.
    """
    if group.order > SUBGROUP_ORDER_CAP:
        raise CapExceeded(
            f"subgroup enumeration limited to order {SUBGROUP_ORDER_CAP}"
        )
    if "subgroup_classes" in group._cache:
        return group._cache["subgroup_classes"]

    mult = group.mult
    keys, seen, work = [], set(), []

    def admit(members):
        conj = _conjugates(group, members)
        # every conjugate is recorded (sorted intp rows, like each closure),
        # so a later closure opens a new class exactly when it is unseen
        seen.update(row.tobytes() for row in conj)
        keys.append(tuple(int(v) for v in conj[np.lexsort(conj.T[::-1])[0]]))
        work.append(members)

    admit(np.array([group.identity], dtype=np.intp))
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
    out = [Subgroup(group, s) for s in sorted(keys, key=lambda s: (len(s), s))]
    group._cache["subgroup_classes"] = out
    return out


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
