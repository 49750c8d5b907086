"""Weyl dimensions and the power-set classification for compact Lie groups.

Root data live in orthogonal coordinate models (one extra coordinate for
type A, a doubled lattice so spin weights stay integral), which keeps every
pairing an integer and the dimension formula an exact ratio of big-integer
products.  For a product of simple factors acting irreducibly, the invariant
subalgebras are indexed by subsets of the factors with nonzero highest
weight, plus the zero algebra.
"""

import itertools
import math
import operator
import re
from dataclasses import dataclass, field

from .errors import AssertionFailure, CapExceeded, NonIntegerDimension

MAX_RANK = 8
POWER_SET_CAP = 2 ** 16  # unital subalgebras, 2^|I| for |I| nontrivial factors


def _basis_vec(n, i, scale=1):
    v = [0] * n
    v[i] = scale
    return v


def _prefix_vec(n, upto, scale=1):
    return [scale if i < upto else 0 for i in range(n)]


def _root_data(family, rank):
    """Positive roots, doubled fundamental weights, in the coordinate model."""
    if family == "A":
        n = rank + 1
        roots = [[int(k == i) - int(k == j) for k in range(n)]
                 for i in range(n) for j in range(i + 1, n)]
        # along-diagonal components cancel against every root, so the plain
        # prefix vectors serve as fundamental weights here
        fw2 = [_prefix_vec(n, i + 1, 2) for i in range(rank)]
    elif family in ("B", "C"):
        n = rank
        roots = []
        for i in range(n):
            for j in range(i + 1, n):
                roots.append([int(k == i) - int(k == j) for k in range(n)])
                roots.append([int(k == i) + int(k == j) for k in range(n)])
        if family == "B":
            roots += [_basis_vec(n, i) for i in range(n)]
            fw2 = [_prefix_vec(n, i + 1, 2) for i in range(rank - 1)]
            fw2.append(_prefix_vec(n, n, 1))  # spin weight: all halves
        else:
            roots += [_basis_vec(n, i, 2) for i in range(n)]
            fw2 = [_prefix_vec(n, i + 1, 2) for i in range(rank)]
    elif family == "D":
        n = rank
        roots = []
        for i in range(n):
            for j in range(i + 1, n):
                roots.append([int(k == i) - int(k == j) for k in range(n)])
                roots.append([int(k == i) + int(k == j) for k in range(n)])
        fw2 = [_prefix_vec(n, i + 1, 2) for i in range(rank - 2)]
        half_minus = _prefix_vec(n, n, 1)
        half_minus[n - 1] = -1
        fw2.append(half_minus)
        fw2.append(_prefix_vec(n, n, 1))
    elif family == "G":
        roots = [[1, -1, 0], [-2, 1, 1], [-1, 0, 1],
                 [0, -1, 1], [1, -2, 1], [-1, -1, 2]]
        fw2 = [[0, -2, 2], [-2, -2, 4]]
    else:
        raise ValueError(f"unsupported family {family!r}")
    return [tuple(r) for r in roots], [tuple(w) for w in fw2]


_ROOT_COUNTS = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "G": lambda n: 6,
}


@dataclass(frozen=True)
class RootSystem:
    family: str
    rank: int
    positive_roots: tuple
    fundamental_weights2: tuple  # doubled, so half-integer weights stay integral
    rho2: tuple
    # derived in __post_init__: vectors over the positive roots <alpha, 2 rho> and, one per
    # coordinate, <alpha, 2 omega_i>; den = prod <alpha, 2 rho>; the coords -> dim memo
    rho_pairings: tuple = field(init=False, repr=False, compare=False)
    columns: tuple = field(init=False, repr=False, compare=False)
    den: int = field(init=False, repr=False, compare=False)
    dim_memo: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    def __post_init__(self):
        roots = self.positive_roots
        rho_pairings = tuple(_dot(alpha, self.rho2) for alpha in roots)
        object.__setattr__(self, "rho_pairings", rho_pairings)
        object.__setattr__(self, "columns", tuple(
            tuple(_dot(alpha, w) for alpha in roots) for w in self.fundamental_weights2))
        object.__setattr__(self, "den", math.prod(rho_pairings))

    @classmethod
    def build(cls, family, rank):
        family = family.upper()
        limits = {"A": (1, MAX_RANK), "B": (2, MAX_RANK), "C": (2, MAX_RANK),
                  "D": (3, MAX_RANK), "G": (2, 2)}
        if family not in limits:
            raise ValueError(f"unsupported family {family!r}")
        lo, hi = limits[family]
        if not lo <= rank <= hi:
            raise ValueError(f"{family}{rank} out of the supported range "
                             f"{family}{lo}..{family}{hi}")
        roots, fw2 = _root_data(family, rank)
        if len(roots) != _ROOT_COUNTS[family](rank):
            raise AssertionFailure(
                f"{family}{rank}: {len(roots)} positive roots, "
                f"expected {_ROOT_COUNTS[family](rank)}")
        dim = len(roots[0])
        rho2 = tuple(sum(w[k] for w in fw2) for k in range(dim))
        system = cls(family=family, rank=rank, positive_roots=tuple(roots),
                     fundamental_weights2=tuple(fw2), rho2=rho2)
        for alpha, rho_pairing in zip(roots, system.rho_pairings):
            if rho_pairing <= 0:
                raise AssertionFailure(
                    f"{family}{rank}: root {alpha} pairs nonpositively with rho")
        return system

    @classmethod
    def from_name(cls, name):
        m = re.fullmatch(r"([A-Ga-g])(\d+)", name.strip())
        if not m:
            raise ValueError(f"cannot parse root system name {name!r}")
        return cls.build(m.group(1), int(m.group(2)))

    @property
    def name(self):
        return f"{self.family}{self.rank}"


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _coordinate(c):
    """``c`` as an int; a float, string or bool raises ValueError."""
    if c.__class__ is not bool:
        try:
            return operator.index(c)
        except TypeError:
            pass
    raise ValueError(
        f"highest weight coordinate {c!r} is a {type(c).__name__}, not an integer")


@dataclass(frozen=True)
class HighestWeight:
    system: RootSystem
    coords: tuple
    # derived in __post_init__: is_zero, pairing <2 lam, alpha> over the positive
    # roots and shifted = pairing + <2 rho, alpha>; _dim is filled by weyl_dim
    is_zero: bool = field(init=False, repr=False, compare=False)
    pairing: tuple = field(init=False, repr=False, compare=False)
    shifted: tuple = field(init=False, repr=False, compare=False)
    _dim: int = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        coords = tuple(map(_coordinate, self.coords))
        if len(coords) != self.system.rank:
            raise ValueError(
                f"{self.system.name} needs {self.system.rank} coordinates, "
                f"got {len(coords)}")
        if any(c < 0 for c in coords):
            raise ValueError("highest weight coordinates must be nonnegative")
        pairing = [0] * len(self.system.rho_pairings)
        for c, column in zip(coords, self.system.columns):
            if c:
                pairing = [p + c * q for p, q in zip(pairing, column)]
        self._fill(coords, tuple(pairing))

    def _fill(self, coords, pairing):
        shifted = tuple(map(operator.add, self.system.rho_pairings, pairing))
        vars(self).update(coords=coords, is_zero=not any(coords), pairing=pairing,
                          shifted=shifted, _dim=None)

    def __add__(self, other):
        if other.system != self.system:
            raise ValueError("weights live on different root systems")
        total = object.__new__(HighestWeight)
        vars(total)["system"] = self.system
        total._fill(tuple(map(operator.add, self.coords, other.coords)),
                    tuple(map(operator.add, self.pairing, other.pairing)))
        return total


def weyl_dim(weight):
    """Dimension of the irreducible with this highest weight, exactly.

    Weyl's formula prod <lam + rho, alpha> / <rho, alpha> over the positive
    roots: the product of the weight's shifted vector over the system's
    denominator, memoized on the system; the weight keeps its own dimension.
    """
    dim = weight._dim
    if dim is None:
        dim = weight.system.dim_memo.get(weight.coords)
        if dim is None:
            dim = _memo_dim(weight.system, weight.coords, math.prod(weight.shifted))
        object.__setattr__(weight, "_dim", dim)
    return dim


def _memo_dim(sys_, coords, num):
    """``num / den`` for the weight ``coords``, checked integral and memoized."""
    if num % sys_.den != 0:
        raise NonIntegerDimension(
            f"{sys_.name}, weight {coords}: product {num}/{sys_.den} "
            "is not an integer")
    dim = sys_.dim_memo[coords] = num // sys_.den
    return dim


def tensor_irreducible(lam, mu):
    """Whether V(lam) (x) V(mu) stays irreducible (on one simple factor).

    Computed from dimensions: the Cartan component V(lam+mu) exhausts the
    tensor product exactly when the dimensions match.  The answer is checked
    against the clean criterion — one of the two weights is zero.
    """
    sys_ = lam.system
    if mu.system is not sys_ and mu.system != sys_:
        raise ValueError("weights live on different root systems")
    product = weyl_dim(lam) * weyl_dim(mu)
    # lam + mu, unbuilt: its shifted vector is lam's shifted vector plus mu's vector
    coords = tuple(map(operator.add, lam.coords, mu.coords))
    combined = sys_.dim_memo.get(coords)
    if combined is None:
        num = math.prod(map(operator.add, lam.shifted, mu.pairing))
        combined = _memo_dim(sys_, coords, num)
    if combined > product:
        raise AssertionFailure("Cartan component exceeds the tensor product")
    result = combined == product
    expected = lam.is_zero or mu.is_zero
    if result != expected:
        raise AssertionFailure(
            f"tensor irreducibility mismatch on {lam.coords} vs {mu.coords}")
    return result


@dataclass(frozen=True)
class SubalgebraEntry:
    subset: tuple  # indices of factors whose matrix algebra is included
    dim: int
    factor_dims: tuple


@dataclass(frozen=True)
class PowerSetClassification:
    factor_dims: tuple
    nonzero_indices: tuple
    entries: tuple  # the unital ones, one per subset
    includes_zero: bool = True

    @property
    def count(self):
        return len(self.entries) + int(self.includes_zero)

    @property
    def total_dim(self):
        d = 1
        for k in self.factor_dims:
            d *= k
        return d * d


def etingof_enumerate(factors):
    """Invariant subalgebras for a product of simple factors.

    ``factors`` is a list of (RootSystem, HighestWeight) pairs describing an
    irreducible action of a product group.  Subalgebras correspond to subsets
    of the factors with nonzero weight; each contributes the square of its
    dimension product, the complement gives the centralizer, and the zero
    algebra rides along for a total of ``2^|I| + 1``.
    """
    dims = []
    for sys_, weight in factors:
        if weight.system != sys_:
            raise ValueError("weight does not belong to its declared system")
        dims.append(weyl_dim(weight))
    nonzero = tuple(i for i, (_, w) in enumerate(factors) if not w.is_zero)
    if 2 ** len(nonzero) > POWER_SET_CAP:
        raise CapExceeded(f"2^{len(nonzero)} subalgebras exceed the cap of {POWER_SET_CAP}")
    entries = []
    for r in range(len(nonzero) + 1):
        for subset in itertools.combinations(nonzero, r):
            d = 1
            for j in subset:
                d *= dims[j]
            entries.append(SubalgebraEntry(subset=subset, dim=d * d,
                                           factor_dims=tuple(dims[j] for j in subset)))
    entries.sort(key=lambda e: (e.dim, e.subset))
    cls = PowerSetClassification(factor_dims=tuple(dims),
                                 nonzero_indices=nonzero,
                                 entries=tuple(entries))
    full = 1
    for i in nonzero:
        full *= dims[i]
    for e in entries:
        comp = tuple(i for i in nonzero if i not in e.subset)
        dcomp = 1
        for j in comp:
            dcomp *= dims[j]
        if e.dim * dcomp * dcomp != full * full:
            raise AssertionFailure("complement duality fails in the enumeration")
    if cls.count != 2 ** len(nonzero) + 1:
        raise AssertionFailure("power-set count is off")
    return cls


def parse_product_type(text):
    """Split a product name like ``A1xA1`` into root systems."""
    parts = text.split("x")
    return [RootSystem.from_name(p) for p in parts]
