"""Built-in groups and representations, plus JSON import/export.

Matrix groups (quaternion, dihedral, binary tetrahedral) are generated by
closing explicit 2x2 generators under multiplication, which yields the group
table and the defining representation in one pass; permutation groups carry
reps cut out of the permutation action.  All entries validate to better
than 1e-10.
"""

import functools
import json

import numpy as np

from .errors import InvalgError
from .groups import (build_from_mult_table, build_from_permutations,
                     direct_product, group_from_json, group_to_json)
from .reps import Representation, TwoCocycle, _regular_representation

CLOSURE_CAP = 200


class CatalogEntry:
    def __init__(self, key, group, reps, note=""):
        self.key = key
        self.group = group
        self.reps = reps
        self.note = note


def _fingerprint(m):
    return (np.round(m, 9) + 0.0).tobytes()


def _matrix_group(gens, name):
    """Close 2x2 (or larger) generators under products; matrices give the rep."""
    gens = [np.asarray(g, dtype=complex) for g in gens]
    d = gens[0].shape[0]
    eye = np.eye(d, dtype=complex)
    elems = [eye]
    index = {_fingerprint(eye): 0}
    frontier = [0]
    while frontier:
        cur = frontier.pop(0)
        for g in gens:
            prod = elems[cur] @ g
            fp = _fingerprint(prod)
            if fp not in index:
                if len(elems) >= CLOSURE_CAP:
                    raise InvalgError(f"matrix closure for {name} exceeded cap")
                index[fp] = len(elems)
                elems.append(prod)
                frontier.append(index[fp])
    n = len(elems)
    mult = np.zeros((n, n), dtype=np.intp)
    for a in range(n):
        for b in range(n):
            mult[a, b] = index[_fingerprint(elems[a] @ elems[b])]
    group = build_from_mult_table(mult, name=name)
    return group, np.stack(elems)


def _perm_matrices(group):
    perms = group.permutations
    k = len(perms[0])
    n = group.order
    mats = np.zeros((n, k, k), dtype=complex)
    for g in range(n):
        for i in range(k):
            mats[g, perms[g][i], i] = 1.0
    return mats


def _sum_zero_basis(k):
    """Orthonormal basis (columns) of the sum-zero hyperplane in R^k."""
    cols = []
    for i in range(1, k):
        v = np.zeros(k)
        v[:i] = 1.0
        v[i] = -i
        cols.append(v / np.linalg.norm(v))
    return np.stack(cols, axis=1)


def _standard_rep(group, name="std"):
    """Permutation action restricted to the sum-zero hyperplane."""
    pm = _perm_matrices(group)
    k = len(group.permutations[0])
    u = _sum_zero_basis(k)
    mats = np.einsum("ia,gij,jb->gab", u, pm, u).astype(complex)
    return Representation(group=group, dim=k - 1, matrices=mats, unitary=True,
                          name=name)


def _sign_values(group):
    out = np.zeros(group.order)
    for g, perm in enumerate(group.permutations):
        p = list(perm)
        s = 1
        for i in range(len(p)):
            while p[i] != i:
                j = p[i]
                p[i], p[j] = p[j], p[i]
                s = -s
        out[g] = s
    return out


def _one_dim(group, values, name):
    mats = np.array(values, dtype=complex).reshape(-1, 1, 1)
    return Representation(group=group, dim=1, matrices=mats, unitary=True,
                          name=name)


def _direct_sum(name, *reps):
    group = reps[0].group
    total = sum(r.dim for r in reps)
    n = group.order
    mats = np.zeros((n, total, total), dtype=complex)
    off = 0
    for r in reps:
        mats[:, off:off + r.dim, off:off + r.dim] = r.matrices
        off += r.dim
    return Representation(group=group, dim=total, matrices=mats,
                          unitary=all(r.unitary for r in reps), name=name)


@functools.lru_cache(maxsize=1)
def catalog():
    entries = {}

    s3 = build_from_permutations([(1, 0, 2), (1, 2, 0)], name="S3")
    triv = _one_dim(s3, np.ones(6), "triv")
    sign = _one_dim(s3, _sign_values(s3), "sign")
    std = _standard_rep(s3)
    entries["S3"] = CatalogEntry("S3", s3, {
        "triv": triv,
        "sign": sign,
        "std": std,
        "trivPlusSign": _direct_sum("trivPlusSign", triv, sign),
        "trivPlusSignPlusStd": _direct_sum("trivPlusSignPlusStd", triv, sign, std),
        "regular": _regular_representation(s3),
    }, note="symmetric group on three letters")

    qi = np.array([[1j, 0], [0, -1j]])
    qj = np.array([[0, 1], [-1, 0]], dtype=complex)
    q8, q8_mats = _matrix_group([qi, qj], "Q8")
    entries["Q8"] = CatalogEntry("Q8", q8, {
        "std": Representation(group=q8, dim=2, matrices=q8_mats, unitary=True,
                              name="std"),
    }, note="quaternion group; the 2-dim irreducible is faithful")

    rot = np.array([[0, -1], [1, 0]], dtype=complex)
    ref = np.array([[1, 0], [0, -1]], dtype=complex)
    d4, d4_mats = _matrix_group([rot, ref], "D4")
    entries["D4"] = CatalogEntry("D4", d4, {
        "std": Representation(group=d4, dim=2, matrices=d4_mats, unitary=True,
                              name="std"),
    }, note="symmetries of the square")

    a4 = build_from_permutations([(1, 2, 0, 3), (1, 0, 3, 2)], name="A4")
    entries["A4"] = CatalogEntry("A4", a4, {
        "std3": _standard_rep(a4, "std3"),
    }, note="alternating group on four letters")

    s4 = build_from_permutations([(1, 0, 2, 3), (1, 2, 3, 0)], name="S4")
    entries["S4"] = CatalogEntry("S4", s4, {
        "std3": _standard_rep(s4, "std3"),
    }, note="symmetric group on four letters")

    w = 0.5 * np.array([[-1 + 1j, 1 + 1j], [-1 + 1j, -1 - 1j]])
    sl23, sl_mats = _matrix_group([qi, w], "SL23")
    entries["SL23"] = CatalogEntry("SL23", sl23, {
        "std": Representation(group=sl23, dim=2, matrices=sl_mats,
                              unitary=True, name="std"),
    }, note="binary tetrahedral group; its 2-dim irreducible is primitive")

    s3xs3 = direct_product(s3, s3)
    n = 6
    kron = np.zeros((36, 4, 4), dtype=complex)
    for a in range(n):
        for b in range(n):
            kron[a * n + b] = np.kron(std.matrices[a], std.matrices[b])
    entries["S3xS3"] = CatalogEntry("S3xS3", s3xs3, {
        "stdXstd": Representation(group=s3xs3, dim=4, matrices=kron,
                                  unitary=True, name="stdXstd"),
    }, note="product group acting on the tensor square of the standard rep")

    c2 = build_from_mult_table([[0, 1], [1, 0]], name="C2")
    k4 = direct_product(c2, c2)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    pauli = np.zeros((4, 2, 2), dtype=complex)
    alpha = np.ones((4, 4), dtype=complex)
    for a in range(2):
        for b in range(2):
            pauli[a * 2 + b] = np.linalg.matrix_power(sx, a) @ np.linalg.matrix_power(sz, b)
    for a in range(2):
        for b in range(2):
            for c in range(2):
                for e in range(2):
                    alpha[a * 2 + b, c * 2 + e] = (-1.0) ** (b * c)
    entries["C2xC2"] = CatalogEntry("C2xC2", k4, {
        "pauli": Representation(group=k4, dim=2, matrices=pauli, unitary=True,
                                cocycle=TwoCocycle(k4, alpha), name="pauli"),
    }, note="Klein four-group with its genuinely projective Pauli rep")

    return entries


def get(key, rep_name=None):
    """Look up a catalog entry, or a (group, representation) pair."""
    entries = catalog()
    if key not in entries:
        raise KeyError(f"no catalog entry {key!r}; have {sorted(entries)}")
    entry = entries[key]
    if rep_name is None:
        return entry
    if rep_name not in entry.reps:
        raise KeyError(f"entry {key!r} has no rep {rep_name!r}; "
                       f"have {sorted(entry.reps)}")
    return entry.group, entry.reps[rep_name]


def _complex_to_json(m):
    arr = np.asarray(m, dtype=complex)
    out = np.empty(arr.shape + (2,))
    out[..., 0] = arr.real
    out[..., 1] = arr.imag
    return out.tolist()


def _complex_from_json(data):
    arr = np.asarray(data, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def rep_to_json(rep):
    d = {
        "dim": rep.dim,
        "matrices": _complex_to_json(rep.matrices),
        "unitary": bool(rep.unitary),
    }
    if rep.name:
        d["name"] = rep.name
    if rep.cocycle is not None:
        d["cocycle"] = _complex_to_json(rep.cocycle.values)
    return d


def rep_from_json(group, d):
    cocycle = None
    if "cocycle" in d:
        cocycle = TwoCocycle(group, _complex_from_json(d["cocycle"]))
    return Representation(group=group, dim=int(d["dim"]),
                          matrices=_complex_from_json(d["matrices"]),
                          unitary=bool(d.get("unitary", False)),
                          cocycle=cocycle, name=d.get("name"))


def pair_to_json(group, rep):
    return {"group": group_to_json(group), "representation": rep_to_json(rep)}


def pair_from_json(d):
    group = group_from_json(d["group"])
    rep = rep_from_json(group, d["representation"])
    return group, rep


def load_input(text_or_path):
    """Resolve ``catalog:KEY:REP`` strings or JSON file contents."""
    if text_or_path.startswith("catalog:"):
        parts = text_or_path.split(":")
        if len(parts) != 3:
            raise ValueError("catalog inputs look like catalog:KEY:REP")
        return get(parts[1], parts[2])
    with open(text_or_path, "r", encoding="utf-8") as fh:
        raw = fh.read()
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"malformed JSON in {text_or_path} at byte {exc.pos}: {exc.msg}") from exc
    return pair_from_json(data)
