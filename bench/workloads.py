"""Seeded inputs, job lists and answer checks for the four workloads.

Every input handed to the program is a JSON file in the package's wire format
(``{"group": {"order", "mult_table"}, "representation": {...}}``).  From the
workload seed each input gets a random relabelling of the group elements
(identity kept at label 0, cocycle permuted with the labels) and a
Haar-random unitary change of basis of V.  Neither changes any checked
answer, so one expected-answer table serves every seed.

The identity-label probes move the identity off label 0 instead: each
input is probed once per non-identity conjugacy class, with an element of
that class at label 0.  At the commit that defined this benchmark 32 of the
35 probes crash inside ``classify.induction_pairs`` (see ``record.json``).
"""

import json
import os

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

WORKLOADS = ("catalog", "induction", "tensor", "lie")

# Catalog inputs, as (key, rep).  Every command runs on every input it
# accepts; the accepted pairs are the entries of the expected-answer table.
CATALOG_INPUTS = (
    ("S3", "triv"), ("S3", "sign"), ("S3", "std"), ("S3", "trivPlusSign"),
    ("S3", "trivPlusSignPlusStd"), ("S3", "regular"), ("Q8", "std"),
    ("D4", "std"), ("A4", "std3"), ("S4", "std3"), ("SL23", "std"),
    ("S3xS3", "stdXstd"), ("C2xC2", "pauli"),
)
COMMANDS = ("validate", "ideals", "subalgebras", "factor")

# Induction: d <= 3, so nearly all time is subgroup classes, subgroup
# character tables and induction pairs; the cost climbs with the order.
# D30 (7 s a job) is left out so that a run holds several passes.
DIHEDRAL_NS = (6, 12, 18, 24)
INDUCTION_CATALOG = (("A4", "std3"), ("S4", "std3"), ("SL23", "std"))

# Tensor: outer tensor products; no subgroup enumeration.  S3 x Pauli is
# projective with 12 adjoint components (a 2^12-subset scan, half the time of
# the same scan on Q8xS3).  Pauli^3 is d = 8: its 4096 x 64 Kronecker system
# sets the peak memory, but its time swings 1.5-2x with host phases that the
# reference kernel does not see, so it runs once a run, untimed (``False``).
# Its factor job (40-57 s) and Pauli^2 factor (a 2^16 scan, 51 s) do not fit
# a run; S3xS3 factor already runs in the catalog workload.
TENSOR_JOBS = (
    ("S3xS3", ("S3:std", "S3:std"), "ideals", True),
    ("S3xPauli", ("S3:std", "C2xC2:pauli"), "factor", True),
    ("Q8xS3", ("Q8:std", "S3:std"), "ideals", True),
    ("Pauli3", ("C2xC2:pauli",) * 3, "validate", False),
)

# Lie: exact-integer layer.  Every weight pair in the box 0..2 for every
# type through rank 4, plus power-set enumerations on products up to rank 8
# built from types whose dimensions have closed forms below.
SWEEP_SYSTEMS = ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4",
                 "D3", "D4", "G2")
SWEEP_BOX = 3
ETINGOF_PRODUCTS = (
    ("A1",) * 8, ("A2",) * 4, ("B2",) * 4, ("G2",) * 4,
    ("A1", "A2", "B2", "G2", "A1"), ("G2", "B2", "A2", "A1", "A1"),
    ("A2", "A2", "A1", "A1", "A1", "A1"), ("B2", "G2", "B2", "G2"),
)
ETINGOF_BOX = 4
# A few multi-factor lie commands ride along in the catalog workload.
CATALOG_LIE_PRODUCTS = (("A1", "A1"), ("A2", "B2", "G2"), ("A1",) * 6)


def closed_form_dim(system, coords):
    """Weyl dimension from textbook closed forms (A1, A2, B2, G2 only)."""
    if system == "A1":
        (m,) = coords
        return m + 1
    a, b = coords
    if system == "A2":
        return (a + 1) * (b + 1) * (a + b + 2) // 2
    if system == "B2":  # a on the 5-dim vector weight, b on the spin weight
        return (a + 1) * (b + 1) * (a + b + 2) * (2 * a + b + 3) // 6
    if system == "G2":  # a on the 7-dim weight, b on the 14-dim weight
        return ((a + 1) * (b + 1) * (a + b + 2) * (a + 2 * b + 3)
                * (a + 3 * b + 4) * (2 * a + 3 * b + 5) // 120)
    raise ValueError(f"no closed form for {system}")


RANKS = {"A1": 1, "A2": 2, "B2": 2, "G2": 2}


# -- group and representation data -----------------------------------------

class RepData:
    """A Cayley table, one matrix per element and an optional cocycle."""

    def __init__(self, mult, mats, cocycle=None):
        self.mult = np.asarray(mult, dtype=np.int64)
        self.mats = np.asarray(mats, dtype=complex)
        self.cocycle = None if cocycle is None else np.asarray(cocycle, dtype=complex)

    @property
    def order(self):
        return self.mult.shape[0]

    @property
    def dim(self):
        return self.mats.shape[1]

    def cocycle_or_ones(self):
        if self.cocycle is None:
            return np.ones((self.order, self.order), dtype=complex)
        return self.cocycle


def _identity_label(mult):
    n = mult.shape[0]
    for e in range(n):
        if np.array_equal(mult[e], np.arange(n)):
            return e
    raise ValueError("table has no identity")


def conjugacy_classes(mult):
    """Conjugacy classes of a Cayley table, each a sorted list of labels."""
    e = _identity_label(mult)
    inv = np.argmax(mult == e, axis=1)
    classes, seen = [], set()
    for g in range(mult.shape[0]):
        if g not in seen:
            cls = sorted(set(mult[mult[:, g], inv].tolist()))
            seen.update(cls)
            classes.append(cls)
    return classes


def relabel(data, perm):
    """Element ``g`` becomes ``perm[g]``; matrices and cocycle move along."""
    perm = np.asarray(perm)
    mult = np.empty_like(data.mult)
    mult[np.ix_(perm, perm)] = perm[data.mult]
    mats = np.empty_like(data.mats)
    mats[perm] = data.mats
    coc = None
    if data.cocycle is not None:
        coc = np.empty_like(data.cocycle)
        coc[np.ix_(perm, perm)] = data.cocycle
    return RepData(mult, mats, coc)


def catalog_data(catalog, key, rep_name):
    entry = catalog[key]
    rep = entry.reps[rep_name]
    coc = None if rep.cocycle is None else rep.cocycle.values
    return RepData(entry.group.mult, rep.matrices, coc)


def outer_product(x, y):
    """Outer tensor product on the direct product, ``(a, b) -> a*|Y| + b``."""
    n1, n2 = x.order, y.order
    mult = (x.mult[:, None, :, None] * n2 + y.mult[None, :, None, :]).reshape(n1 * n2, n1 * n2)
    mats = np.einsum("aij,bkl->abikjl", x.mats, y.mats).reshape(
        n1 * n2, x.dim * y.dim, x.dim * y.dim)
    coc = None
    if x.cocycle is not None or y.cocycle is not None:
        coc = np.einsum("ac,bd->abcd", x.cocycle_or_ones(),
                        y.cocycle_or_ones()).reshape(n1 * n2, n1 * n2)
    return RepData(mult, mats, coc)


def dihedral(n):
    """D_n of order 2n on the plane; element ``k + n*e`` is ``r^k s^e``."""
    k = np.arange(n)
    mult = np.empty((2 * n, 2 * n), dtype=np.int64)
    for e in range(2):
        for f in range(2):
            sign = -1 if e else 1
            rot = (k[:, None] + sign * k[None, :]) % n
            mult[e * n:(e + 1) * n, f * n:(f + 1) * n] = rot + n * ((e + f) % 2)
    th = 2 * np.pi * k / n
    rots = np.stack([np.stack([np.cos(th), -np.sin(th)], -1),
                     np.stack([np.sin(th), np.cos(th)], -1)], 1)
    refl = np.diag([1.0, -1.0])
    mats = np.concatenate([rots, rots @ refl]).astype(complex)
    return RepData(mult, mats)


def haar_unitary(d, rng):
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def transform(data, rng, first=None):
    """Random relabelling that gives label 0 to element ``first`` (the
    identity by default), then a Haar-random unitary basis change."""
    n = data.order
    if first is None:
        first = _identity_label(data.mult)
    perm = np.empty(n, dtype=np.int64)
    perm[first] = 0
    perm[np.arange(n) != first] = rng.permutation(np.arange(1, n))
    out = relabel(data, perm)
    u = haar_unitary(data.dim, rng)
    out.mats = u @ out.mats @ u.conj().T
    return out


def to_wire(data, name):
    rep = {"dim": int(data.dim),
           "matrices": np.stack([data.mats.real, data.mats.imag], -1).tolist(),
           "name": name, "unitary": True}
    if data.cocycle is not None:
        rep["cocycle"] = np.stack([data.cocycle.real, data.cocycle.imag], -1).tolist()
    return {"group": {"order": int(data.order), "mult_table": data.mult.tolist()},
            "representation": rep}


def write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, separators=(",", ":"), sort_keys=True))


# -- job lists ---------------------------------------------------------------

def load_expected():
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def input_sources(workload, catalog):
    """``{input_id: RepData}`` for the untransformed inputs of a workload."""
    out = {}
    if workload in ("catalog", "induction"):
        keys = CATALOG_INPUTS if workload == "catalog" else INDUCTION_CATALOG
        for key, rep in keys:
            out[f"{key}:{rep}"] = catalog_data(catalog, key, rep)
    if workload == "induction":
        for n in DIHEDRAL_NS:
            out[f"D{n}:std"] = dihedral(n)
    if workload == "tensor":
        for name, parts, _, _ in TENSOR_JOBS:
            data = None
            for part in parts:
                piece = catalog_data(catalog, *part.split(":"))
                data = piece if data is None else outer_product(data, piece)
            out[name] = data
    return out


def cli_jobs(workload, expected, timed=True):
    """``[(input_id, command)]`` for the timed (or untimed) CLI jobs of a
    workload, in order."""
    if not timed:
        return [(name, cmd) for name, _, cmd, t in TENSOR_JOBS
                if workload == "tensor" and not t]
    if workload == "catalog":
        return [(f"{k}:{r}", cmd) for k, r in CATALOG_INPUTS for cmd in COMMANDS
                if cmd in expected.get(f"{k}:{r}", {})]
    if workload == "induction":
        return ([(f"D{n}:std", "subalgebras") for n in DIHEDRAL_NS]
                + [(f"{k}:{r}", "subalgebras") for k, r in INDUCTION_CATALOG])
    if workload == "tensor":
        return [(name, cmd) for name, _, cmd, t in TENSOR_JOBS if t]
    return []


def _random_weights(types, rng, box):
    weights = [[int(c) for c in rng.integers(0, box, size=RANKS[t])] for t in types]
    if all(not any(w) for w in weights):
        weights[0][0] = 1
    return weights


def lie_jobs(workload, rng):
    """Lie job payloads: sweeps and power-set enumerations."""
    jobs = []
    if workload == "lie":
        jobs += [{"kind": "sweep", "system": s, "box": SWEEP_BOX}
                 for s in SWEEP_SYSTEMS]
        jobs += [{"kind": "etingof", "types": list(t),
                  "weights": _random_weights(t, rng, ETINGOF_BOX)}
                 for t in ETINGOF_PRODUCTS]
    if workload == "catalog":
        jobs += [{"kind": "lie_cli", "types": list(t),
                  "weights": _random_weights(t, rng, ETINGOF_BOX)}
                 for t in CATALOG_LIE_PRODUCTS]
    return jobs


def generate(workload, seed, catalog, expected, out_dir):
    """Write the workload's inputs for ``seed`` into ``out_dir``.

    Returns ``(jobs, untimed)``: each job a dict with ``id``, ``kind``,
    ``path`` and, for CLI jobs, ``cmd`` and ``input``.  Untimed jobs run once
    a run: tensor's d = 8 job and catalog's identity-label probes, which are
    ``subalgebras`` jobs whose input has the identity moved off label 0: one
    per non-identity conjugacy class, with a random element of the class at
    label 0, so that their number and outcome do not depend on the seed.
    """
    os.makedirs(out_dir, exist_ok=True)
    w = WORKLOADS.index(workload)

    def rng(*stream):
        return np.random.default_rng([seed, w, *stream])

    sources = input_sources(workload, catalog)
    written = {}
    for i, (input_id, data) in enumerate(sorted(sources.items())):
        path = os.path.join(out_dir, _file_name(input_id))
        write_json(path, to_wire(transform(data, rng(1, i)), input_id))
        written[input_id] = path
    jobs = [{"id": f"{input_id}/{cmd}", "kind": "cli", "cmd": cmd,
             "input": input_id, "path": written[input_id]}
            for input_id, cmd in cli_jobs(workload, expected)]
    for i, payload in enumerate(lie_jobs(workload, rng(2))):
        path = os.path.join(out_dir, f"lie_{i:02d}.json")
        write_json(path, payload)
        label = payload.get("system") or "x".join(payload["types"])
        jobs.append({"id": f"{payload['kind']}:{label}#{i}", "kind": payload["kind"],
                     "path": path})
    untimed = [{"id": f"{input_id}/{cmd}", "kind": "cli", "cmd": cmd,
                "input": input_id, "path": written[input_id]}
               for input_id, cmd in cli_jobs(workload, expected, timed=False)]
    if workload == "catalog":
        for i, (input_id, data) in enumerate(sorted(sources.items())):
            if "subalgebras" not in expected.get(input_id, {}):
                continue
            e = _identity_label(data.mult)
            classes = [c for c in conjugacy_classes(data.mult) if e not in c]
            for k, cls in enumerate(classes):
                r = rng(3, i, k)
                first = int(r.choice(cls))
                path = os.path.join(out_dir, f"probe{k}_" + _file_name(input_id))
                write_json(path, to_wire(transform(data, r, first), input_id))
                untimed.append({"id": f"{input_id}/subalgebras@class{k}",
                               "kind": "cli", "cmd": "subalgebras",
                               "input": input_id, "path": path})
    return jobs, untimed


def _file_name(input_id):
    return input_id.replace(":", "_") + ".json"


# -- answers -----------------------------------------------------------------

def summarize(cmd, payload):
    """The checked part of a CLI answer (bases are LAPACK-dependent)."""
    if cmd == "validate":
        return {"valid": bool(payload["valid"]),
                "irreducible": bool(payload.get("irreducible"))}
    if cmd == "ideals":
        if payload["infinite"]:
            return {"infinite": True}
        return {"infinite": False, "left": payload["counts"]["left"],
                "right": payload["counts"]["right"]}
    if cmd == "subalgebras":
        return {"count": payload["count"],
                "dims": sorted(s["dim"] for s in payload["subalgebras"]),
                "verification_ok": bool(payload["verification"]["ok"])}
    if cmd == "factor":
        return {"count": len(payload["factorizations"]),
                "ab": sorted([f["a"], f["b"]] for f in payload["factorizations"]),
                "residual_ok": all(f["residual"] < 1e-6
                                   for f in payload["factorizations"])}
    raise ValueError(f"unknown command {cmd}")


def certified(cmd, payload):
    """Completeness flag of a classification answer, or None for others."""
    if cmd == "subalgebras":
        return bool(payload["complete"])
    if cmd == "factor":
        return bool(payload["certified"])
    return None


def check_power_set(types, weights, factor_dims, count):
    """Power-set answer against 2^|I| + 1 and closed-form dimensions."""
    nonzero = sum(1 for w in weights if any(w))
    dims = [closed_form_dim(t, tuple(w)) for t, w in zip(types, weights)]
    return count == 2 ** nonzero + 1 and list(factor_dims) == dims
