"""Command-line front end.

Subcommands wire the library together over catalog keys (``catalog:S3:std``)
or JSON files carrying a group and a representation.  All output is JSON with
a schema marker, the tolerance echoed, and deterministic ordering, so
repeated runs are byte-identical.  Output is one line of compact JSON with
sorted keys (``python -m json.tool`` indents it).  Payloads keep matrices as
arrays, which the encoder turns into lists one at a time as it reaches them.
"""

import argparse
import functools
import json
import sys

import numpy as np

from . import catalog as cat
from ._linalg import RANK_TOL
from .algebras import center
from .classify import enumerate_invariant_subalgebras, verify_classification
from .errors import CapExceeded, InvalgError, NotARepresentation
from .factor import (central_simple_invariant_subalgebras, cocycle_consistency,
                     factor)
from .ideals import Parametrization, _ideal_lattice, invariant_subspaces
from .lie import HighestWeight, etingof_enumerate, parse_product_type
from .reps import check_law, is_irreducible, validate

SCHEMA = 1
TOL_CEILING = 1e-2


def _complex_json(arr):
    arr = np.asarray(arr, dtype=complex)
    return np.round(np.stack([arr.real, arr.imag], axis=-1), 12) + 0.0


def _dumps(payload):
    """One line of compact JSON with sorted keys.  A one-shot ``dumps`` runs
    the C encoder, and ``default`` lists each array or numpy scalar only when
    the encoder reaches it, so no tree of Python floats is built."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=lambda o: o.tolist()) + "\n"


def _base_payload(args):
    return {"schema": SCHEMA, "tol": args.tol}


def cmd_validate(args):
    group, rep = cat.load_input(args.input)
    payload = _base_payload(args)
    payload.update({
        "command": "validate",
        "input": args.input,
        "group_order": group.order,
        "dim": rep.dim,
        "projective": rep.is_projective,
    })
    try:
        report = validate(rep, tol=args.tol)
    except (NotARepresentation, ValueError) as exc:  # the law, or the cocycle's identity
        payload["valid"] = False
        payload["reason"] = str(exc)
        if getattr(exc, "worst_pair", None) is not None:
            payload["worst_pair"] = list(exc.worst_pair)
        return payload, 1
    payload["valid"] = True
    payload["max_deviation"] = float(report.max_deviation)
    payload["unitary_deviation"] = float(report.unitary_deviation)
    payload["irreducible"] = bool(is_irreducible(rep))
    return payload, 0


def _load_representation(args):
    """The input, after its law is certified on the generator pairs (exit 1
    with the failing pair otherwise)."""
    group, rep = cat.load_input(args.input)
    check_law(rep, tol=args.tol)
    return group, rep


def _subspace_json(sub):
    return {"dim": sub.dim, "ambient": sub.ambient,
            "basis_columns": _complex_json(sub.basis)}


def cmd_ideals(args):
    group, rep = _load_representation(args)
    payload = _base_payload(args)
    payload.update({"command": "ideals", "input": args.input, "dim": rep.dim})
    subs = invariant_subspaces(rep, tol=args.tol)
    if isinstance(subs, Parametrization):
        payload["infinite"] = True
        payload["parametrization"] = [
            {"irrep": lbl, "multiplicity": m, "dim": d}
            for lbl, m, d in subs.factors]
        return payload, 0
    payload["infinite"] = False
    payload["subspaces"] = [_subspace_json(s) for s in subs]
    out = {side: [{
        "side": ideal.side,
        "dim": ideal.dim,
        "source": _subspace_json(ideal.source),
        "basis": _complex_json(ideal.space.basis()),
    } for ideal in _ideal_lattice(subs, side, args.tol)] for side in ("left", "right")}
    payload["ideals"] = out
    payload["counts"] = {side: len(out[side]) for side in out}
    return payload, 0


def cmd_subalgebras(args):
    group, rep = _load_representation(args)
    payload = _base_payload(args)
    payload.update({"command": "subalgebras", "input": args.input,
                    "dim": rep.dim})
    subs, complete = enumerate_invariant_subalgebras(rep, tol=args.tol)
    report = verify_classification(subs, rep, tol=args.tol)
    items = []
    for s in subs:
        datum = s.induction_datum
        simple = s.num_components == 1
        items.append({
            "dim": s.space.dim,
            "component_dims": list(s.component_dims),
            "multiplicities": list(s.multiplicities),
            "unital": bool(s.unital),
            "simple": simple,
            "central_simple": bool(simple and center(s.space, args.tol).dim == 1),
            "basis": _complex_json(s.space.basis()),
            "datum": {
                "subgroup_order": datum.pair.subgroup.order,
                "subgroup_members": list(map(int, datum.pair.subgroup.members)),
                "w_dim": datum.pair.w_rep.dim,
                "quad": list(datum.quad) if datum.quad else None,
            },
        })
    payload["subalgebras"] = items
    payload["count"] = len(items)
    payload["complete"] = bool(complete)
    payload["verification"] = {"ok": report.ok,
                               "violations": list(report.violations)}
    return payload, 0


def cmd_factor(args):
    group, rep = _load_representation(args)
    payload = _base_payload(args)
    payload.update({"command": "factor", "input": args.input, "dim": rep.dim})
    if not is_irreducible(rep):
        raise ValueError("factorization expects an irreducible representation")
    cs_list, certified = central_simple_invariant_subalgebras(rep, tol=args.tol)
    items = []
    for sp, fact in zip(cs_list, factor(cs_list, rep, tol=args.tol)):
        items.append({
            "subalgebra_dim": sp.dim,
            "a": fact.a,
            "b": fact.b,
            "residual": float(round(fact.residual, 12)),
            "cocycle_deviation": float(round(cocycle_consistency(fact, rep), 12)),
            **{side: {"matrices": _complex_json(r.matrices), "projective": r.is_projective}
               for side, r in (("sigma", fact.sigma), ("tau", fact.tau))},
            "lambdas": _complex_json(fact.lambdas),
            "basis_change": _complex_json(fact.basis_change),
        })
    payload["certified"] = bool(certified)
    payload["factorizations"] = items
    return payload, 0


def cmd_lie(args):
    payload = {"schema": SCHEMA, "command": "lie", "type": args.type,
               "weights": args.weights}
    systems = parse_product_type(args.type)
    weight_lists = [json.loads(part) for part in args.weights.split(";")]
    if len(weight_lists) != len(systems):
        raise ValueError(
            f"{len(systems)} factors but {len(weight_lists)} weight lists")
    factors = [(s, HighestWeight(s, tuple(w)))
               for s, w in zip(systems, weight_lists)]
    cls = etingof_enumerate(factors)
    payload["factor_dims"] = list(cls.factor_dims)
    payload["nonzero_indices"] = list(cls.nonzero_indices)
    payload["count"] = cls.count
    payload["total_dim"] = cls.total_dim
    payload["entries"] = [{"subset": list(e.subset), "dim": e.dim,
                           "factor_dims": list(e.factor_dims)}
                          for e in cls.entries]
    payload["includes_zero_algebra"] = cls.includes_zero
    return payload, 0


def cmd_catalog(args):
    payload = {"schema": SCHEMA, "command": "catalog"}
    entries = []
    for key, entry in sorted(cat.catalog().items()):
        entries.append({
            "key": key,
            "order": entry.group.order,
            "note": entry.note,
            "reps": {name: {"dim": rep.dim,
                            "projective": rep.is_projective}
                     for name, rep in sorted(entry.reps.items())},
        })
    payload["entries"] = entries
    return payload, 0


def tolerance(text):
    """The ``--tol`` argument: a float in ``(0, TOL_CEILING)``, so that every
    ``tol * 100`` a check uses stays below one (a bound that passes anything)."""
    tol = float(text)
    if not 0 < tol < TOL_CEILING:  # NaN fails the comparison too
        raise argparse.ArgumentTypeError(f"must lie in (0, {TOL_CEILING:g}); got {text}")
    return tol


@functools.cache
def _parser():
    p = argparse.ArgumentParser(
        prog="invalg",
        description="invariant ideals and subalgebras of matrix algebras "
                    "under finite group actions")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("input", help="catalog:KEY:REP or a JSON file path")
        sp.add_argument("--tol", type=tolerance, default=RANK_TOL)
        sp.add_argument("--out", default=None,
                        help="write JSON here instead of stdout")

    sp = sub.add_parser("validate", help="check the representation axioms")
    add_common(sp)
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("ideals", help="invariant subspaces and one-sided ideals")
    add_common(sp)
    sp.set_defaults(func=cmd_ideals)

    sp = sub.add_parser("subalgebras", help="enumerate invariant subalgebras")
    add_common(sp)
    sp.set_defaults(func=cmd_subalgebras)

    sp = sub.add_parser("factor", help="dual pairs and tensor factorizations")
    add_common(sp)
    sp.set_defaults(func=cmd_factor)

    sp = sub.add_parser("lie", help="compact-group power-set classification")
    sp.add_argument("--type", required=True, help="product type, e.g. A1xA1")
    sp.add_argument("--weights", required=True,
                    help="semicolon-separated weight lists, e.g. \"[1];[1]\"")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_lie)

    sp = sub.add_parser("catalog", help="list built-in groups and reps")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_catalog)

    return p


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        payload, code = args.func(args)
    except CapExceeded as exc:
        print(f"limit exceeded: {exc}", file=sys.stderr)
        return 2
    except (InvalgError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    text = _dumps(payload)
    try:
        if getattr(args, "out", None):
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except OSError as exc:  # e.g. --out in a missing directory
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
