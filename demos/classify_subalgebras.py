"""Enumerate the invariant unital subalgebras of End(V) for catalog inputs.

Every such subalgebra arises from an induction datum: a subgroup H whose
constituent W induces V, together with an invariant subalgebra C of End(W).
The block-diagonal image of Ind(C) is the subalgebra; the construction below
recovers the full list and cross-checks it against a scan of the sums of
isotypic components.
"""

import numpy as np

from invalg import (catalog, centralizer,
                    enumerate_invariant_subalgebras, induction_pairs,
                    multfree_scan, verify_classification)

for key, rep_name in [("S3", "std"), ("Q8", "std"), ("A4", "std3"),
                      ("SL23", "std")]:
    group, rep = catalog.get(key, rep_name)
    print(f"=== {key}:{rep_name}  (|G| = {group.order}, dim V = {rep.dim}) ===")

    pairs = induction_pairs(rep, seed=0)
    print("induction pairs (|H|, dim W):",
          [(p.subgroup.order, p.w_rep.dim) for p in pairs])

    subs, complete = enumerate_invariant_subalgebras(rep, seed=0)
    for s in subs:
        datum = s.induction_datum
        origin = "ambient"
        if datum is not None:
            origin = f"|H| = {datum.pair.subgroup.order}, dim W = {datum.pair.w_rep.dim}"
        blocks = "+".join(f"M{k}" for k in s.component_dims)
        print(f"  dim {s.dim:2}  = {blocks:12}  mult {tuple(s.multiplicities)}  from {origin}")
    print(f"classification complete: {complete}")

    # independent route: try every sum of isotypic components of the
    # conjugation action for product closure
    unital, nonunital, certified = multfree_scan(rep, seed=0)
    match = len(unital) == len(subs) and all(
        any(u.equals(s.space) for s in subs) for u in unital)
    print(f"subset scan: {len(unital)} unital (certified={certified}), "
          f"match={match}")

    report = verify_classification(subs, rep, seed=0)
    print(f"structural checks: ok={report.ok} over {report.checked} entries\n")

# the three Cartans of Q8 are distinct but each is its own centralizer
_, q8 = catalog.get("Q8", "std")
subs, _ = enumerate_invariant_subalgebras(q8, seed=0)
cartans = [s.space for s in subs if s.dim == 2]
print("Q8 Cartans: pairwise distinct =",
      all(not a.equals(b) for i, a in enumerate(cartans) for b in cartans[i + 1:]),
      "| self-dual =", all(centralizer(c).equals(c) for c in cartans))
