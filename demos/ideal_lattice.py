"""Walk the invariant one-sided ideal lattice of End(V) for V = triv + sign.

The action of S3 on V has two one-dimensional isotypic components, so the
invariant subspaces of V form a 2^2 lattice, and every invariant left ideal of
End(V) is the annihilator of exactly one of them (right ideals use the image
map instead).  The lattice is read off the commutant End_G(V), which does not
see a cocycle, so a projective V takes the same route: the demo ends with
(triv + sign) x Pauli, a projective representation of S3 x C2 x C2.
"""

import numpy as np

from invalg import (Representation, TwoCocycle, ann, catalog, coann, direct_product,
                    ideal_to_subspace, invariant_ideals, invariant_subspaces)

group, rep = catalog.get("S3", "trivPlusSign")
print(f"group {group.name} of order {group.order}, rep of dim {rep.dim}\n")

spaces = invariant_subspaces(rep)
print("invariant subspaces of V:")
for s in spaces:
    print(f"  dim {s.dim}  label {s.label!r}")

print("\nleft ideals (annihilators) and right ideals (coannihilators):")
for s in spaces:
    left = ann(s)
    right = coann(s)
    print(f"  L = {s.label!r:14}  dim ann = {left.space.dim}   dim coann = {right.space.dim}"
          f"   (sum = {left.space.dim + right.space.dim} = d^2)")
    left.verify()
    right.verify()
    # the subspace is recoverable from either ideal
    if not (ideal_to_subspace(left).equals(s) and ideal_to_subspace(right).equals(s)):
        raise RuntimeError(f"subspace {s.label!r} is not recovered from its ideals")

lattice_l = invariant_ideals(rep, "left")
lattice_r = invariant_ideals(rep, "right")
print(f"\ntotal: {len(lattice_l)} left and {len(lattice_r)} right ideals "
      f"(2^m for m = 2 isotypic components)")

# order reversal: bigger subspace, smaller annihilator
chain = sorted(spaces, key=lambda s: s.dim)
for small, big in zip(chain, chain[1:]):
    if big.contains(small) and not ann(small).space.contains_space(ann(big).space):
        raise RuntimeError(f"annihilators of {small.label!r} and {big.label!r} not reversed")
print("order reversal verified along the lattice chain")

# a representation with a repeated constituent has no finite lattice
_, reg = catalog.get("S3", "regular")
param = invariant_subspaces(reg)
print(f"\nregular rep instead: infinite lattice, parametrized as {param}")
for lbl, m, block in param.factors:
    print(f"  {lbl}: multiplicity {m}, isotypic block of dim {block}")

# a reducible projective V: the outer tensor product (triv + sign) x Pauli
k4, pauli = catalog.get("C2xC2", "pauli")
prod = direct_product(group, k4)
mats = np.stack([np.kron(x, y) for x in rep.matrices for y in pauli.matrices])
proj = Representation(group=prod, dim=4, matrices=mats,
                      cocycle=TwoCocycle(prod, np.kron(np.ones((6, 6)), pauli.cocycle.values)))
proj_spaces = invariant_subspaces(proj)
if not all(s.is_invariant(proj) for s in proj_spaces):
    raise RuntimeError("a subspace of the projective lattice is not invariant")
print(f"\n(triv + sign) x Pauli, projective of dim {proj.dim}: invariant subspaces of dims "
      f"{[s.dim for s in proj_spaces]}, {len(invariant_ideals(proj, 'left'))} left and "
      f"{len(invariant_ideals(proj, 'right'))} right ideals")
