"""Recover tensor factorizations rho = lambda . sigma (x) tau from dual pairs.

On the 4-dim outer tensor representation of S3 x S3 the enumeration contains
central simple subalgebras B with central simple centralizer Z; each such dual
pair (B, Z) splits the space as C^a (x) C^b and the group action factors into
two projective representations, up to scalars lambda_g.
"""

import numpy as np

from invalg import (catalog, central_simple_invariant_subalgebras,
                    cocycle_consistency, extract_factorization)
from invalg.factor import factor

group, rep = catalog.get("S3xS3", "stdXstd")
print(f"group of order {group.order}, dim V = {rep.dim}")

cs, certified = central_simple_invariant_subalgebras(rep, seed=0)
print(f"central simple invariant subalgebras (certified={certified}):",
      [s.dim for s in cs])

# one extraction per dual pair: the partner's factorization is the same
# splitting with the two sides exchanged
facts = factor(cs, rep, seed=0)
for i, (b_space, fact) in enumerate(zip(cs, facts)):
    partner = next(j for j, z in enumerate(cs) if z is fact.z_space)
    if b_space.dim in (1, 16) or partner < i:
        continue  # scalars and the full algebra factor trivially; each pair once
    other = facts[partner]
    print(f"\ndual pair: dim B = {b_space.dim}, dim Z = {other.b_space.dim}, "
          f"product = {b_space.dim * other.b_space.dim} = (dim V)^2")
    print(f"  split {rep.dim} = {fact.a} x {fact.b} along B, "
          f"{other.a} x {other.b} along Z")
    print(f"  max residual |rho'(g) - lambda_g sigma(g) (x) tau(g)| = {fact.residual:.3e}")
    print(f"  cocycle consistency deviation = {cocycle_consistency(fact, rep):.3e}")

    # spot check one element end to end, from both sides
    g = 7
    for side, f in (("B", fact), ("Z", other)):
        t = f.basis_change
        lhs = np.linalg.inv(t) @ rep.matrices[g] @ t
        rhs = f.lambdas[g] * np.kron(f.sigma.matrices[g], f.tau.matrices[g])
        print(f"  element {g} along {side}: |lhs - rhs| = {np.linalg.norm(lhs - rhs):.3e}")

# a genuinely projective example: the Pauli action of the Klein four-group
print("\n=== C2xC2 Pauli matrices ===")
_, pauli = catalog.get("C2xC2", "pauli")
from invalg import MatrixSubspace
fact = extract_factorization(MatrixSubspace.identity_line(2), pauli, seed=0)
print(f"split 2 = {fact.a} x {fact.b}; residual {fact.residual:.3e}; "
      f"tau projective: {fact.tau.cocycle is not None}")
