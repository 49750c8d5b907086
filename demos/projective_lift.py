"""Lift an automorphism action on M_d back to a (projective) representation.

Any group action by algebra automorphisms of M_d is inner, so each g acts as
conjugation by some matrix rho(g), unique up to a scalar.  The lift recovers
these matrices with a deterministic normalization and reads off the 2-cocycle
alpha(g, h) from rho(g) rho(h) rho(gh)^-1.
"""

import numpy as np

from invalg import catalog, skolem_noether_lift, validate
from invalg.groups import product_index


def conjugation_action(rep):
    """``X -> rho(g) X rho(g)^-1`` on row-major flattened matrices: the
    (n, d^2, d^2) stack ``rho(g) kron rho(g)^-T``."""
    return np.stack([np.kron(m, np.linalg.inv(m).T) for m in rep.matrices])


# linear case: the conjugation action of the S3 standard rep
group, rep = catalog.get("S3", "std")
action = conjugation_action(rep)
lifted = skolem_noether_lift(group, action)
worst = 0.0
inv = np.linalg.inv(lifted.matrices)
for x in group.elements():
    worst = max(worst, np.linalg.norm(np.kron(lifted.matrices[x], inv[x].T)
                                      - action[x]))
print(f"S3 std: lift reproduces the action, max residual {worst:.3e}")
print(f"  projective: {lifted.is_projective}")

# projective case: sigma_x^a sigma_z^b only defines a rep of C2 x C2 up to sign
group, pauli = catalog.get("C2xC2", "pauli")
action = conjugation_action(pauli)
lifted = skolem_noether_lift(group, action)
print(f"\nC2xC2 Pauli: projective = {lifted.is_projective}")
report = validate(lifted)
print(f"  cocycle law holds with deviation {report.max_deviation:.3e}")

x = product_index(2, 1, 0)  # sigma_x
z = product_index(2, 0, 1)  # sigma_z
mx, mz = lifted.matrices[x], lifted.matrices[z]
comm = mx @ mz @ np.linalg.inv(mx) @ np.linalg.inv(mz)
print(f"  commutator rho(x) rho(z) rho(x)^-1 rho(z)^-1 =\n{np.round(comm, 12)}")
print("  scalar -1: the action admits no honest linear lift")
