"""Invariant ideals and subalgebras of matrix algebras under group actions.

The core objects are a finite group G acting irreducibly on a complex vector
space V: the library computes the lattice of G-invariant one-sided ideals of
End(V), enumerates the G-invariant subalgebras through induction data
(subgroup, constituent, central simple seed), recovers tensor factorizations
from dual pairs, and specializes the classification to compact connected Lie
groups via exact Weyl dimension arithmetic.
"""

from .errors import (AssertionFailure, BlocksNotDirect, CapExceeded,
                     FactorRecoveryFailure, InfiniteLattice, InvalgError,
                     MatchFailure, NonIntegerDimension, NotAGroup,
                     NotAnAutomorphism, NotAnIdeal, NotARepresentation,
                     NotCentralSimple, NotSemisimple, RoundingAmbiguous,
                     ToleranceFailure)
from .groups import (FiniteGroup, Subgroup, Transversal, all_subgroups,
                     are_conjugate_subgroups, build_from_mult_table,
                     build_from_permutations, conjugacy_classes,
                     direct_product, left_transversal, subgroups_of_index_dividing)
from .reps import (Representation, TwoCocycle, character, character_table,
                   check_law, commutant_decomposition, conjugation_decomposition,
                   equivariant_hom_space, induce, induced_character, inner_product,
                   is_induced_from, is_irreducible, restrict,
                   skolem_noether_lift, unitarize, validate)
from .spaces import MatrixSubspace, generated_algebra, span_product
from .algebras import (InvariantSubalgebra, center, centralizer,
                       central_primitive_idempotents,
                       double_centralizer_check, inertia_subgroup,
                       is_invariant, is_symmetrically_embedded,
                       permutation_action, semisimplicity_certificate,
                       wedderburn_decompose, z0)
from .ideals import (OneSidedIdeal, Parametrization, SubspaceOfV, ann, coann,
                     hom_lattice, ideal_to_subspace, invariant_ideals,
                     invariant_subspaces, semisimple_ideal_lattice)
from .classify import (InductionDatum, InductionPair,
                       enumerate_invariant_subalgebras, induction_pairs,
                       nonunital_scan, theta, theta_lattice_check,
                       theta_transitivity_check, verify_classification)
from .factor import (DualPairFactorization,
                     central_simple_invariant_subalgebras,
                     cocycle_consistency, extract_factorization,
                     multfree_scan)
from .lie import (HighestWeight, RootSystem, etingof_enumerate,
                  tensor_irreducible, weyl_dim)

__version__ = "0.1.0"
