"""End-to-end acceptance gate.

Each criterion prints one [PASS]/[FAIL] line (collected again in the terminal
summary) and pins its own tolerance.  The expected counts are structural: they
are forced by the classification theory and double-checked here against the
independent subset-scan oracle.
"""

import itertools
import json

import numpy as np

from invalg import catalog
from invalg import (HighestWeight, MatrixSubspace, RootSystem, ann,
                    centralizer, central_simple_invariant_subalgebras,
                    cocycle_consistency, enumerate_invariant_subalgebras,
                    etingof_enumerate, extract_factorization, ideal_to_subspace,
                    invariant_ideals, invariant_subspaces, multfree_scan,
                    nonunital_scan, skolem_noether_lift, tensor_irreducible,
                    verify_classification, weyl_dim)
from invalg.cli import main as cli_main
from invalg.groups import product_index
from invalg._linalg import scalar_multiple_of_identity

SUBSPACE_TOL = 1e-6
FACTOR_TOL = 1e-6
LIFT_TOL = 1e-8

IRREDUCIBLE = [("S3", "std"), ("Q8", "std"), ("D4", "std"), ("A4", "std3"),
               ("S4", "std3"), ("SL23", "std"), ("S3xS3", "stdXstd")]

CRITERION_LINES = []


def _criterion(n, desc, ok):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {n}: {desc}"
    CRITERION_LINES.append(line)
    print(line)
    assert ok, line


def _conjugation_action(rep):
    """``X -> rho X rho^-1`` on row-major flattened matrices, per element."""
    return np.stack([np.kron(m, np.linalg.inv(m).T) for m in rep.matrices])


def _invariance_residual(space, rep):
    worst = 0.0
    for act in _conjugation_action(rep):
        for b in space.basis():
            moved = (act @ b.reshape(-1)).reshape(space.shape)
            worst = max(worst, np.linalg.norm(moved - space.project(moved)))
    return worst


def _same_space_sets(list_a, list_b, tol=SUBSPACE_TOL):
    if len(list_a) != len(list_b):
        return False
    used = set()
    for a in list_a:
        hit = next((j for j, b in enumerate(list_b)
                    if j not in used and a.equals(b, tol)), None)
        if hit is None:
            return False
        used.add(hit)
    return True


def test_criterion_1_s3_standard():
    _, rep = catalog.get("S3", "std")
    subs, complete = enumerate_invariant_subalgebras(rep)
    ok = len(subs) == 3 and complete
    ok = ok and [s.dim for s in subs] == [1, 2, 4]
    cartan = subs[1]
    datum = cartan.induction_datum
    ok = ok and list(cartan.component_dims) == [1, 1]
    ok = ok and datum is not None
    ok = ok and datum.pair.subgroup.order == 3  # the rotation subgroup C3
    ok = ok and datum.pair.w_rep.dim == 1       # a primitive character of it
    unital, _, certified = multfree_scan(rep)
    ok = ok and certified
    ok = ok and _same_space_sets([s.space for s in subs], unital)
    ok = ok and max(_invariance_residual(s.space, rep) for s in subs) < SUBSPACE_TOL
    _criterion(1, "S3 std: 3 subalgebras {1,2,4}, Cartan from the (C3, omega) "
                  "datum, oracle match", ok)


def test_criterion_2_q8_d4():
    ok = True
    for key in ("Q8", "D4"):
        _, rep = catalog.get(key, "std")
        subs, complete = enumerate_invariant_subalgebras(rep)
        ok = ok and complete and [s.dim for s in subs] == [1, 2, 2, 2, 4]
        cartans = [s for s in subs if s.dim == 2]
        for i, a in enumerate(cartans):
            # self-dual under the centralizer map
            ok = ok and centralizer(a.space).equals(a.space, SUBSPACE_TOL)
            for b in cartans[i + 1:]:
                ok = ok and not a.space.equals(b.space, SUBSPACE_TOL)
        unital, _, certified = multfree_scan(rep)
        ok = ok and certified
        ok = ok and _same_space_sets([s.space for s in subs], unital)
    _criterion(2, "Q8 and D4: 5 subalgebras {1,2,2,2,4}, three distinct "
                  "self-dual Cartans", ok)


def test_criterion_3_sl23_primitive():
    _, rep = catalog.get("SL23", "std")
    subs, complete = enumerate_invariant_subalgebras(rep)
    ok = complete and [s.dim for s in subs] == [1, 4]
    ok = ok and subs[0].space.equals(MatrixSubspace.identity_line(2), SUBSPACE_TOL)
    ok = ok and subs[1].space.equals(MatrixSubspace.full((2, 2)), SUBSPACE_TOL)
    nonunital, _ = nonunital_scan(rep)
    ok = ok and len(nonunital) == 1 and nonunital[0].dim == 0
    _criterion(3, "SL(2,3): primitive, only scalars and M2; nonunital scan "
                  "finds just {0}", ok)


def test_criterion_4_s3xs3_dual_pair():
    _, rep = catalog.get("S3xS3", "stdXstd")
    subs, complete = enumerate_invariant_subalgebras(rep)
    cs, cs_certified = central_simple_invariant_subalgebras(rep)
    proper = [s for s in cs if 1 < s.dim < 16]
    ok = complete and cs_certified and len(proper) == 4
    found_pair = False
    for b in proper:
        z = centralizer(b)
        if b.dim == 4 and z.dim == 4:
            in_list = (any(b.equals(s.space, SUBSPACE_TOL) for s in subs)
                       and any(z.equals(s.space, SUBSPACE_TOL) for s in subs))
            found_pair = found_pair or in_list
    ok = ok and found_pair
    mats = rep.matrices
    for b in proper:
        fact = extract_factorization(b, rep)
        ok = ok and fact.residual < FACTOR_TOL
        t = fact.basis_change
        tinv = np.linalg.inv(t)
        for g in range(36):
            lhs = tinv @ mats[g] @ t
            rhs = fact.lambdas[g] * np.kron(fact.sigma.matrices[g],
                                            fact.tau.matrices[g])
            ok = ok and np.linalg.norm(lhs - rhs) < FACTOR_TOL
        ok = ok and cocycle_consistency(fact, rep) < FACTOR_TOL
    unital, _, certified = multfree_scan(rep)
    ok = ok and certified and len(unital) == 13
    ok = ok and _same_space_sets([s.space for s in subs], unital)
    _criterion(4, "S3xS3: (4,4) dual pair, all 36 elements factor with "
                  "residual < 1e-6, certified 13-entry oracle match", ok)


def test_criterion_5_ideal_lattice():
    _, rep = catalog.get("S3", "trivPlusSign")
    left = invariant_ideals(rep, "left")
    right = invariant_ideals(rep, "right")
    ok = len(left) == 4 and len(right) == 4
    spaces = invariant_subspaces(rep)
    for l in spaces:
        ok = ok and ideal_to_subspace(ann(l)).equals(l, SUBSPACE_TOL)
    for l1 in spaces:
        for l2 in spaces:
            if l2.contains(l1, SUBSPACE_TOL):  # l1 <= l2, so ann reverses
                ok = ok and ann(l1).space.contains_space(ann(l2).space,
                                                         SUBSPACE_TOL)
    for rep_name, m in [("std", 1), ("trivPlusSign", 2),
                        ("trivPlusSignPlusStd", 3)]:
        _, r = catalog.get("S3", rep_name)
        ok = ok and len(invariant_ideals(r, "left")) == 2 ** m
        ok = ok and len(invariant_ideals(r, "right")) == 2 ** m
    _criterion(5, "ideal lattice: 4+4 for triv+sign, ann round trip and "
                  "order reversal, 2^m law for m=1,2,3", ok)


def test_criterion_6_structural_suite():
    ok = True
    for key, rep_name in IRREDUCIBLE:
        _, rep = catalog.get(key, rep_name)
        subs, _ = enumerate_invariant_subalgebras(rep)
        report = verify_classification(subs, rep)
        ok = ok and report.ok and report.violations == []
        ok = ok and report.checked == len(subs)
    _criterion(6, "structural suite (semisimple, symmetric embedding, "
                  "Z(Z(B))=B, transitivity, [G:H]=blocks) clean on all "
                  "catalog inputs", ok)


def test_criterion_7_skolem_noether():
    ok = True
    for key, rep_name in IRREDUCIBLE:
        g, rep = catalog.get(key, rep_name)
        action = _conjugation_action(rep)
        lifted = skolem_noether_lift(g, action)
        inv = np.linalg.inv(lifted.matrices)
        for x in g.elements():
            ok = ok and np.linalg.norm(np.kron(lifted.matrices[x], inv[x].T)
                                       - action[x]) < LIFT_TOL
            _, scalar = scalar_multiple_of_identity(
                lifted.matrices[x] @ np.linalg.inv(rep.matrices[x]))
            ok = ok and bool(scalar)
    g, rep = catalog.get("C2xC2", "pauli")
    lifted = skolem_noether_lift(g, _conjugation_action(rep))
    mx = lifted.matrices[product_index(2, 1, 0)]
    mz = lifted.matrices[product_index(2, 0, 1)]
    comm, scalar = scalar_multiple_of_identity(mx @ mz @ np.linalg.inv(mx)
                                               @ np.linalg.inv(mz))
    ok = ok and bool(scalar) and abs(comm - (-1.0)) < LIFT_TOL
    _criterion(7, "Skolem-Noether lifts reproduce every conjugation action "
                  "(residual < 1e-8); Pauli commutator is -1", ok)


def test_criterion_8_lie_module():
    a1 = RootSystem.from_name("A1")
    ok = all(weyl_dim(HighestWeight(a1, (m,))) == m + 1 for m in range(51))
    a2 = RootSystem.from_name("A2")
    ok = ok and weyl_dim(HighestWeight(a2, (1, 1))) == 8
    ok = ok and weyl_dim(HighestWeight(a2, (2, 0))) == 6
    names = (["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4",
              "D3", "D4", "G2"])
    for name in names:
        rs = RootSystem.from_name(name)
        weights = [HighestWeight(rs, c)
                   for c in itertools.product(range(4), repeat=rs.rank)]
        for lam in weights:
            for mu in weights:
                if tensor_irreducible(lam, mu) != (lam.is_zero or mu.is_zero):
                    ok = False
                    break
    w = HighestWeight(a1, (1,))
    cls = etingof_enumerate([(a1, w), (a1, w)])
    ok = ok and len(cls.entries) == 4 and cls.count == 5
    _criterion(8, "Lie: Weyl dims exact, tensor irreducibility iff a trivial "
                  "factor (rank <= 4 sweep), A1xA1 power-set count 5", ok)


def test_criterion_9_cli_determinism(tmp_path):
    commands = [
        ["validate", "catalog:S3:std"],
        ["ideals", "catalog:S3:trivPlusSign"],
        ["ideals", "catalog:S3:regular"],
        ["subalgebras", "catalog:Q8:std"],
        ["subalgebras", "catalog:S3xS3:stdXstd"],
        ["factor", "catalog:S3xS3:stdXstd"],
        ["factor", "catalog:C2xC2:pauli"],
        ["lie", "--type", "A1xA1", "--weights", "[1];[1]"],
        ["catalog"],
    ]
    ok = True
    for i, args in enumerate(commands):
        out_a = tmp_path / f"{i}a.json"
        out_b = tmp_path / f"{i}b.json"
        code_a = cli_main(args + ["--out", str(out_a)])
        code_b = cli_main(args + ["--out", str(out_b)])
        ok = ok and code_a == 0 and code_b == 0
        ok = ok and out_a.read_bytes() == out_b.read_bytes()
        json.loads(out_a.read_text())  # well-formed
    _criterion(9, "every CLI command is byte-identical across reruns", ok)
