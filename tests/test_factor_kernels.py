"""The factorization layer's stacked kernels against the loops they replace.

Each test keeps the earlier per-element or per-pair loop as an oracle.  The
split, the normalization and ``validate`` do the same arithmetic as their
loops, so their results must be bit-identical; only the residual of the split
is summed in another order.  The cocycle recovery reads the generator pairs
only, so its table matches the per-row loop's within 1e-10.
"""

import re
import tracemalloc

import numpy as np
import pytest

import invalg.factor
import invalg.reps
from invalg import (FactorRecoveryFailure, NotARepresentation, Representation,
                    TwoCocycle, catalog, central_simple_invariant_subalgebras,
                    direct_product, extract_factorization, multfree_scan,
                    validate)
from invalg._linalg import kron_stack, row_norms, scalar_multiple_of_identity
from invalg.algebras import center, centralizer, semisimplicity_certificate
from invalg.errors import AssertionFailure, ToleranceFailure
from invalg.reps import _as_projective_rep, _normalize_projective

FACTOR_INPUTS = [("S3", "std"), ("Q8", "std"), ("D4", "std"), ("A4", "std3"),
                 ("S4", "std3"), ("SL23", "std"), ("S3xS3", "stdXstd"),
                 ("C2xC2", "pauli")]
TENSOR_INPUTS = {"S3xPauli": ("S3:std", "C2xC2:pauli"),
                 "Q8xS3": ("Q8:std", "S3:std")}
# the split's residual is summed in another order than the loop's norm
VALUE_TOL = 1e-12


def _outer(*parts):
    """Outer tensor product of catalog reps over the direct product."""
    group, mats, alpha = None, None, None
    for part in parts:
        g, rep = catalog.get(*part.split(":"))
        a = rep.cocycle.values if rep.cocycle is not None else np.ones((g.order,) * 2)
        if group is None:
            group, mats, alpha = g, rep.matrices, a
            continue
        group = direct_product(group, g)
        mats = np.stack([np.kron(x, y) for x in mats for y in rep.matrices])
        alpha = np.kron(alpha, a)
    cocycle = None if np.all(alpha == 1) else TwoCocycle(group, alpha)
    return Representation(group=group, dim=mats.shape[1], matrices=mats,
                          cocycle=cocycle)


def _input(name):
    if name in TENSOR_INPUTS:
        return _outer(*TENSOR_INPUTS[name])
    return catalog.get(*name.split(":"))[1]


ALL_INPUTS = [f"{k}:{r}" for k, r in FACTOR_INPUTS] + sorted(TENSOR_INPUTS)


# -- the per-element split ---------------------------------------------------------

def _normalize_one(m):
    """The per-matrix normalization the stacked one replaced."""
    k = m.shape[0]
    det = np.linalg.det(m)
    if abs(det) < 1e-12:
        raise FactorRecoveryFailure("recovered projective matrix is singular")
    m = m / abs(det) ** (1.0 / k)
    flat = np.abs(m).reshape(-1)
    pos = int(np.argmax(np.round(flat, 10)))
    entry = m.reshape(-1)[pos]
    return m * (entry.conjugate() / abs(entry))


def _split_loop(rho, a, b, tol=1e-8):
    """sigma, tau, lambda and residual, one element at a time."""
    n = len(rho)
    sig = np.zeros((n, a, a), dtype=complex)
    tau = np.zeros((n, b, b), dtype=complex)
    lam = np.zeros(n, dtype=complex)
    residual = 0.0
    for g in range(n):
        r = rho[g].reshape(a, b, a, b).transpose(0, 2, 1, 3).reshape(a * a, b * b)
        u_, s_, vh_ = np.linalg.svd(r)
        if s_[0] < tol:
            raise FactorRecoveryFailure(f"element {g} transforms to zero")
        if min(a, b) > 1 and s_[1] > 1e-6 * s_[0]:
            raise FactorRecoveryFailure(
                f"element {g} is not rank one in the product basis "
                f"(second singular value {s_[1]:.3g})")
        scale = np.sqrt(s_[0])
        sig[g] = _normalize_one((scale * u_[:, 0]).reshape(a, a))
        tau[g] = _normalize_one((scale * vh_[0]).reshape(b, b))
        kr = np.kron(sig[g], tau[g])
        lam[g] = np.vdot(kr.reshape(-1), rho[g].reshape(-1)) / np.vdot(
            kr.reshape(-1), kr.reshape(-1))
        residual = max(residual, float(np.linalg.norm(rho[g] - lam[g] * kr)))
    return sig, tau, lam, residual


def _snap_identity(mats, e):
    """``_as_projective_rep`` sets rho(1) to exactly I when it is that close."""
    mats = mats.copy()
    if np.linalg.norm(mats[e] - np.eye(mats.shape[1])) < 1e-8:
        mats[e] = np.eye(mats.shape[1])
    return mats


@pytest.fixture(scope="module")
def central_simple():
    """``{input: (rep, central simple list)}`` over every factor input."""
    out = {}
    for name in ALL_INPUTS:
        rep = _input(name)
        out[name] = (rep, central_simple_invariant_subalgebras(rep)[0])
    return out


@pytest.mark.parametrize("name", ALL_INPUTS)
def test_split_matches_the_element_loop(name, central_simple):
    rep, subs = central_simple[name]
    e = rep.group.identity
    for sp in subs:
        fact = extract_factorization(sp, rep)
        s_mat = fact.basis_change
        rho = np.einsum("ij,gjk,kl->gil", np.linalg.inv(s_mat), rep.matrices, s_mat)
        sig, tau, lam, residual = _split_loop(rho, fact.a, fact.b)
        assert np.array_equal(fact.sigma.matrices, _snap_identity(sig, e))
        assert np.array_equal(fact.tau.matrices, _snap_identity(tau, e))
        assert np.array_equal(fact.lambdas, lam)
        assert abs(fact.residual - residual) <= VALUE_TOL


def test_normalize_projective_matches_per_matrix_calls():
    rng = np.random.default_rng(41)
    for k in (1, 2, 3, 4, 8):
        for scale in (0.3, 1.0, 7.5):
            stack = scale * (rng.standard_normal((9, k, k))
                             + 1j * rng.standard_normal((9, k, k)))
            want = np.stack([_normalize_one(m) for m in stack])
            assert np.array_equal(_normalize_projective(stack.copy()), want)
    assert _normalize_projective(np.zeros((0, 2, 2), dtype=complex)).shape == (0, 2, 2)
    for bad in (np.ones((2, 2)), np.zeros((2, 2))):
        singular = np.stack([np.eye(2), bad]).astype(complex)
        with pytest.raises(FactorRecoveryFailure, match="singular"):
            _normalize_projective(singular)


# -- the first failing element ---------------------------------------------------

def _corrupted(rep, changes):
    mats = np.array(rep.matrices)
    for g, m in changes.items():
        mats[g] = m
    return Representation(group=rep.group, dim=rep.dim, matrices=mats,
                          cocycle=rep.cocycle)


@pytest.mark.parametrize("first,later", [("zero", "generic"), ("generic", "zero"),
                                         ("zero", "zero"), ("generic", "generic")])
def test_split_names_the_first_failing_element(first, later, central_simple):
    rep, subs = central_simple["S3xS3:stdXstd"]
    sp = next(s for s in subs if s.dim == 4)
    rng = np.random.default_rng(3)

    def bad(kind):
        if kind == "zero":
            return np.zeros((4, 4))
        return rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))

    broken = _corrupted(rep, {7: bad(first), 23: bad(later)})
    want = "transforms to zero" if first == "zero" else "is not rank one"
    with pytest.raises(FactorRecoveryFailure, match=rf"^element 7 {want}"):
        extract_factorization(sp, broken)
    s_mat = extract_factorization(sp, rep).basis_change
    rho = np.einsum("ij,gjk,kl->gil", np.linalg.inv(s_mat), broken.matrices, s_mat)
    with pytest.raises(FactorRecoveryFailure) as loop_exc:
        _split_loop(rho, 2, 2)
    with pytest.raises(FactorRecoveryFailure) as exc:
        extract_factorization(sp, broken)
    assert str(exc.value) == str(loop_exc.value)


# -- (g, h) pairs in row blocks ----------------------------------------------------

def _validate_loop(rep):
    """``(max_deviation, worst_pair)`` of the per-row validate loop."""
    g, mats = rep.group, np.asarray(rep.matrices, dtype=complex)
    n = g.order
    worst = (g.identity, g.identity)
    worst_dev = float(np.linalg.norm(mats[g.identity] - np.eye(rep.dim)))
    for a in range(n):
        target = mats[g.mult[a]]
        if rep.cocycle is not None:
            target = target * rep.cocycle.values[a][:, None, None]
        devs = np.linalg.norm((mats[a] @ mats - target).reshape(n, -1), axis=1)
        b = int(np.argmax(devs))
        if devs[b] > worst_dev:
            worst_dev, worst = float(devs[b]), (a, b)
    return worst_dev, worst


def _cocycle_loop(group, mats):
    """The per-row cocycle recovery: the table, or the first failing pair."""
    n = group.order
    inv_mats = np.linalg.inv(mats)
    vals = np.ones((n, n), dtype=complex)
    for g in range(n):
        c, ok = scalar_multiple_of_identity(
            mats[g] @ mats @ inv_mats[group.mult[g]], tol=1e-6)
        if not ok.all():
            return (g, int(np.argmin(ok)))
        vals[g] = c
    vals[group.identity, :] = 1.0
    vals[:, group.identity] = 1.0
    return vals


@pytest.fixture(scope="module")
def pauli3():
    return _outer("C2xC2:pauli", "C2xC2:pauli", "C2xC2:pauli")


@pytest.mark.parametrize("block", [None, 1, 3 * 64 * 64])
def test_validate_and_cocycle_recovery_match_the_row_loops(block, pauli3, monkeypatch):
    """Pauli^3 (n = 64, d = 8) spans four blocks of 16 rows; smaller blocks too.
    ``validate`` keeps every pair; the recovery reads the generator pairs,
    matches the row loop's table within 1e-10, and where the loop finds a
    non-scalar pair it names a non-scalar generator pair."""
    if block is not None:
        monkeypatch.setattr(invalg.reps, "_PAIR_BLOCK", block)
    group = pauli3.group
    assert len(invalg.reps._pair_blocks(group.order, group.order * 64)) > 1
    report = validate(pauli3)
    assert (report.max_deviation, report.worst_pair) == _validate_loop(pauli3)
    rep = _as_projective_rep(group, pauli3.matrices.copy(), None)
    assert np.max(np.abs(rep.cocycle.values - _cocycle_loop(group, pauli3.matrices))) <= 1e-10
    for g in (5, 40):
        mats = np.array(pauli3.matrices)
        mats[g] = mats[g] @ np.diag(np.arange(1.0, 9.0))
        assert isinstance(_cocycle_loop(group, mats), tuple)
        with pytest.raises(ToleranceFailure, match=r"not scalar at \(\d+, \d+\)$") as exc:
            _as_projective_rep(group, mats, None)
        assert int(re.search(r", (\d+)\)$", str(exc.value)).group(1)) in group.generators


@pytest.mark.parametrize("block", [None, 1, 5 * 24 * 16])
def test_validate_names_the_worst_pair_of_a_corrupted_projective_rep(block, monkeypatch):
    if block is not None:
        monkeypatch.setattr(invalg.reps, "_PAIR_BLOCK", block)
    rep = _outer("S3:std", "C2xC2:pauli")
    for g, bump in ((3, 0.01), (17, 0.5)):
        broken = _corrupted(rep, {g: rep.matrices[g] + bump * np.eye(4)[::-1]})
        want_dev, want_pair = _validate_loop(broken)
        with pytest.raises(NotARepresentation) as exc:
            validate(broken)
        assert exc.value.worst_pair == want_pair
        assert exc.value.deviation == want_dev


def test_cocycle_identity_is_checked_in_row_blocks():
    """Order 128: the identity needs n^2 |S| products over the generators S,
    held in row blocks, never an n^2 |S| table (let alone an n^3 one)."""
    rep = _outer("D4:std", "C2xC2:pauli", "C2xC2:pauli")
    cocycle, n, gens = rep.cocycle, rep.group.order, rep.group.generators
    assert n == 128 and len(gens) == 6
    tracemalloc.start()
    try:
        dev = cocycle.validate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dev == 0.0
    assert peak < 2 * 16 * n * n * len(gens)
    bad = np.array(cocycle.values)
    bad[5, 9] *= -1
    with pytest.raises(ValueError, match="cocycle identity fails by 2$"):
        TwoCocycle(rep.group, bad).validate()


# -- the central simple filter -----------------------------------------------------

def _central_simple_loop(w_rep):
    """Center test on every unital sum, pairwise closure under centralizers."""
    unital, _, _ = multfree_scan(w_rep)
    out = [sp for sp in unital if semisimplicity_certificate(sp, 1e-8)[1] is None
           and center(sp, 1e-8).dim == 1]
    i = 0
    while i < len(out):
        z = centralizer(out[i], 1e-8)
        if not any(z.equals(sp) for sp in out):
            out.append(z)
        i += 1
    return sorted(out, key=lambda s: (s.dim, s.fingerprint()))


@pytest.mark.parametrize("name", ALL_INPUTS)
def test_dimension_filter_keeps_the_center_test_list(name, central_simple):
    rep, subs = central_simple[name]
    want = _central_simple_loop(rep)
    assert [s.fingerprint() for s in subs] == [s.fingerprint() for s in want]
    assert all(np.array_equal(s.flat, t.flat) for s, t in zip(subs, want))


def test_closure_appends_a_missing_centralizer(monkeypatch):
    """Only the scalars survive the filter.  An uncertified scan's closure
    adds End(W) back; a certified scan's list is complete, so no centralizer
    is solved and the missing algebra is reported."""
    _, rep = catalog.get("S3", "std")
    monkeypatch.setattr(invalg.factor, "center",
                        lambda sp, tol: sp if sp.dim > 1 else center(sp, tol))
    scan = invalg.factor.multfree_scan
    monkeypatch.setattr(invalg.factor, "multfree_scan",
                        lambda *args, **kw: (*scan(*args, **kw)[:2], False))
    subs, _ = central_simple_invariant_subalgebras(rep)
    assert [s.dim for s in subs] == [1, 4]
    monkeypatch.setattr(invalg.factor, "centralizer", lambda sp, tol: sp)
    with pytest.raises(AssertionFailure, match="full algebra missing"):
        central_simple_invariant_subalgebras(rep)
    monkeypatch.setattr(invalg.factor, "multfree_scan", scan)
    monkeypatch.setattr(invalg.factor, "centralizer", None)  # never called
    with pytest.raises(AssertionFailure, match="full algebra missing"):
        central_simple_invariant_subalgebras(rep)


# -- the partner's factorization, by permuting columns -----------------------------

@pytest.mark.parametrize("name", ALL_INPUTS)
def test_swapped_factorizations_hold(name, central_simple):
    """Every entry's factorization, extracted or swapped from its partner's,
    satisfies ``S^-1 rho S = lambda sigma (x) tau`` within 1e-10, with the
    residual it reports; its centralizer is its partner entry."""
    rep, subs = central_simple[name]
    facts = invalg.factor.factor(subs, rep)
    for sp, fact in zip(subs, facts):
        assert fact.b_space is sp and any(fact.z_space is t for t in subs)
        assert fact.a ** 2 == sp.dim and fact.a * fact.b == rep.dim
        assert centralizer(sp).equals(fact.z_space)
        s_mat = fact.basis_change
        rho = np.linalg.inv(s_mat) @ rep.matrices @ s_mat
        kr = kron_stack(fact.sigma.matrices, fact.tau.matrices)
        resid = float(np.max(row_norms(rho - fact.lambdas[:, None, None] * kr)))
        assert resid <= 1e-10 and abs(resid - fact.residual) <= 1e-10
