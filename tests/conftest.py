import sys

import numpy as np
import pytest

import invalg.algebras
from invalg import TwoCocycle, catalog
from invalg.groups import build_from_mult_table, direct_product
from invalg.reps import Representation


def outer(*parts):
    """Outer tensor product of the catalog reps ``"KEY:REP"`` over the direct
    product; the cocycle is dropped when every part's is trivial."""
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


def relabelled_and_rotated(rep, seed):
    """``rep`` with its elements relabelled at random (cocycle moved along)
    and its basis rotated by a Haar-random unitary."""
    rng = np.random.default_rng(seed)
    g, d = rep.group, rep.dim
    perm = rng.permutation(g.order)  # element i gets label perm[i]
    mult = np.empty_like(g.mult)
    mult[np.ix_(perm, perm)] = perm[g.mult]
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    u = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    mats = np.empty_like(rep.matrices)
    mats[perm] = u @ rep.matrices @ u.conj().T
    group = build_from_mult_table(mult)
    cocycle = None
    if rep.cocycle is not None:
        alpha = np.empty_like(rep.cocycle.values)
        alpha[np.ix_(perm, perm)] = rep.cocycle.values
        cocycle = TwoCocycle(group, alpha)
    return Representation(group=group, dim=d, matrices=mats, cocycle=cocycle)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Reprint the one-line acceptance verdicts after the test summary."""
    mod = (sys.modules.get("tests.test_acceptance")
           or sys.modules.get("test_acceptance"))
    lines = getattr(mod, "CRITERION_LINES", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture
def solves(monkeypatch):
    """Counts the solves behind ``algebras``: ``centralizer``'s commutant
    solves (``intertwiners``), the trace-form certificates
    (``trace_form_gram``) and ``center``'s solves (``nullspace``)."""
    count = {"centralizer": 0, "certificate": 0, "center": 0}
    for name, key in (("intertwiners", "centralizer"), ("trace_form_gram", "certificate"),
                      ("nullspace", "center")):
        def counted(*args, _inner=getattr(invalg.algebras, name), _key=key, **kwargs):
            count[_key] += 1
            return _inner(*args, **kwargs)

        monkeypatch.setattr(invalg.algebras, name, counted)
    return count
