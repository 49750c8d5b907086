import sys

import pytest

import invalg.algebras


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
