"""Shared fixtures, and one PASS/FAIL line per acceptance criterion at the
end of a run."""

import re

import pytest

from wpmirror.verify import hms_certificate
from wpmirror.weights import Weights

_results = {}


@pytest.fixture(scope="session")
def certificates():
    """The certificate of every pair a0 <= a1 with a0 + a1 <= 25, the
    pairs whose digests the benchmark records, built once per session."""
    return {(a0, a1): hms_certificate(Weights((a0, a1)))
            for a0 in range(1, 25) for a1 in range(a0, 26 - a0)}


def pytest_runtest_logreport(report):
    match = re.search(r"test_acceptance\.py.*test_criterion_(\d+)", report.nodeid)
    if match and report.when == "call":
        _results[int(match.group(1))] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(_results):
        outcome = "PASS" if _results[num] == "passed" else "FAIL"
        terminalreporter.write_line(f"criterion {num:2d}: {outcome}")
