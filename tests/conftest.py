"""Shared pytest wiring for the acceptance suite.

The acceptance tests record one verdict line apiece; this hook prints
them together at the end of the run so the pass/fail status of every
criterion is visible in one block.

Hypothesis runs derandomized, so property tests draw the same examples
on every run, and without deadlines, so a slow machine does not fail
them.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")

_ACCEPTANCE_LINES = []


def record_acceptance(line: str) -> None:
    _ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
