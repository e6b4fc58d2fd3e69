import inspect
import sys

import pytest

from _oracles import ACCEPTANCE_LINES


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def shallow_stack():
    """lower(frames) sets the recursion limit that many frames above the
    caller's depth; the old limit comes back after the test."""
    old = sys.getrecursionlimit()
    yield lambda frames: sys.setrecursionlimit(len(inspect.stack(0)) + frames)
    sys.setrecursionlimit(old)
