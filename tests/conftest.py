import time

import numpy as np
import pytest
from hypothesis import settings

from ntcfk.gaussian import Density

# The same examples on every run: a property test passes or fails on the
# code, not on the draw. Example counts and deadlines keep their defaults.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

SESSION_T0 = time.time()

ACCEPTANCE_LINES: list[str] = []


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def fresh_rng(seed=1234):
    return np.random.default_rng(seed)


def density(table: dict) -> Density:
    """The Density of a {point tuple: probability} dict, for cases written
    out by hand."""
    return Density(np.array(list(table), dtype=np.int64), np.array(list(table.values())))


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_line("")
        terminalreporter.write_line("acceptance criteria:")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
