import numpy as np
import pytest
from _elements import perturbed_grid

from platevem.mesh import generate_voronoi

# One line per shipping criterion, echoed after the test summary so the
# verdicts stay visible regardless of output capturing.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def voronoi25():
    return generate_voronoi(25, lloyd_iters=5, seed=0)


@pytest.fixture(scope="session")
def grid4():
    return perturbed_grid(4, 4, 0.2, 1)


@pytest.fixture
def rng():
    return np.random.default_rng(20260817)
