"""Shared fixtures: expensive solves and the oracle suite run once per session."""
import pytest

from sawqubit import oracles, pipeline
from sawqubit.params import DeviceConfig

# Lines accumulated by the acceptance tests, echoed in the terminal summary.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def oracle_results():
    return {r.name: r for r in oracles.run_all()}


@pytest.fixture(scope="session")
def qubit_solution():
    """Default config (effective mass ratio 0.0067)."""
    return pipeline.solve_qubit(DeviceConfig())


@pytest.fixture(scope="session")
def qubit_solution_heavy(qubit_solution):
    """Alternative effective mass ratio 0.067 (the same natural-unit solve)."""
    return pipeline.rescale_solution(qubit_solution, 0.067)


@pytest.fixture(scope="session")
def rabi_result(qubit_solution):
    return pipeline.simulate_rabi(qubit_solution)


@pytest.fixture(scope="session")
def rabi_result_heavy(qubit_solution_heavy):
    return pipeline.simulate_rabi(qubit_solution_heavy)
