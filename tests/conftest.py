"""Shared fixtures: analysis pipelines built once per session, and the
single-word product that is the oracle for the batched word tables.

The acceptance tests register one line per criterion in ACCEPTANCE_RESULTS;
a terminal-summary hook prints them at the end of the run so the verdicts
are visible regardless of output capturing.
"""

import numpy as np
import pytest

from fcslab import fixtures
from fcslab.purity import pipeline as build_pipeline

ACCEPTANCE_RESULTS = []

# Seeded random systems shared by the dual-identity and subspace criteria:
# 25 cases cycling through the allowed shapes (n <= 4, d <= 3).
RANDOM_SHAPES = [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (4, 3)]
RANDOM_CASES = [
    (seed, *RANDOM_SHAPES[seed % len(RANDOM_SHAPES)]) for seed in range(25)
]


def word_operator(ops, word) -> np.ndarray:
    """Forward product v_{i_1} ... v_{i_m}, one factor at a time; the empty
    word gives the identity."""
    ops = np.asarray(ops, dtype=np.complex128)
    m = np.eye(ops.shape[1], dtype=np.complex128)
    for k in word:
        m = m @ ops[k]
    return m


@pytest.fixture(scope="session")
def aklt_pipeline():
    return build_pipeline(fixtures.aklt())


@pytest.fixture(scope="session")
def bernoulli_pipeline():
    return build_pipeline(fixtures.bernoulli_uniform())


@pytest.fixture(scope="session")
def random_pipelines():
    return [
        (seed, n, d, build_pipeline(fixtures.random_system(n, d, seed)))
        for seed, n, d in RANDOM_CASES
    ]


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num, name, ok, detail in sorted(ACCEPTANCE_RESULTS):
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {num:2d} [{status}] {name}: {detail}")
