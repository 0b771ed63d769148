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
from fcslab.systems import KrausSystem

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


def near_commuting(eps: float) -> KrausSystem:
    """Two random 2 x 2 blocks coupled by a rotation exp(i eps h): the letters
    generate all of M_4, but the block projection commutes with them up to
    about eps, so a commutant solved at a tolerance above eps holds it."""
    base = fixtures.block_sum(fixtures.random_system(2, 2, 21),
                              fixtures.random_system(2, 2, 22))
    h = np.zeros((4, 4))
    h[0, 2] = h[2, 0] = 1.0
    h[1, 3] = h[3, 1] = 0.5
    w, v = np.linalg.eigh(h)
    u = (v * np.exp(1j * eps * w)) @ v.conj().T
    return KrausSystem(u @ base.ops)


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
