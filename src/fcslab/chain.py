"""Evaluation of the translation-invariant chain state.

Local expectation values through nested evaluation maps, two-point
correlation functions, cluster decay, and the phase-symmetry (gauge) group
detected from word moments up to a cutoff.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .linalg import as_complex
from .systems import InvariantState, KrausSystem, moment_table


def matrix_unit(d: int, i: int, j: int) -> np.ndarray:
    e = np.zeros((d, d), dtype=np.complex128)
    e[i, j] = 1.0
    return e


def apply_e_map(sys: KrausSystem, a, b) -> np.ndarray:
    """E_a(b) = sum_ij a_ij v_i b v_j* evaluated directly."""
    a = as_complex(a)
    b = as_complex(b)
    return np.einsum("ij,ipq,qr,jsr->ps", a, sys.ops, b, np.conj(sys.ops))


def local_expectation(sys: KrausSystem, state: InvariantState,
                      site_ops) -> complex:
    """omega(A_1 x ... x A_m) for operators on consecutive sites."""
    x = np.eye(sys.n, dtype=np.complex128)
    for a in reversed(list(site_ops)):
        x = apply_e_map(sys, a, x)
    return complex(np.trace(state.rho @ x))


def two_point(sys: KrausSystem, state: InvariantState, a, b,
              gap: int) -> complex:
    """omega(A x 1^{gap} x B) with gap >= 0 intermediate sites."""
    if gap < 0:
        raise ValueError("gap must be nonnegative")
    x = apply_e_map(sys, b, np.eye(sys.n, dtype=np.complex128))
    for _ in range(gap):
        x = sys.transfer(x)
    x = apply_e_map(sys, a, x)
    return complex(np.trace(state.rho @ x))


@dataclass(frozen=True)
class ClusterReport:
    values: np.ndarray  # c_g for g = 0 .. max_gap
    second_eigenvalue_modulus: float


def cluster_decay(sys: KrausSystem, state: InvariantState,
                  max_gap: int) -> ClusterReport:
    """Worst-case cluster quantity over matrix-unit pairs at each gap."""
    units = [matrix_unit(sys.d, i, j)
             for i in range(sys.d) for j in range(sys.d)]
    singles = np.array([local_expectation(sys, state, [u]) for u in units])
    values = np.zeros(max_gap + 1)
    for g in range(max_gap + 1):
        worst = 0.0
        for ia, ua in enumerate(units):
            for ib, ub in enumerate(units):
                c = two_point(sys, state, ua, ub, g) - singles[ia] * singles[ib]
                worst = max(worst, abs(c))
        values[g] = worst
    spec = np.abs(np.linalg.eigvals(sys.transfer_super()))
    spec.sort()
    lam2 = float(spec[-2]) if spec.size > 1 else 0.0
    return ClusterReport(values=values, second_eigenvalue_modulus=lam2)


@dataclass(frozen=True)
class GaugeGroup:
    """Phases z fixing the word moments phi(v_I v_J*), up to a word cutoff.

    The detected group is the set of z on the circle with
    phi(v_I v_J*) z^{|I|-|J|} = phi(v_I v_J*) for all words of length at
    most ``cutoff``; the chain state itself only pairs words of equal
    length and is fixed by the whole circle.  ``kind`` is "circle" when
    every moment with unequal word lengths vanishes up to the cutoff, else
    "cyclic" with ``order`` the gcd of the nonzero length differences.
    """

    kind: str
    order: int | None
    differences: tuple
    cutoff: int

    def describe(self) -> str:
        if self.kind == "circle":
            return f"S^1 (up to cutoff {self.cutoff})"
        if self.order == 1:
            return "trivial {1}"
        return f"Z_{self.order}"


def gauge_group(sys: KrausSystem, state: InvariantState,
                length_cutoff: int = 4, tol: float = 1e-9) -> GaugeGroup:
    """Detect the phase-symmetry group from word moments.

    Returns the phases z with phi(v_I v_J*) z^{|I|-|J|} = phi(v_I v_J*)
    for all word lengths up to ``length_cutoff`` (see ``GaugeGroup``).
    For an ergodic family such a z comes from a unitary U with
    U v_k U* = z v_k, so conj(z) is a peripheral eigenvalue of the transfer
    channel.  Cutoff-bounded heuristic: only length differences realized
    by words up to ``length_cutoff`` are observable.
    """
    ws, vals = moment_table(sys, state, length_cutoff)
    lengths = np.array([len(w) for w in ws])
    mask = np.abs(vals) > tol
    diffs = set()
    idx_i, idx_j = np.nonzero(mask)
    for a, b in zip(idx_i, idx_j):
        diffs.add(int(lengths[a] - lengths[b]))
    nonzero = sorted(abs(x) for x in diffs if x != 0)
    if not nonzero:
        return GaugeGroup(kind="circle", order=None,
                          differences=tuple(sorted(diffs)), cutoff=length_cutoff)
    g = 0
    for x in nonzero:
        g = gcd(g, x)
    return GaugeGroup(kind="cyclic", order=g,
                      differences=tuple(sorted(diffs)), cutoff=length_cutoff)
