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
    """E_a(b) = sum_ij a_ij v_i b v_j*, broadcast over the leading axes of
    a (..., d, d) and b (..., n, n).

    Evaluated as sum_i v_i b w_i* with w_i = sum_j conj(a_ij) v_j, at
    O(d n^3) per operator; E_1 is the transfer channel tau.
    """
    w = np.tensordot(np.conj(a), sys.ops, axes=(-1, 0))  # (..., d, n, n)
    vb = sys.ops @ as_complex(b)[..., None, :, :]
    return (vb @ np.conj(np.swapaxes(w, -1, -2))).sum(axis=-3)


def local_expectation(sys: KrausSystem, state: InvariantState, site_ops):
    """omega(A_1 x ... x A_m) for operators on consecutive sites.

    Each A_k may be a stack (..., d, d); the stacks broadcast against each
    other and the result is an array over their leading axes, a complex
    scalar when no A_k is stacked.
    """
    x = np.eye(sys.n, dtype=np.complex128)
    for a in reversed(list(site_ops)):
        x = apply_e_map(sys, a, x)
    val = np.einsum("pq,...qp->...", state.rho, x)
    return complex(val) if val.ndim == 0 else val


def two_point(sys: KrausSystem, state: InvariantState, a, b, gap: int):
    """omega(A x 1^{gap} x B) with gap >= 0 intermediate sites.

    A and B may be stacks that broadcast, as in ``local_expectation``.
    """
    if gap < 0:
        raise ValueError("gap must be nonnegative")
    return local_expectation(sys, state, [a, *[np.eye(sys.d)] * gap, b])


@dataclass(frozen=True)
class ClusterReport:
    values: np.ndarray  # c_g for g = 0 .. max_gap


def cluster_decay(sys: KrausSystem, state: InvariantState,
                  max_gap: int) -> ClusterReport:
    """Worst-case cluster quantity over matrix-unit pairs at each gap.

    c_g = max |omega(e_a x 1^g x e_b) - omega(e_a) omega(e_b)| over all
    pairs of single-site matrix units, each gap one stacked ``two_point``.
    The decay rate, the second-largest transfer eigenvalue modulus, is
    ``1 - purity.kolmogorov_proxy(sys).gap``.
    """
    units = np.eye(sys.d * sys.d).reshape(-1, sys.d, sys.d)  # e_ij at i*d + j
    singles = local_expectation(sys, state, [units])
    product = np.outer(singles, singles)
    values = np.array([
        np.max(np.abs(two_point(sys, state, units[:, None], units, g) - product))
        for g in range(max_gap + 1)])
    return ClusterReport(values=values)


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
    i, j = np.nonzero(np.abs(vals) > tol)
    diffs = tuple(np.unique(lengths[i] - lengths[j]).tolist())
    order = gcd(*diffs)  # of the nonzero |differences|; 0 when there are none
    return GaugeGroup(kind="cyclic" if order else "circle", order=order or None,
                      differences=diffs, cutoff=length_cutoff)
