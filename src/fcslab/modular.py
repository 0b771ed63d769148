"""Modular data on the GNS space and the dual Kraus family.

Given a canonical system (cyclic and separating vector Omega), this module
builds the closure S of ``x Omega -> x* Omega`` and, in the standard form
read off the density on the support, J and Delta with ``S = J
Delta^{1/2}``, the modular group ``sigma_z(x) = Delta^{iz} x Delta^{-iz}``,
the commutant J A J of the represented algebra, and the dual operators
``w_k = J sigma_{i/2}(pi(v_k)*) J`` living in it.  pi(A) is read through
elements of A on C^n, never through its basis on the GNS space.  Every
identity is checked numerically; a failed identity aborts the construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    AntilinearOp,
    OperatorSubspace,
    as_complex,
    dag,
    frame_super,
    outside_component,
    pos_power,
)
from .systems import (CanonicalSystem, check_budget, log2_word_count,
                      word_count)


class ModularError(RuntimeError):
    """A modular-theoretic identity failed beyond tolerance."""


class DualConstructionError(ModularError):
    """A diagnostic identity for the dual operators failed."""


@dataclass(frozen=True)
class ModularData:
    """Tomita data of a canonical system: S, and Delta and J = S
    Delta^{-1/2} in standard form (:func:`modular_data`).  ``d_half`` and
    ``d_minus_half`` are Delta^{+-1/2}, read by the analytic continuation
    sigma_{i/2} behind the duals.  ``commutant`` is A' = J A J (Tomita;
    Bratteli & Robinson, Thm 2.5.14) with an HS-orthonormal basis, built on
    access for the tests: in standard form J x J is a right multiplication,
    so J A J lies in A' by associativity and the battery needs no basis."""

    can: CanonicalSystem
    s: AntilinearOp = field(repr=False)
    delta: np.ndarray = field(repr=False)
    j: AntilinearOp = field(repr=False)
    residuals: dict = field(repr=False)
    d_half: np.ndarray = field(repr=False)
    d_minus_half: np.ndarray = field(repr=False)

    @property
    def gns_dim(self) -> int:
        return self.can.gns_dim

    @property
    def pi_ops(self) -> np.ndarray:
        return self.can.pi_ops

    @property
    def omega(self) -> np.ndarray:
        return self.can.omega

    @property
    def commutant(self) -> OperatorSubspace:
        return OperatorSubspace(self.gns_dim,
                                self.j.sandwich(self.can.algebra.basis))


def _algebra_density(can: CanonicalSystem) -> np.ndarray:
    """rho_A, the Hilbert-Schmidt projection of rho onto the generated
    algebra: it lies in A and Tr(rho_A x) = Tr(rho x) for x in A."""
    rho = can.state.rho
    return rho - outside_component(rho.reshape(-1, 1),
                                   can.base_algebra).reshape(rho.shape)


def modular_data(can: CanonicalSystem, tol: float = DEFAULT_TOL) -> ModularData:
    """Tomita data (S, Delta, J) for the canonical system.

    The GNS space is A with <x, y> = Tr(rho_A x* y) (:func:`_algebra_density`),
    and the standard form gives J x = rho_A^{1/2} x* rho_A^{-1/2} and
    Delta^{+-1/2} x = rho_A^{+-1/2} x rho_A^{-+1/2}; each is one coordinate
    call on r x r products, and Delta = (Delta^{1/2})^2.  The residuals
    check this construction against S, the coordinates of the c_j*.
    """
    c = can.basis_mats
    # S e_j = coordinates of c_j*
    s = AntilinearOp(can.coordinates(dag(c)).T)
    rho_a = _algebra_density(can)
    half, minus_half = pos_power(rho_a, 0.5), pos_power(rho_a, -0.5)
    j = AntilinearOp(can.coordinates(half @ dag(c) @ minus_half).T)
    d_half = can.coordinates(half @ c @ minus_half).T
    d_minus_half = can.coordinates(minus_half @ c @ half).T
    delta = d_half @ d_half

    omega = can.omega
    eye = np.eye(can.gns_dim)
    residuals = {
        "s_omega": float(np.linalg.norm(s(omega) - omega)),
        "delta_omega": float(np.linalg.norm(delta @ omega - omega)),
        "j_omega": float(np.linalg.norm(j(omega) - omega)),
        "j_squared": float(np.linalg.norm(j.compose(j) - eye)),
        "j_antiunitary": float(np.linalg.norm(j.mat @ dag(j.mat) - eye)),
        "jdj": float(np.linalg.norm(
            j.sandwich(delta) - d_minus_half @ d_minus_half)),
        "polar": float(np.linalg.norm(
            j.after_linear(d_half).mat - s.mat)),
    }
    # S reproduces x -> x* on pi(A) Omega: pi(e) Omega = coordinates(e)
    e = can.algebra_mats
    lhs = s(can.coordinates(e).T)
    rhs = can.coordinates(dag(e)).T
    residuals["conjugation"] = float(np.max(np.linalg.norm(lhs - rhs, axis=0)))

    bad = {k: v for k, v in residuals.items() if v > max(tol, 1e-9) * 10}
    if bad:
        raise ModularError(f"modular identities failed: {bad}")
    return ModularData(can=can, s=s, delta=delta, j=j, residuals=residuals,
                       d_half=d_half, d_minus_half=d_minus_half)


def sigma(md: ModularData, x: np.ndarray, z: complex,
          tol: float = DEFAULT_TOL) -> np.ndarray:
    """Modular flow sigma_z(x) = Delta^{iz} x Delta^{-iz} at complex time z.

    The input must lie in the represented algebra.
    """
    x = as_complex(x)
    ok, res = md.can.algebra.contains(x)
    if not ok:
        raise ModularError(f"operator is outside the algebra (residual {res:.3e})")
    iz = 1j * complex(z)
    return pos_power(md.delta, iz) @ x @ pos_power(md.delta, -iz)


def _sigma_i_half(md: ModularData, x: np.ndarray) -> np.ndarray:
    """Analytic continuation sigma_{i/2}(x) = Delta^{-1/2} x Delta^{1/2}."""
    return md.d_minus_half @ as_complex(x) @ md.d_half


@dataclass(frozen=True)
class DualSystem:
    ops: np.ndarray = field(repr=False)  # (d, m, m)
    residuals: dict = field(repr=False)


def word_vectors(ops: np.ndarray, omega: np.ndarray, max_len: int,
                 prepend: bool = False) -> np.ndarray:
    """(W, m) stack of the vectors x_{i_k}* ... x_{i_1}* Omega of all words I
    up to max_len, in :func:`fcslab.systems.words` order, or with
    ``prepend=True`` of x_{i_1}* ... x_{i_k}* Omega.

    Each word length is one matrix product over the d letters, written into
    its slice of the preallocated stack.  Appending the letter j to I
    applies x_j* last, at ``value(I) d + j`` within the new length;
    prepending it applies x_j* last as well, at ``j d^k + value(I)``.  So
    the forward word vectors pi(v)_I* Omega are
    ``word_vectors(pi_ops, omega, L)`` and the reversed dual ones
    w_{rev I}* Omega are ``word_vectors(duals, omega, L, prepend=True)``.
    """
    d, m = ops.shape[0], ops.shape[1]
    # rows are vectors, so x_j* acts on the right, as conj(x_j)
    right = np.conj(ops)
    if not prepend:
        right = right.transpose(1, 0, 2).reshape(m, d * m)
    out = np.empty((word_count(d, max_len), m), dtype=np.complex128)
    out[0] = omega
    lo, hi = 0, 1
    for _ in range(max_len):
        size = d * (hi - lo)
        shape = (d, hi - lo, m) if prepend else (hi - lo, d * m)
        np.matmul(out[lo:hi], right, out=out[hi:hi + size].reshape(shape))
        lo, hi = hi, hi + size
    return out


def log2_dual_bytes(d: int, m: int, max_len: int) -> float:
    """log2 of the bytes :func:`dual_diagnostics` holds at once over words
    up to max_len: two W x W moment Grams and four W x m word-vector arrays
    (the two stacks and the conjugates taken for the Grams), 16 bytes per
    entry."""
    w = log2_word_count(d, max_len)
    return 5 + w + float(np.logaddexp2(w, 1 + math.log2(m)))


def dual_diagnostics(md: ModularData, duals: np.ndarray, word_len: int = 3,
                     moment_len: int = 4) -> dict:
    """Residuals of the identities a candidate dual family must satisfy.

    Checked identities:
      (i)   each w_k commutes with pi(A), that is with the nonzero pi(v_j)
            and pi(v_j)*, each scaled to unit norm,
      (ii)  sum_k w_k w_k* = 1,
      (iii) w_I* Omega = pi(v)_{reversed I}* Omega for |I| <= word_len,
      (iv)  moment duality <Omega, pi(v)_I pi(v)_J* Omega> =
            <Omega, w_{rev I} w_{rev J}* Omega> for |I|, |J| <= moment_len.

    (iii) and (iv) read the word vectors pi(v)_I* Omega and
    w_{rev I}* Omega (:func:`word_vectors`), never the word operators.
    Word data over the memory budget (:func:`log2_dual_bytes`) is refused
    by :class:`fcslab.systems.TruncationError` before any of it is built.
    """
    pi_ops = md.pi_ops
    d, m = pi_ops.shape[0], md.gns_dim
    max_len = max(word_len, moment_len)
    log_w = log2_word_count(d, max_len)
    check_budget(log2_dual_bytes(d, m, max_len),
                 f"the moment-duality check over words of length <= {max_len}",
                 "two {} x {} moment Grams and four {} x {} word-vector "
                 "arrays", log_w, log_w, log_w, math.log2(m))
    residuals = {}
    gens = np.stack([g / np.linalg.norm(g) for g in
                     np.concatenate([pi_ops, dag(pi_ops)]) if g.any()])
    residuals["commutant_membership"] = max(
        float(np.max(np.linalg.norm(w @ gens - gens @ w, axis=(-2, -1))))
        for w in duals)
    residuals["dual_unitality"] = float(np.linalg.norm(
        sum(w @ dag(w) for w in duals) - np.eye(m)
    ))

    a_vecs = word_vectors(pi_ops, md.omega, max_len)  # pi(v)_I* Omega
    b_vecs = word_vectors(duals, md.omega, max_len, prepend=True)
    nonempty = slice(1, word_count(d, word_len))
    residuals["dual_word_vectors"] = float(np.max(np.linalg.norm(
        a_vecs[nonempty] - b_vecs[nonempty], axis=1), initial=0.0))

    moments = slice(0, word_count(d, moment_len))
    a_vecs, b_vecs = a_vecs[moments], b_vecs[moments]
    gram = np.conj(a_vecs) @ a_vecs.T  # <Omega, V_I V_J* Omega>
    gram -= np.conj(b_vecs) @ b_vecs.T
    residuals["moment_duality"] = float(np.max(np.abs(gram)))
    return residuals


def dual_system(md: ModularData, word_len: int = 3, moment_len: int = 4,
                tol: float = DEFAULT_TOL) -> DualSystem:
    """Dual operators w_k = J sigma_{i/2}(pi(v_k)*) J with full diagnostics.

    Every identity listed in dual_diagnostics is checked; a failure raises
    DualConstructionError.
    """
    duals = md.j.sandwich(_sigma_i_half(md, dag(md.pi_ops)))
    residuals = dual_diagnostics(md, duals, word_len, moment_len)
    bad = {k: v for k, v in residuals.items() if v > max(tol, 1e-9) * 10}
    if bad:
        raise DualConstructionError(f"dual diagnostics failed: {bad}")
    return DualSystem(ops=duals, residuals=residuals)


def kms_duality(md: ModularData, dual: DualSystem,
                tol: float = DEFAULT_TOL) -> float:
    """Residual of the channel duality <y Omega, tau(x) Omega> =
    <tau~(y) Omega, x Omega>, tau(x) = sum_k pi(v_k) x pi(v_k)* and
    tau~(y) = sum_k w_k y w_k*, over all basis pairs x in the algebra, y in
    its commutant J A J: the largest entry of the difference of two Gram
    matrices.

    Only vectors are formed, and J is applied to them: y = J x J over the
    basis pi(e_a) of A has y Omega = J x Omega and y u = J x J u, with x u
    the coordinates of e_a eta for u the vector of eta.  tau(x) Omega = R x
    Omega for the canonical system's transfer matrix R, and tau~(y) Omega =
    sum_k w_k (y (w_k* Omega)), so each side is a product of vector stacks.

    A residual above ``10 * max(tol, 1e-9)`` raises
    :class:`DualConstructionError`.
    """
    duals, j, can, e = dual.ops, md.j, md.can, md.can.algebra_mats
    x_omega = can.coordinates(e)
    # u_k = J w_k* Omega is the vector of eta_k; yu[y, k, b] = (y u_k)_b
    eta = np.einsum("ik,iab->kab", j((dag(duals) @ md.omega).T),
                    can.basis_mats)
    yu = np.conj(can.coordinates(e[:, None] @ eta)) @ j.mat.T
    ty_omega = np.tensordot(yu, duals, axes=([1, 2], [0, 2]))
    lhs = np.conj(j(x_omega.T).T) @ can.transfer @ x_omega.T
    rhs = np.conj(ty_omega) @ x_omega.T
    res = float(np.max(np.abs(lhs - rhs)))
    if res > max(tol, 1e-9) * 10:
        raise DualConstructionError(
            f"channel duality failed (residual {res:.3e})")
    return res


def dual_channel(md: ModularData, dual: DualSystem,
                 tol: float = DEFAULT_TOL):
    """Real Hermitian-frame matrix of y -> sum_k w_k y w_k* (see
    :mod:`fcslab.linalg`), an m^2 x m^2 array, plus the residual of
    :func:`kms_duality`.  The battery needs only the residual; the frame
    matrix is the dual channel's fixed-point oracle in the tests.
    """
    return frame_super(dual.ops), {"kms_duality": kms_duality(md, dual, tol)}
