"""Kraus systems generating translation-invariant chain states.

A :class:`KrausSystem` is a family ``v_1 .. v_d`` of operators on C^n with
``sum_k v_k v_k* = 1``.  This module validates systems, finds invariant
densities of the transfer channel, compresses onto the support of an
invariant density, and canonicalizes onto the GNS space of the generated
algebra, where the cyclic vector is also separating.

Word convention (frozen after numerical validation, see README): for a word
``I = (i_1, .., i_m)`` the operator is the forward product
``v_I = v_{i_1} v_{i_2} ... v_{i_m}``, and the chain state on consecutive
matrix units is ``omega(e^{i_1}_{j_1} x ... x e^{i_m}_{j_m}) = phi(v_I v_J*)``.
This is the unique ordering consistent with the nested evaluation map of the
chain state; the reversed convention is exposed for comparison through the
``reverse`` flag of :func:`moment_table`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product as _iproduct

import numpy as np

from . import algebras
from .linalg import (
    DEFAULT_TOL,
    KERNEL_TOL,
    SUBSPACE_TOL,
    OperatorSubspace,
    as_complex,
    dag,
    frame_super,
    from_frame,
    herm_eig,
    kernel_rank,
    outside_component,
    pos_power,
    to_frame,
)


class ValidationError(ValueError):
    """System data violates a structural invariant."""


class TruncationError(RuntimeError):
    """A truncated construction was refused or failed a structural check."""


BYTES_BUDGET = 2**30  # memory of the moment table and of the two-sided build


def _figure(log2n: float) -> str:
    """2**log2n rounded, in decimal, or as 1.23e+45 once it has more than 12
    digits; the cost and the length of the text are the same for any size."""
    exp = log2n * math.log10(2)
    if exp < 12:
        return str(round(2 ** log2n))
    mantissa, more = f"{10 ** (exp - int(exp)):.2e}".split("e")
    return f"{mantissa}e+{int(exp) + int(more)}"


def check_budget(log2_need: float, subject: str, arrays: str,
                 *log2_sizes: float) -> None:
    """Refuse, by TruncationError and before allocating, a construction that
    needs more than BYTES_BUDGET bytes.  ``arrays`` names what is held, one
    ``{}`` per size; the need and the sizes are base-2 logarithms."""
    if log2_need > math.log2(BYTES_BUDGET):
        raise TruncationError(
            f"{subject} needs about {_figure(log2_need - 20)} MiB for "
            f"{arrays.format(*map(_figure, log2_sizes))}, "
            f"over the budget of {BYTES_BUDGET // 2**20} MiB")


@dataclass(frozen=True)
class KrausSystem:
    """Operators v_1..v_d on C^n with sum v_k v_k* = 1."""

    ops: np.ndarray = field(repr=False)  # (d, n, n)

    def __post_init__(self):
        ops = as_complex(self.ops)
        if ops.ndim != 3 or ops.shape[1] != ops.shape[2]:
            raise ValidationError("ops must be a list of square matrices of equal shape")
        object.__setattr__(self, "ops", ops)

    @property
    def n(self) -> int:
        return self.ops.shape[1]

    @property
    def d(self) -> int:
        return self.ops.shape[0]

    def unit_defect(self) -> float:
        total = sum(a @ dag(a) for a in self.ops)
        return float(np.linalg.norm(total - np.eye(self.n), ord=2))

    def transfer_super(self) -> np.ndarray:
        """Real matrix of the transfer channel ``x -> sum_k v_k x v_k*`` in
        Hermitian-frame coordinates (see :mod:`fcslab.linalg`), not on vec(x)."""
        return frame_super(self.ops)

    def predual_super(self) -> np.ndarray:
        """Real matrix of the predual ``rho -> sum_k v_k* rho v_k`` in
        Hermitian-frame coordinates (see :mod:`fcslab.linalg`), not on vec(rho)."""
        return frame_super(dag(self.ops))


@dataclass(frozen=True)
class SystemDiagnostics:
    unit_residual: float
    ok: bool
    tol: float


def validate(sys: KrausSystem, tol: float = DEFAULT_TOL) -> SystemDiagnostics:
    """Check sum v v* = 1."""
    residual = sys.unit_defect()
    return SystemDiagnostics(unit_residual=residual, ok=residual <= tol, tol=tol)


@dataclass(frozen=True)
class InvariantState:
    """Density matrix rho with sum v_k* rho v_k = rho."""

    rho: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "rho", as_complex(self.rho))

    def check(self, sys: KrausSystem, tol: float = 1e-10) -> None:
        r = self.rho
        if np.linalg.norm(r - dag(r)) > tol * 10:
            raise ValidationError("density is not Hermitian")
        w = np.linalg.eigvalsh((r + dag(r)) / 2)
        if w[0] < -tol:
            raise ValidationError(f"density has negative eigenvalue {w[0]:.3e}")
        if abs(np.trace(r) - 1.0) > 1e-8:
            raise ValidationError("density trace differs from 1")
        flow = sum(dag(a) @ r @ a for a in sys.ops)
        if np.linalg.norm(flow - r) > max(tol, 1e-10):
            raise ValidationError("density is not invariant under the predual channel")


@dataclass(frozen=True)
class InvariantSearch:
    multiplicity: int
    mean_state: InvariantState


def invariant_states(sys: KrausSystem, tol: float = DEFAULT_TOL) -> InvariantSearch:
    """Invariant densities of the predual channel, from one real SVD.

    The SVD of ``T_* - 1`` (real, in Hermitian-frame coordinates) is cut at
    :func:`fcslab.linalg.kernel_rank`.  Its right kernel R (Hermitian fixed
    points) gives the multiplicity; with its left kernel L, the mean state is
    the Cesaro image ``R (L^T R)^{-1} L^T`` of the maximally mixed state.  For
    a channel the eigenvalue 1 is semisimple (Fannes, Nachtergaele & Werner,
    CMP 144, 1992), so the Cesaro mean is this oblique projection onto the
    fixed space along the range of ``T_* - 1``, and ``L^T R`` is invertible;
    a singular or ill-conditioned ``L^T R`` means a Jordan block at 1, which
    no channel has, and is refused.  The mean state is invariant and has
    maximal support among invariant densities, which makes it the right input
    for support compression.
    """
    n = sys.n
    u, s, vh = np.linalg.svd(sys.predual_super() - np.eye(n * n))
    rank = kernel_rank(s, tol)
    multiplicity = n * n - rank
    if multiplicity == 0:
        raise ValidationError("channel has no fixed point (eigenvalue 1 missing)")
    right, left = vh[rank:].T, u[:, rank:]
    overlap = left.T @ right  # cosines of the angles between the kernels
    sigma_min = float(np.linalg.svd(overlap, compute_uv=False)[-1])
    if sigma_min <= tol:
        raise ValidationError(
            f"eigenvalue 1 of the predual is not semisimple "
            f"(sigma_min(L^T R) = {sigma_min:.3e}); the family is not a channel")
    coords = right @ np.linalg.solve(overlap, left.T @ to_frame(np.eye(n) / n))
    rho_bar = from_frame(coords, n)
    rho_bar = rho_bar / np.trace(rho_bar).real
    mean = InvariantState(rho_bar)
    mean.check(sys, tol=max(tol, 1e-10))
    return InvariantSearch(multiplicity=multiplicity, mean_state=mean)


def compress_to_support(sys: KrausSystem, state: InvariantState,
                        tol: float = DEFAULT_TOL):
    """Restrict the system to the support of an invariant density.

    Returns ``(sys', state', isometry)`` where the isometry embeds the
    support back into the original space.  On the compressed space the
    Kraus family is again unital and the density strictly positive.
    """
    state.check(sys, tol=max(tol, 1e-9))
    w, u = herm_eig(state.rho, tol=1e-8)
    keep = w > 1e-10 * max(1.0, float(w[-1]))
    iso = u[:, keep]  # (n, r)
    ops = np.stack([dag(iso) @ a @ iso for a in sys.ops])
    sys2 = KrausSystem(ops)
    rho2 = dag(iso) @ state.rho @ iso
    rho2 = (rho2 + dag(rho2)) / 2
    rho2 = rho2 / np.trace(rho2).real
    defect = sys2.unit_defect()
    if defect > 1e-9:
        raise ValidationError(
            f"support compression broke unitality (defect {defect:.3e}); "
            "the input density was not invariant"
        )
    state2 = InvariantState(rho2)
    state2.check(sys2, tol=1e-9)
    return sys2, state2, iso


@dataclass(frozen=True)
class CanonicalSystem:
    """System carried to the GNS space of (algebra, phi).

    ``base_commutant`` is C = {v_k, v_k*}' in M_n and ``base_algebra`` the
    generated algebra A = C' in M_n, both solved once here as kernels with
    n^2 unknowns (:func:`fcslab.algebras.generated_commutant`), A from a
    basis of C; the center of the algebra is C intersected with A, and the
    dual identity reads C.  C is not the commutant A' on the GNS space,
    which is J A J (:attr:`fcslab.modular.ModularData.commutant`).
    ``basis_mats`` are the GNS orthonormal basis elements c as matrices on
    the original space, ``pi_ops`` the images of the Kraus family, ``omega``
    the cyclic vector (class of the identity) and ``algebra_mats`` the e_a
    in A with pi(e_a) a Hilbert-Schmidt orthonormal basis of pi(A)
    (:attr:`algebra`), read on C^n: pi(x) maps the vector xi of
    sum_i xi_i c_i to ``coordinates(x sum_i xi_i c_i)``.

    ``transfer`` is the m x m matrix R of the transfer channel tau(x) =
    sum_k pi(v_k) x pi(v_k)* on the represented algebra, read on vectors:
    tau(x) Omega = R x Omega for x in A.  pi is a *-homomorphism, so
    tau(pi(c_j)) = pi(sum_k v_k c_j v_k*), and column j is the coordinate
    vector of sum_k v_k c_j v_k* on C^n; as pi(c_j) Omega = e_j, R is also
    the matrix of tau in the basis pi(c) of A.
    """

    base: KrausSystem
    state: InvariantState
    pi_ops: np.ndarray = field(repr=False)  # (d, m, m)
    omega: np.ndarray = field(repr=False)  # (m,)
    algebra_mats: np.ndarray = field(repr=False)  # (dim A, n, n)
    basis_mats: np.ndarray = field(repr=False)  # (m, n, n)
    base_commutant: OperatorSubspace = field(repr=False)  # C, in M_n
    base_algebra: OperatorSubspace = field(repr=False)  # A = C', in M_n
    transfer: np.ndarray = field(repr=False)  # (m, m)

    @property
    def gns_dim(self) -> int:
        return self.pi_ops.shape[1]

    @cached_property
    def algebra(self) -> OperatorSubspace:
        """pi(A) with the basis pi(e_a), built on access as a test oracle.

        e_a = b_a z^{-1/2} for the orthonormal basis b of ``base_algebra``
        and z = sum_a b_a b_a*.  z does not depend on the orthonormal basis,
        so it commutes with the unitaries of A: for A = (+)_i M_{k_i} (x)
        1_{l_i} it is k_i / l_i on the i-th block, central and positive.
        pi is the left regular representation, which holds M_{k_i} with
        multiplicity k_i, so Tr pi(x) = Tr(x z) on A, and the pi(e_a) are
        Hilbert-Schmidt orthonormal.
        """
        return OperatorSubspace(self.gns_dim, self.represent(self.algebra_mats))

    def coordinates(self, y) -> np.ndarray:
        """GNS coordinates <c_i, y>_phi of a matrix or a stack (..., n, n)."""
        return _coordinates(self.state.rho, self.basis_mats, y)

    def represent(self, x) -> np.ndarray:
        """Left multiplication by x (..., n, n) on the GNS space, as matrices."""
        return _represent(self.state.rho, self.basis_mats, x)


def _coordinates(rho, c, y):
    """<c_i, y>_phi = Tr(rho c_i* y) = vdot(c_i rho, y) against the basis c,
    as one product with conj(c rho); y is a matrix or a stack (..., n, n)."""
    n = rho.shape[0]
    bras = np.conj(c @ rho).reshape(len(c), n * n)
    return as_complex(y).reshape(*np.shape(y)[:-2], n * n) @ bras.T


def _represent(rho, c, x):
    """pi(x)[..., i, j] = <c_i, x c_j>_phi: the coordinates of the stack x c."""
    x = as_complex(x)[..., None, :, :]
    return np.swapaxes(_coordinates(rho, c, x @ c), -1, -2)


def canonicalize(sys: KrausSystem, state: InvariantState,
                 tol: float = DEFAULT_TOL) -> CanonicalSystem:
    """GNS construction for the generated algebra with phi = Tr(rho .).

    The generated algebra is the bicommutant A = C' of C = {v_k, v_k*}':
    both are solved as kernels with n^2 unknowns, C from the Kraus family
    and A from a basis of C, so A comes with a Hilbert-Schmidt orthonormal
    basis b.  (The word closure :func:`fcslab.algebras.generated_algebra`
    builds the same algebra and is its reference in the tests.)  The GNS
    basis c is the canonical orthonormalization of b in <x, y>_phi =
    Tr(rho x* y), refined by one pass of c G(c)^{-1/2}.

    The C that A is solved from is taken at the kernel tolerance whatever
    ``tol`` is: a C solved at a looser ``tol`` may hold elements that only
    nearly commute with the letters, and its commutant would then miss part
    of them.  C' itself is solved at the subspace tolerance, as C's basis
    carries the rounding of its own solve, amplified by the gap to the
    nearest commuting direction.  Letters outside A are refused, since pi
    would drop that part of them.

    Requires a strictly positive invariant density (run
    :func:`compress_to_support` first); a singular Gram matrix signals a
    support bug upstream and is rejected.
    """
    n = sys.n
    rho = state.rho
    base_commutant = algebras.generated_commutant(sys.ops, tol)
    kernel_commutant = (base_commutant if tol == KERNEL_TOL
                        else algebras.generated_commutant(sys.ops))
    base_algebra = algebras.generated_commutant(kernel_commutant.basis,
                                                SUBSPACE_TOL)
    letters = sys.ops.reshape(sys.d, n * n).T
    outside = np.linalg.norm(outside_component(letters, base_algebra), axis=0)
    if np.any(outside > SUBSPACE_TOL * np.maximum(
            1.0, np.linalg.norm(letters, axis=0))):
        raise ValidationError(
            f"the letters lie outside the algebra solved as C' (residual "
            f"{outside.max():.3e})")
    b = base_algebra.basis  # HS-orthonormal
    gram = _coordinates(rho, b, b).T  # gram[a, b] = <b_a, b_b>_phi
    w, u = herm_eig(gram, tol=1e-8)
    if w[0] <= tol * max(1.0, float(w[-1])):
        raise ValidationError(
            f"state is not faithful on the generated algebra "
            f"(Gram eigenvalue {w[0]:.3e}); compress to the support first"
        )
    weights = u @ np.diag(w**-0.5)  # columns: new basis coefficients
    c = np.einsum("ab,aij->bij", weights, b)  # (m, n, n) GNS-orthonormal
    # c is orthonormal to about cond(gram) * eps; one pass of c G(c)^{-1/2}
    # brings it to working precision
    refine = pos_power(_coordinates(rho, c, c).T, -0.5)
    c = np.einsum("ab,aij->bij", refine, c)
    z = np.einsum("aij,akj->ik", b, np.conj(b))  # sum_a b_a b_a*
    images = sum(a @ c @ dag(a) for a in sys.ops)  # sum_k v_k c_j v_k*
    return CanonicalSystem(
        base=sys, state=state, pi_ops=_represent(rho, c, sys.ops),
        omega=_coordinates(rho, c, np.eye(n)),
        algebra_mats=b @ pos_power(z, -0.5), basis_mats=c,
        base_commutant=base_commutant, base_algebra=base_algebra,
        transfer=_coordinates(rho, c, images).T,
    )


# ---------------------------------------------------------------------------
# Word moments

def words(d: int, max_len: int, min_len: int = 0):
    """All words over {0..d-1} with min_len <= length <= max_len.

    Words are ordered by length, then as base-d numerals with the last letter
    fastest: a word I of length k sits at ``word_count(d, k - 1) + value(I)``,
    and the words I + (j,) of length k + 1 at ``value(I) d + j`` within their
    length, (j,) + I at ``j d^k + value(I)``.  Every word table of this
    module and of :mod:`fcslab.modular` is a stack in this order.
    """
    out = []
    for length in range(min_len, max_len + 1):
        out.extend(_iproduct(range(d), repeat=length))
    return out


def word_count(d: int, max_len: int) -> int:
    """Number of words over d letters of length <= max_len."""
    return (d ** (max_len + 1) - 1) // (d - 1) if d > 1 else max_len + 1


def log2_word_count(d: int, max_len: int) -> float:
    """log2 of word_count(d, max_len), at a cost independent of max_len."""
    if d == 1:
        return math.log2(max_len + 1)
    return ((max_len + 1) * math.log2(d) - math.log2(d - 1)
            + math.log2(1 - float(d) ** -(max_len + 1)))


def word_stack(ops, max_len: int, reverse: bool = False) -> np.ndarray:
    """(W, n, n) stack of the products v_I of all words up to max_len, in
    :func:`words` order: forward ``v_{i_1} ... v_{i_k}``, or reversed
    ``v_{i_k} ... v_{i_1}`` with ``reverse=True``.

    Each word length is one broadcast product with the previous one, written
    into its slice of the preallocated stack: I + (j,) is v_I v_j forward
    and v_j v_I reversed.
    """
    ops = as_complex(ops)
    d, n = ops.shape[0], ops.shape[1]
    stack = np.empty((word_count(d, max_len), n, n), dtype=np.complex128)
    stack[0] = np.eye(n)
    lo, hi = 0, 1
    for _ in range(max_len):
        prev, size = stack[lo:hi, None], d * (hi - lo)
        out = stack[hi:hi + size].reshape(hi - lo, d, n, n)
        if reverse:
            np.matmul(ops[None], prev, out=out)
        else:
            np.matmul(prev, ops[None], out=out)
        lo, hi = hi, hi + size
    return stack


def word_operators(ops, max_len: int):
    """Dict word -> forward product, for all words up to max_len."""
    ops = as_complex(ops)
    return dict(zip(words(ops.shape[0], max_len), word_stack(ops, max_len)))


def log2_moment_bytes(d: int, n: int, max_len: int) -> float:
    """log2 of the bytes :func:`moment_table` holds at once: the W x W
    moment matrix and two W x n^2 word stacks (the products, conjugated in
    place, and the products weighted by rho), 16 bytes per entry, plus
    16 KiB for the array objects around them."""
    w = log2_word_count(d, max_len)
    arrays = 4 + w + np.logaddexp2(w, 1 + 2 * math.log2(n))
    return float(np.logaddexp2(arrays, 14))


def moment_table(sys: KrausSystem, state: InvariantState, max_len: int,
                 reverse: bool = False):
    """All moments phi(v_I v_J*) for |I|, |J| <= max_len.

    With ``reverse=True`` the words are read in the reversed order
    (``v_I = v_{i_m} ... v_{i_1}``), exposed for convention validation.
    A table whose arrays (:func:`log2_moment_bytes`) exceed BYTES_BUDGET is
    refused.
    """
    w = log2_word_count(sys.d, max_len)
    check_budget(log2_moment_bytes(sys.d, sys.n, max_len),
                 f"a moment table of word length <= {max_len}",
                 "the {} x {} moment matrix and two {} x {} word stacks",
                 w, w, w, 2 * math.log2(sys.n))
    stack = word_stack(sys.ops, max_len, reverse)
    size = len(stack)
    weighted = np.einsum("pq,aqr->apr", state.rho, stack).reshape(size, -1)
    flat = np.conj(stack, out=stack).reshape(size, -1)
    vals = weighted @ flat.T  # vals[a, b] = Tr(rho W_a W_b^dag)
    del stack, weighted, flat  # freed before the word list is built
    return words(sys.d, max_len), vals
