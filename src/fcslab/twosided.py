"""Truncated two-sided representation for cross-validation.

Builds a level-L truncation of the Hilbert space carrying two commuting
isometry families: raw vectors are indexed by (left word, right word, basis
vector of the canonical space), the semi-inner product is assembled from the
prefix rules below, and operators act by word shifts.  The raw vectors with
both words of length L are an orthonormal quotient basis, so the Gram G must
factor as Q^H Q through their rows Q: a hard validity check of the rules
against the constructed dual operators.

Inner-product rules (forward word products, excess words as suffixes):
with bra (A?, A, f) and ket (B?, B, g), the entry vanishes unless the left
words are prefix-related and the right words are prefix-related; the excess
words E (left) and F (right) contribute the operators w_E (duals) and v_F,
multiplied on the bra or ket side according to where the excess sits.

Truncation policy: compressed operator matrices are exact on interior
vectors (word lengths below the level); all residual checks quantify over
interior vectors only and boundary behavior is reported separately.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chain import local_expectation, matrix_unit
from .linalg import dag
from .modular import DualSystem, ModularData
from .systems import InvariantState, KrausSystem, word_operators, words

FACTOR_RESIDUAL_HARD = 1e-6

# Memory guard of `build`, checked before anything is allocated: the (q, N)
# quotient map and the 2d (q, q) shift compressions, 16 bytes per entry.
BUILD_BYTES_BUDGET = 2**30


class TruncationError(RuntimeError):
    """Construction failed a structural check."""


@dataclass(frozen=True)
class TwoSidedRep:
    level: int
    raw_index: tuple = field(repr=False)  # ((left, right, alpha), ...)
    gram_min_eigenvalue: float  # -||G - Q^H Q||_F, a lower bound on lambda_min
    quotient_map: np.ndarray = field(repr=False)  # (q, N): raw coords -> quotient
    right_ops: np.ndarray = field(repr=False)  # (d, q, q), compressions
    left_ops: np.ndarray = field(repr=False)  # (d, q, q)
    p_corner: np.ndarray = field(repr=False)  # projection onto the K block
    omega: np.ndarray = field(repr=False)
    shift: np.ndarray = field(repr=False)  # V = sum_k S_k Stilde_k*
    interior: np.ndarray = field(repr=False)  # ON basis (q, dim) of interior

    @property
    def quotient_dim(self) -> int:
        return self.quotient_map.shape[0]

    @property
    def d(self) -> int:
        return self.right_ops.shape[0]


def _word_count(d: int, max_len: int) -> int:
    """Number of words over d letters of length <= max_len."""
    return sum(d**k for k in range(max_len + 1))


def _pair_table(bra_words, ket_words, tab):
    """Prefix-rule operators for every (bra word, ket word) pair.

    ops[i, j] is tab[E] when bra word i is a prefix of ket word j with excess
    E (the excess sits on the ket side, side +1), dag(tab[E]) when ket word j
    is a proper prefix of bra word i (bra side, side -1), and zero when the
    words are not prefix-related (side 0).
    """
    m = tab[()].shape[0]
    ops = np.zeros((len(bra_words), len(ket_words), m, m), dtype=np.complex128)
    side = np.zeros((len(bra_words), len(ket_words)), dtype=np.int8)
    for i, a in enumerate(bra_words):
        for j, b in enumerate(ket_words):
            if b[:len(a)] == a:
                ops[i, j] = tab[b[len(a):]]
                side[i, j] = 1
            elif a[:len(b)] == b:
                ops[i, j] = dag(tab[a[len(b):]])
                side[i, j] = -1
    return ops, side


def _fill_gram(out, left, right, right_side):
    """Write the Gram of raw bra vectors against raw ket vectors into out.

    left is the _pair_table of the left bra words against the left ket words
    (from the duals) and right, right_side that of the right words (from v).
    Raw vectors are ordered (left word, right word, alpha), so out viewed as
    (nbl, nbr, m, nkl, nkr, m) is indexed [i, k, alpha, j, l, beta] with
    (i, j) the left-word pair and (k, l) the right-word pair.  The entry is
    (X Y)[alpha, beta] with X = left[i, j], Y = right[k, l] when the right
    excess sits on the ket side and (Y X)[alpha, beta] when it sits on the
    bra side.  Blocks of unrelated right words are left untouched (zero).
    """
    (nbl, nkl, m, _), (nbr, nkr) = left.shape, right_side.shape
    blocks = out.reshape(nbl, nbr, m, nkl, nkr, m)
    for k, l in zip(*np.nonzero(right_side)):
        y = right[k, l]
        xy = left @ y if right_side[k, l] > 0 else y @ left  # [i, j, alpha, beta]
        blocks[:, k, :, :, l, :] = xy.transpose(0, 2, 1, 3)


def _factor_residual(qmap, word_list, wtab, vtab) -> float:
    """||G - Q^H Q||_F for the raw Gram G, one left bra word's rows at a time."""
    left, _ = _pair_table(word_list, word_list, wtab)
    right = _pair_table(word_list, word_list, vtab)
    rows = qmap.shape[1] // len(word_list)
    total = 0.0
    for i in range(len(word_list)):
        block = np.zeros((rows, qmap.shape[1]), dtype=np.complex128)
        _fill_gram(block, left[i:i + 1], *right)
        block -= dag(qmap[:, i * rows:(i + 1) * rows]) @ qmap
        total += float(np.vdot(block, block).real)
    return float(np.sqrt(total))


def build(md: ModularData, dual: DualSystem, level: int) -> TwoSidedRep:
    """Assemble the level-L truncated two-sided representation.

    The top raw vectors (both words of length L) have the identity as Gram
    block and span the shorter ones, as sum_k v_k v_k* = sum_k w_k w_k* = 1.
    """
    if level < 2:
        raise ValueError("level must be >= 2")
    d = md.pi_ops.shape[0]
    m = md.gns_dim
    raw_dim = _word_count(d, level) ** 2 * m
    q = d ** (2 * level) * m
    need = 16 * (q * raw_dim + 2 * d * q * q)
    if need > BUILD_BYTES_BUDGET:
        raise TruncationError(
            f"level {level} needs about {need / 2**20:.0f} MiB for the "
            f"{q} x {raw_dim} quotient map and {2 * d} shift compressions, "
            f"over the budget of {BUILD_BYTES_BUDGET / 2**20:.0f} MiB"
        )

    word_list = words(d, level)
    top = words(d, level, level)
    vtab = word_operators(md.pi_ops, level + 1)
    wtab = word_operators(dual.ops, level + 1)

    raw_index = tuple((lw, rw, alpha) for lw in word_list
                      for rw in word_list for alpha in range(m))

    # Left excess words contribute the duals w_E, right excess words v_F.
    quotient_map = np.zeros((q, raw_dim), dtype=np.complex128)
    _fill_gram(quotient_map, _pair_table(top, word_list, wtab)[0],
               *_pair_table(top, word_list, vtab))
    # By Weyl's inequality -residual is a lower bound on lambda_min(G).
    residual = _factor_residual(quotient_map, word_list, wtab, vtab)
    if residual > FACTOR_RESIDUAL_HARD:
        raise TruncationError(
            f"Gram matrix does not factor through the top raw vectors "
            f"(residual {residual:.3e}); dual construction or convention error"
        )

    # S_k and Stilde_k prepend the letter k to the right and the left word,
    # so their compressions are the top-by-top blocks of the cross-Grams of
    # the raw basis against the shifted raw basis.
    left_top, _ = _pair_table(top, top, wtab)
    right_top = _pair_table(top, top, vtab)
    right_ops, left_ops = np.zeros((2, d, q, q), dtype=np.complex128)
    for k in range(d):
        ext = [(k,) + w for w in top]
        _fill_gram(right_ops[k], left_top, *_pair_table(top, ext, vtab))
        _fill_gram(left_ops[k], _pair_table(top, ext, wtab)[0], *right_top)

    corner = quotient_map[:, :m]  # raw vectors ((), (), alpha)
    p_corner = corner @ dag(corner)
    omega = corner @ md.omega

    shift = sum(right_ops[k] @ dag(left_ops[k]) for k in range(d))

    interior = _domain(quotient_map, d, level, level - 1, level - 1)

    return TwoSidedRep(
        level=level,
        raw_index=raw_index,
        gram_min_eigenvalue=-residual,
        quotient_map=quotient_map,
        right_ops=right_ops,
        left_ops=left_ops,
        p_corner=p_corner,
        omega=omega,
        shift=shift,
        interior=interior,
    )


def _domain(qmap: np.ndarray, d: int, level: int, left_len: int,
            right_len: int) -> np.ndarray:
    """ON basis (q, dim) of the span of raw vectors with shorter words.

    The raw vectors whose words have exactly these lengths are orthonormal
    and span those with shorter words, as the top vectors do; their columns
    of qmap, ordered (left word, right word, alpha), are the basis.
    """
    q, nw = qmap.shape[0], _word_count(d, level)
    cols = qmap.reshape(q, nw, nw, -1)
    left = slice(_word_count(d, left_len - 1), _word_count(d, left_len))
    right = slice(_word_count(d, right_len - 1), _word_count(d, right_len))
    return cols[:, left, right].reshape(q, -1)


@dataclass(frozen=True)
class RelationReport:
    interior: dict
    boundary: dict

    def max_interior(self) -> float:
        return max(self.interior.values())


def check_relations(rep: TwoSidedRep) -> RelationReport:
    """Isometry, completeness, and commutation residuals.

    Interior residuals are exact statements of the inductive-limit relations
    and must be small; boundary residuals quantify the truncation and are
    reported separately.
    """
    eye = np.eye(rep.quotient_dim)
    s = rep.right_ops
    st = rep.left_ops
    d = rep.d

    def residuals(domain):
        def norm(x):
            # operator norm of x restricted to the domain (None: everywhere)
            return float(np.linalg.norm(x if domain is None else x @ domain, ord=2))

        out = {}
        out["right_isometry"] = max(
            norm(dag(s[i]) @ s[j] - (eye if i == j else 0))
            for i in range(d) for j in range(d)
        )
        out["left_isometry"] = max(
            norm(dag(st[i]) @ st[j] - (eye if i == j else 0))
            for i in range(d) for j in range(d)
        )
        out["right_completeness"] = norm(
            sum(s[k] @ dag(s[k]) for k in range(d)) - eye)
        out["left_completeness"] = norm(
            sum(st[k] @ dag(st[k]) for k in range(d)) - eye)
        out["commutation"] = max(
            norm(s[i] @ st[j] - st[j] @ s[i])
            for i in range(d) for j in range(d)
        )
        out["star_commutation"] = max(
            norm(s[i] @ dag(st[j]) - dag(st[j]) @ s[i])
            for i in range(d) for j in range(d)
        )
        return out

    interior = residuals(rep.interior)
    boundary = residuals(None)
    return RelationReport(interior=interior, boundary=boundary)


def compression_residual(rep: TwoSidedRep) -> float:
    """max_i |S_i* P - P S_i* P| and the same for the left family."""
    p = rep.p_corner
    worst = 0.0
    for ops in (rep.right_ops, rep.left_ops):
        for a in ops:
            worst = max(worst, float(np.linalg.norm(
                dag(a) @ p - p @ dag(a) @ p, ord=2)))
    return worst


def moment_check(rep: TwoSidedRep, sys: KrausSystem, state: InvariantState,
                 window: int) -> float:
    """Two-sided vector-state moments against the chain state.

    Compares <Omega, St_L St_Lb* S_R S_Rb* Omega> with the chain state on
    the matching block of matrix units (left words enter reversed, sites
    running left of the seam).  Returns the max deviation.
    """
    if window > rep.level - 1:
        raise ValueError("window must stay below the truncation level")
    d = rep.d
    rtab = word_operators(rep.right_ops, window)
    ltab = word_operators(rep.left_ops, window)
    omega = rep.omega

    pairs = [(a, b) for a in words(d, window) for b in words(d, window)
             if len(a) == len(b)]
    # <Omega, St_a St_b* R> = <St_a* Omega, St_b* R> with R = S_R S_Rb* Omega
    left_bra = {w: dag(op) @ omega for w, op in ltab.items()}
    left_adj = {w: dag(op) for w, op in ltab.items()}
    worst = 0.0
    for ra, rb in pairs:
        r_vec = rtab[ra] @ (dag(rtab[rb]) @ omega)
        for la, lb in pairs:
            got = np.vdot(left_bra[la], left_adj[lb] @ r_vec)
            top = la[::-1] + ra
            bot = lb[::-1] + rb
            if top:
                units = [matrix_unit(d, i, j) for i, j in zip(top, bot)]
                want = local_expectation(sys, state, units)
            else:
                want = 1.0
            worst = max(worst, abs(got - want))
    return float(worst)


@dataclass(frozen=True)
class ShiftReport:
    isometry_residual: float
    omega_residual: float
    covariance_residual: float


def shift_check(rep: TwoSidedRep) -> ShiftReport:
    """Unitarity, vacuum invariance, and one-site shift covariance of V.

    Covariance is tested in commutator form V pi(x) = pi(shifted x) V for
    single-site matrix units at the seam, on a domain where all products
    stay inside the truncation.
    """
    v = rep.shift
    q = rep.quotient_dim
    interior = rep.interior
    iso = float(np.linalg.norm((dag(v) @ v - np.eye(q)) @ interior, ord=2))
    omega_res = float(np.linalg.norm(v @ rep.omega - rep.omega))

    dom = _domain(rep.quotient_map, rep.d, rep.level, rep.level - 1,
                  rep.level - 2)
    worst = 0.0
    for i in range(rep.d):
        for j in range(rep.d):
            x_left = rep.left_ops[i] @ dag(rep.left_ops[j])
            x_right = rep.right_ops[i] @ dag(rep.right_ops[j])
            worst = max(worst, float(np.linalg.norm(
                (v @ x_left - x_right @ v) @ dom, ord=2)))
    return ShiftReport(isometry_residual=iso, omega_residual=omega_res,
                       covariance_residual=worst)
