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

from .linalg import dag
from .modular import DualSystem, ModularData
from .systems import (InvariantState, KrausSystem, TruncationError,
                      check_budget, moment_table, word_count, word_operators,
                      words)

FACTOR_RESIDUAL_HARD = 1e-6


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
    raw_dim = word_count(d, level) ** 2 * m
    q = d ** (2 * level) * m
    # the (q, N) quotient map and the 2d (q, q) shift compressions
    check_budget(16 * (q * raw_dim + 2 * d * q * q), f"level {level}",
                 f"the {q} x {raw_dim} quotient map and {2 * d} shift "
                 "compressions")

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
    q, nw = qmap.shape[0], word_count(d, level)
    cols = qmap.reshape(q, nw, nw, -1)
    left = slice(word_count(d, left_len - 1), word_count(d, left_len))
    right = slice(word_count(d, right_len - 1), word_count(d, right_len))
    return cols[:, left, right].reshape(q, -1)


@dataclass(frozen=True)
class RelationReport:
    interior: dict
    boundary: dict

    def max_interior(self) -> float:
        return max(self.interior.values())


def _op_norm(x: np.ndarray) -> float:
    return float(np.linalg.norm(x, ord=2))


def check_relations(rep: TwoSidedRep) -> RelationReport:
    """Isometry, completeness, and commutation residuals.

    Interior residuals are exact statements of the inductive-limit relations
    and must be small; boundary residuals quantify the truncation and are
    reported separately.  Each relation operator is formed once and both of
    its norms are taken before the next one is formed.
    """
    eye = np.eye(rep.quotient_dim)
    s, st = rep.right_ops, rep.left_ops
    interior, boundary = {}, {}

    def record(key, x):
        # operator norm of x on the interior domain and everywhere
        interior[key] = max(interior.get(key, 0.0), _op_norm(x @ rep.interior))
        boundary[key] = max(boundary.get(key, 0.0), _op_norm(x))

    for i in range(rep.d):
        for j in range(rep.d):
            delta = eye if i == j else 0
            record("right_isometry", dag(s[i]) @ s[j] - delta)
            record("left_isometry", dag(st[i]) @ st[j] - delta)
            record("commutation", s[i] @ st[j] - st[j] @ s[i])
            record("star_commutation", s[i] @ dag(st[j]) - dag(st[j]) @ s[i])
    record("right_completeness", sum(a @ dag(a) for a in s) - eye)
    record("left_completeness", sum(a @ dag(a) for a in st) - eye)
    return RelationReport(interior=interior, boundary=boundary)


def compression_residual(rep: TwoSidedRep) -> float:
    """max_i |S_i* P - P S_i* P| and the same for the left family."""
    p = rep.p_corner
    worst = 0.0
    for ops in (rep.right_ops, rep.left_ops):
        for a in ops:
            worst = max(worst, _op_norm(dag(a) @ p - p @ dag(a) @ p))
    return worst


def _shifted_vectors(ops, word_list, omega) -> np.ndarray:
    """vecs[x, y] = T_x T_y* omega for T the word products of ops."""
    tab = word_operators(ops, len(word_list[-1]))
    adj = np.conj([np.conj(omega) @ tab[w] for w in word_list])  # T_y* omega
    return np.swapaxes([tab[w] @ adj.T for w in word_list], 1, 2)


def moment_check(rep: TwoSidedRep, sys: KrausSystem, state: InvariantState,
                 window: int) -> float:
    """Two-sided vector-state moments against the chain state.

    Compares <Omega, St_la St_lb* S_ra S_rb* Omega> with the chain state on
    the matching block of matrix units (left words enter reversed, sites
    running left of the seam) for all pairs of equal-length words up to
    ``window`` on each side: one Gram matrix of the vector families
    St_lb St_la* Omega and S_ra S_rb* Omega against phi(v_I v_J*),
    I = la reversed + ra and J = lb reversed + rb, gathered from one moment
    table up to length 2 window.  Returns the max deviation.
    """
    if window > rep.level - 1:
        raise ValueError("window must stay below the truncation level")
    d = rep.d
    ws = words(d, window)
    lens = np.array([len(w) for w in ws])
    # words are ordered by length, then as base-d numerals, so x + y sits at
    # first[|x| + |y|] + value(x) d^|y| + value(y)
    first = np.cumsum([0] + [d**k for k in range(2 * window + 1)])
    value = np.arange(len(ws)) - first[lens]

    def joined(x):
        return (first[lens[x][:, None] + lens[x]]
                + value[x][:, None] * d ** lens[x] + value[x])

    a, b = np.nonzero(lens[:, None] == lens)  # pairs of equal-length words
    # left pair (x, y) stands for la = x reversed and lb = y reversed
    left = _shifted_vectors(rep.left_ops, [w[::-1] for w in ws], rep.omega)
    right = _shifted_vectors(rep.right_ops, ws, rep.omega)
    got = np.conj(left[b, a]) @ right[a, b].T
    _, moments = moment_table(sys, state, 2 * window)
    return float(np.max(np.abs(got - moments[joined(a), joined(b)])))


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
    iso = _op_norm((dag(v) @ v - np.eye(q)) @ interior)
    omega_res = float(np.linalg.norm(v @ rep.omega - rep.omega))

    dom = _domain(rep.quotient_map, rep.d, rep.level, rep.level - 1,
                  rep.level - 2)
    worst = 0.0
    for i in range(rep.d):
        for j in range(rep.d):
            x_left = rep.left_ops[i] @ dag(rep.left_ops[j])
            x_right = rep.right_ops[i] @ dag(rep.right_ops[j])
            worst = max(worst, _op_norm((v @ x_left - x_right @ v) @ dom))
    return ShiftReport(isometry_residual=iso, omega_residual=omega_res,
                       covariance_residual=worst)
