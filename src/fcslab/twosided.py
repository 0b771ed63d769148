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

G, its top rows Q, the domains (columns of Q), the shift compressions
(m nonzeros per column) and their adjoints, formed once by ``build``, are
scipy.sparse CSR matrices: ||G - Q^H Q||_F is the norm of the stored
entries of the difference.  The residual checks stack the operators of a
relation family, one per letter pair (i, j), as the row tiles of one CSR
matrix formed by one sparse product, whose rows are accumulated exactly as
in the product of each pair alone, and take the norms of all its tiles in
one ``linalg.spectral_norms`` pass over their block patterns.
scipy.sparse is imported inside the functions that need it, so code that
never runs the two-sided check does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .linalg import dag, index_dtype, spectral_norms
from .modular import DualSystem, ModularData
from .systems import (InvariantState, KrausSystem, TruncationError,
                      check_budget, log2_word_count, moment_table, word_count,
                      word_operators, words)

FACTOR_RESIDUAL_HARD = 1e-6


@dataclass(frozen=True)
class TwoSidedRep:
    level: int
    raw_index: tuple = field(repr=False)  # ((left, right, alpha), ...)
    gram_min_eigenvalue: float  # -||G - Q^H Q||_F, a lower bound on lambda_min
    quotient_map: object = field(repr=False)  # (q, N) CSR: raw coords -> quotient
    right_ops: tuple = field(repr=False)  # d sparse (q, q) compressions (CSR)
    left_ops: tuple = field(repr=False)  # d sparse (q, q)
    right_adj: tuple = field(repr=False)  # their adjoints, CSR
    left_adj: tuple = field(repr=False)
    corner: np.ndarray = field(repr=False)  # (q, m): the raw vectors ((), (), alpha)
    omega: np.ndarray = field(repr=False)
    shift: object = field(repr=False)  # V = sum_k S_k Stilde_k*, CSR
    interior: object = field(repr=False)  # ON basis (q, dim) of interior, CSR

    @property
    def quotient_dim(self) -> int:
        return self.quotient_map.shape[0]

    @property
    def d(self) -> int:
        return len(self.right_ops)


class _Pairs(NamedTuple):
    """Prefix-related (bra word, ket word) pairs and their operators."""

    bra: np.ndarray  # (p,) positions in the bra word list
    ket: np.ndarray  # (p,) positions in the ket word list
    ops: np.ndarray  # (p, m, m)
    ket_side: np.ndarray  # (p,) whether the excess word sits on the ket side
    counts: tuple  # (number of bra words, number of ket words)


def _pair_table(bra_words, ket_words, tab) -> _Pairs:
    """Prefix-rule operators for every prefix-related (bra, ket) word pair.

    The operator is tab[E] when the bra word is a prefix of the ket word with
    excess E (the excess sits on the ket side) and dag(tab[E]) when the ket
    word is a proper prefix of the bra word (bra side).  Pairs of words that
    are not prefix-related contribute nothing and are left out.
    """
    bra, ket, ops, ket_side = [], [], [], []
    for i, a in enumerate(bra_words):
        for j, b in enumerate(ket_words):
            if b[:len(a)] == a:
                ops.append(tab[b[len(a):]])
                ket_side.append(True)
            elif a[:len(b)] == b:
                ops.append(dag(tab[a[len(b):]]))
                ket_side.append(False)
            else:
                continue
            bra.append(i)
            ket.append(j)
    return _Pairs(np.array(bra, dtype=np.intp), np.array(ket, dtype=np.intp),
                  np.array(ops), np.array(ket_side, dtype=bool),
                  (len(bra_words), len(ket_words)))


def _gram(left: _Pairs, right: _Pairs):
    """Gram of raw bra vectors against raw ket vectors, as a CSR matrix.

    left holds the related pairs of the left words (operators X from the
    duals), right those of the right words (operators Y from v).  Raw vectors
    are ordered (left word, right word, alpha); the block of bra words (i, k)
    against ket words (j, l) is X Y when the right excess sits on the ket side
    and Y X when it sits on the bra side.  Only the blocks of two related
    pairs are stored.
    """
    from scipy.sparse import csr_array

    m = left.ops.shape[-1]
    (nbl, nkl), (nbr, nkr) = left.counts, right.counts
    x, y, ket = left.ops[:, None], right.ops, right.ket_side
    blocks = np.empty((len(left.ops), len(y), m, m), dtype=np.result_type(x, y))
    blocks[:, ket] = x @ y[ket]
    blocks[:, ~ket] = y[~ket] @ x
    shape = (nbl * nbr * m, nkl * nkr * m)
    index = index_dtype(max(*shape, blocks.size))
    alpha = np.arange(m, dtype=index)
    rows = (left.bra[:, None] * nbr + right.bra).astype(index)[..., None, None] * m
    cols = (left.ket[:, None] * nkr + right.ket).astype(index)[..., None, None] * m
    rows, cols = np.broadcast_arrays(rows + alpha[:, None], cols + alpha)
    out = csr_array((blocks.ravel(), (rows.ravel(), cols.ravel())), shape=shape)
    out.eliminate_zeros()
    return out


def _log2_pairs(d: int, level: int) -> float:
    """log2 of the number sum_k (2k+1) d^k of prefix-related word pairs."""
    if d == 1:
        return 2 * math.log2(level + 1)
    tail = (2 * level + 1) * d - 2 * level - 3 + (d + 1) * float(d) ** -(level + 1)
    return (level + 1) * math.log2(d) - 2 * math.log2(d - 1) + math.log2(tail)


def held_bytes(d: int, m: int, level: int) -> tuple:
    """log2 of the bytes the check holds at level L, from closed forms.

    Three transients peak in turn: at most 128 bytes per entry of the P^2
    Gram blocks of size m x m (with Q^H Q and G - Q^H Q), 80 per entry of
    moment_check's W^2 vectors in C^q, W the number of words shorter than L,
    and 48 per slot of check_relations' norm passes, counted as if the
    entries of all 4d^2 + 2 relation operators and of their interior
    restrictions were held at once, with their 3q + q/d^2 < 4q rows and
    columns indexed (the check holds one relation family at a time, so this
    bounds it from above).  Each relation operator maps the raw vectors of
    one word pair into those of one other pair, with at most d m stored
    entries per column, and an interior column has d^2 m entries, so the
    restriction has at most m q: (d m + m + 4) q slots per relation.
    Held throughout: Q, the compressions and their adjoints, V and the
    interior and covariance domains, with (5d + 2 + (L+1)^2) m stored
    entries per column or fewer.
    Returns (Gram assembly, moment vectors, relation norms, held); the check
    needs the largest transient plus the held bytes.
    """
    log_q = 2 * level * math.log2(d) + math.log2(m)
    return (7 + 2 * (_log2_pairs(d, level) + math.log2(m)),
            math.log2(80) + 2 * log2_word_count(d, level - 1) + log_q,
            math.log2(48 * (4 * d * d + 2) * (d * m + m + 4)) + log_q,
            math.log2(24 * (5 * d + 2 + (level + 1) ** 2) * m) + log_q)


def build(md: ModularData, dual: DualSystem, level: int) -> TwoSidedRep:
    """Assemble the level-L truncated two-sided representation.

    The top raw vectors (both words of length L) have the identity as Gram
    block and span the shorter ones, as sum_k v_k v_k* = sum_k w_k w_k* = 1.
    The raw Gram G is one sparse matrix, Q its top rows.  Each shift
    compression has m nonzeros per column and is kept sparse, as is its
    adjoint, formed here once for all the checks.
    """
    if level < 2:
        raise ValueError("level must be >= 2")
    d, m = md.pi_ops.shape[0], md.gns_dim
    pairs, (*transients, held) = _log2_pairs(d, level), held_bytes(d, m, level)
    check_budget(np.logaddexp2(max(transients), held), f"level {level}",
                 "{} x {} word-pair blocks of the raw Gram, {} sparse shift "
                 "compressions and moment vectors of dimension {}", pairs,
                 pairs, math.log2(2 * d), 2 * level * math.log2(d) + math.log2(m))

    word_list = words(d, level)
    top = words(d, level, level)
    vtab = word_operators(md.pi_ops, level + 1)
    wtab = word_operators(dual.ops, level + 1)

    raw_index = tuple((lw, rw, alpha) for lw in word_list
                      for rw in word_list for alpha in range(m))

    # Left excess words contribute the duals w_E, right excess words v_F.
    gram = _gram(_pair_table(word_list, word_list, wtab),
                 _pair_table(word_list, word_list, vtab))
    quotient_map = gram[_positions(gram.shape[0], d, level, level, level)]
    # By Weyl's inequality -residual is a lower bound on lambda_min(G).
    residual = float(np.linalg.norm(
        (gram - quotient_map.conj().T.tocsr() @ quotient_map).data))
    if residual > FACTOR_RESIDUAL_HARD:
        raise TruncationError(
            f"Gram matrix does not factor through the top raw vectors "
            f"(residual {residual:.3e}); dual construction or convention error"
        )

    # S_k and Stilde_k prepend the letter k to the right and the left word,
    # so their compressions are the top-by-top blocks of the cross-Grams of
    # the raw basis against the shifted raw basis.
    left_top = _pair_table(top, top, wtab)
    right_top = _pair_table(top, top, vtab)
    right_ops, left_ops = [], []
    for k in range(d):
        ext = [(k,) + w for w in top]
        right_ops.append(_gram(left_top, _pair_table(top, ext, vtab)))
        left_ops.append(_gram(_pair_table(top, ext, wtab), right_top))

    corner = _domain(quotient_map, d, level, 0, 0).toarray()  # ((), (), alpha)
    right_adj, left_adj = _adjoints(right_ops), _adjoints(left_ops)
    shift = sum(a @ b for a, b in zip(right_ops, left_adj)).tocsr()

    return TwoSidedRep(
        level=level,
        raw_index=raw_index,
        gram_min_eigenvalue=-residual,
        quotient_map=quotient_map,
        right_ops=tuple(right_ops),
        left_ops=tuple(left_ops),
        right_adj=tuple(right_adj),
        left_adj=tuple(left_adj),
        corner=corner,
        omega=corner @ md.omega,
        shift=shift,
        interior=_domain(quotient_map, d, level, level - 1, level - 1),
    )


def _positions(size: int, d: int, level: int, left_len: int,
               right_len: int) -> np.ndarray:
    """Positions, among ``size`` raw vectors ordered (left word, right word,
    alpha), of those whose words have exactly these lengths."""
    nw = word_count(d, level)
    left = np.arange(word_count(d, left_len - 1), word_count(d, left_len))
    right = np.arange(word_count(d, right_len - 1), word_count(d, right_len))
    m = size // (nw * nw)
    return ((left[:, None] * nw + right)[..., None] * m + np.arange(m)).ravel()


def _domain(qmap, d: int, level: int, left_len: int, right_len: int):
    """ON basis (q, dim) of the span of raw vectors with shorter words, CSR:
    the columns of qmap for the words of exactly these lengths, which are
    orthonormal and span the shorter ones, as the top vectors do."""
    return qmap[:, _positions(qmap.shape[1], d, level, left_len, right_len)]


@dataclass(frozen=True)
class RelationReport:
    interior: dict
    boundary: dict

    def max_interior(self) -> float:
        return max(self.interior.values())


def _adjoints(ops) -> list:
    return [a.conj().T.tocsr() for a in ops]


def _tiled(ops, places, width: int):
    """CSR matrix of row tiles, one per (k, b) in ``places``: ops[k] (CSR)
    moved right by b * width columns.

    The entries are copied in their stored order, so the product of this
    matrix with a stack of tiles of height ``width`` computes each row of
    tile (k, b) exactly as ops[k] times tile b alone does.
    """
    from scipy.sparse import csr_array

    tiles = [ops[k] for k, _ in places]
    shifts = [b * width for _, b in places]
    nnz = np.array([a.nnz for a in tiles])
    shape = (sum(a.shape[0] for a in tiles),
             max(a.shape[1] + shift for a, shift in zip(tiles, shifts)))
    index = index_dtype(max(*shape, nnz.sum()))
    indptr = np.concatenate([[0]] + [a.indptr[1:] + start for a, start
                                     in zip(tiles, np.cumsum(nnz) - nnz)])
    indices = np.concatenate([a.indices.astype(index) + shift
                              for a, shift in zip(tiles, shifts)])
    data = np.concatenate([a.data for a in tiles])
    return csr_array((data, indices, indptr.astype(index)), shape=shape)


def _stack(ops):
    """CSR matrix of the CSR matrices ops stacked as row tiles."""
    return _tiled(ops, [(k, 0) for k in range(len(ops))], 0)


def _pairs(d: int) -> list:
    """The letter pairs (i, j), i major: the order of the tiles of a family."""
    return [(i, j) for i in range(d) for j in range(d)]


def check_relations(rep: TwoSidedRep) -> RelationReport:
    """Isometry, completeness, and commutation residuals.

    Interior residuals are exact statements of the inductive-limit relations
    and must be small; boundary residuals quantify the truncation and are
    reported separately.  Each relation family over the letter pairs (i, j)
    is one stacked CSR product, with the operator of (i, j) as its tile
    i d + j, and delta_ij is subtracted once from the stack; each row of a
    tile is accumulated as in the product of that pair alone.  The two
    completeness operators form one more stack of two tiles.  The families
    are formed and measured one at a time: the stack times the interior
    basis and the stack itself go through one block-norm pass together.
    """
    from scipy.sparse import csr_array, eye_array

    d, q = rep.d, rep.quotient_dim
    s, st, s_adj, st_adj = rep.right_ops, rep.left_ops, rep.right_adj, rep.left_adj
    pairs = _pairs(d)
    swapped = [(j, i) for i, j in pairs]
    s_col, st_col, st_adj_col = _stack(s), _stack(st), _stack(st_adj)
    eye = eye_array(q, format="csr")
    delta = _stack([eye if i == j else csr_array((q, q)) for i, j in pairs])

    def families():
        # the keys of a family's tiles, then the family; tile i d + j is (i, j)
        yield ["right_isometry"] * d * d, _tiled(s_adj, pairs, q) @ s_col - delta
        yield ["left_isometry"] * d * d, _tiled(st_adj, pairs, q) @ st_col - delta
        # S_i Stilde_j - Stilde_j S_i, and with Stilde_j*
        yield ["commutation"] * d * d, (_tiled(s, pairs, q) @ st_col
                                        - _tiled(st, swapped, q) @ s_col)
        yield ["star_commutation"] * d * d, (_tiled(s, pairs, q) @ st_adj_col
                                             - _tiled(st_adj, swapped, q) @ s_col)
        yield ["right_completeness", "left_completeness"], _stack(
            [sum(a @ b for a, b in zip(s, s_adj)) - eye,
             sum(a @ b for a, b in zip(st, st_adj)) - eye])

    interior, boundary = {}, {}
    for keys, x in families():
        both = _stack([x @ rep.interior, x])
        del x  # dropped before the next family is formed
        norms = spectral_norms(both, [q] * 2 * len(keys)).reshape(2, -1)
        for key, inner, outer in zip(keys, *norms.tolist()):
            interior[key] = max(interior.get(key, 0.0), inner)
            boundary[key] = max(boundary.get(key, 0.0), outer)
    return RelationReport(interior=interior, boundary=boundary)


def compression_residual(rep: TwoSidedRep) -> float:
    """max_i |S_i* P - P S_i* P| and the same for the left family.

    P = C C^H for the (q, m) corner C.  With C = QR the operator is
    (1 - P) S_i* C R^H Q^H, and Q^H is a coisometry, so its norm is that of
    the (q, m) matrix (1 - P) S_i* C R^H.
    """
    c = rep.corner
    r_adj = dag(np.linalg.qr(c, mode="r"))

    def operators():
        for a in rep.right_adj + rep.left_adj:
            x = a @ c
            yield (x - c @ (dag(c) @ x)) @ r_adj

    return max(0.0, *spectral_norms(operators()).tolist())


def _shifted_vectors(ops, adj, word_list, omega, rows) -> np.ndarray:
    """vecs[rows[x, y]] = T_x T_y* omega for T the forward word products of
    ops (adjoints adj) and x, y positions in word_list, filled in place into
    one (W^2, q)
    array; rows is a (W, W) arrangement of range(W^2) that fixes the row of
    each pair.

    The words are ordered by length, so T_y* omega = T_k* T_y'* omega for
    y = y' + (k,) and T_x u = T_k T_x' u for x = (k,) + x' are built from
    shorter words: one sparse operator-vector product per y, then one sparse
    product per x with the W vectors of x' at once.
    """
    index = {w: i for i, w in enumerate(word_list)}
    vecs = np.empty((rows.size, len(omega)),
                    dtype=np.result_type(omega, *(a.dtype for a in ops)))
    down = rows[0]  # the vectors T_y* omega of the empty word x = ()
    vecs[down[0]] = omega
    for w in word_list[1:]:
        vecs[down[index[w]]] = adj[w[-1]] @ vecs[down[index[w[:-1]]]]
    for w in word_list[1:]:
        vecs[rows[index[w]]] = (ops[w[0]] @ vecs[rows[index[w[1:]]]].T).T
    return vecs


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
    # the vectors of the pairs (a, b) take the first rows, in order, so each
    # family's Gram factor is a leading slice of its array
    rows = np.full((len(ws), len(ws)), a.size)
    rows[a, b] = np.arange(a.size)
    rows[rows == a.size] = np.arange(a.size, rows.size)
    # left pair (x, y) stands for la = x reversed and lb = y reversed
    left = _shifted_vectors(rep.left_ops, rep.left_adj, [w[::-1] for w in ws],
                            rep.omega, rows.T)[:a.size]
    right = _shifted_vectors(rep.right_ops, rep.right_adj, ws, rep.omega,
                             rows)[:a.size]
    got = np.conj(left, out=left) @ right.T
    del left, right  # freed before the moment table is built
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
    stay inside the truncation.  The covariance family over the letter
    pairs (i, j) is formed on the domain's basis as stacked CSR products,
    tile i d + j for (i, j), each row accumulated as for that pair alone;
    its norms and that of the isometry defect are taken in one block-norm
    pass.
    """
    v = rep.shift
    interior = rep.interior
    omega_res = float(np.linalg.norm(v @ rep.omega - rep.omega))

    d, q = rep.d, rep.quotient_dim
    dom = _domain(rep.quotient_map, d, rep.level, rep.level - 1, rep.level - 2)
    pairs = _pairs(d)
    s, st, s_adj, st_adj = rep.right_ops, rep.left_ops, rep.right_adj, rep.left_adj
    # tile (i, j): (V x_left - x_right V) dom with x = T_i T_j* for each family
    left_dom = _tiled(st, pairs, q) @ (_stack(st_adj) @ dom)
    v_left_dom = _tiled([v], [(0, t) for t in range(d * d)], q) @ left_dom
    del left_dom
    right_v_dom = _tiled(s, pairs, q) @ (_stack(s_adj) @ (v @ dom))
    covariance = v_left_dom - right_v_dom
    del v_left_dom, right_v_dom
    isometry = (v.conj().T @ (v @ interior) - interior).tocsr()
    iso, *cov = spectral_norms(_stack([isometry, covariance]),
                               [q] * (1 + d * d)).tolist()
    return ShiftReport(isometry_residual=iso, omega_residual=omega_res,
                       covariance_residual=max(0.0, *cov))
