"""Dense linear-algebra substrate.

Hermitian eigenproblems, the spectral norms of the row tiles of a sparse
matrix from their connected blocks, spectral powers of positive
operators, antilinear operators represented as (matrix, implicit entrywise
conjugation) pairs, Kraus maps in the real Hermitian frame, and orthonormal
subspaces of n x n matrices under the Hilbert-Schmidt inner product
``<x, y> = Tr(x* y)``.

All inner products are linear in the second slot.  Vectorization of matrices
is row-major throughout: ``vec(A X B) = (A kron B^T) vec(X)``.

The Hermitian frame of n x n matrices is the real orthonormal basis

    E_ii,   (E_ij + E_ji) / sqrt(2),   i (E_ij - E_ji) / sqrt(2)   (i < j)

in this order.  A Hermitian matrix has real coordinates in it
(:func:`to_frame`), and real coordinates give back a Hermitian matrix
(:func:`from_frame`).  A map in Kraus form ``x -> sum_k a_k x a_k*``
preserves Hermiticity, so its matrix in the frame is real
(:func:`frame_super`); the frame is orthonormal, so that matrix has the
spectrum and the singular values of the map's complex matrix on vec(x).
Its eigenvalues and the kernel of its difference with 1
(:func:`solve_linear_space` with ``frame=True``) come from real LAPACK
routines.  Every kernel read off an SVD here, and the right and left kernels
of ``T_* - 1`` from which :func:`fcslab.systems.invariant_states` builds the
Cesaro projection, are cut by one rule (:func:`kernel_rank`).  Dense LAPACK
goes through NumPy only: SciPy's wheels ship a second OpenBLAS with its own
thread pool, and the two pools contend on a small host.

The range of a Hermitian positive semidefinite matrix of rank r is read off
a pivoted Cholesky factorization (:func:`psd_range`): r steps of O(N r)
each on an N x N matrix, then one QR of the N x r factor, instead of a full
O(N^3) eigendecomposition.  The matrix enters through its diagonal and a
column callback, so only its r pivot columns are ever formed.  Pivoting on
the largest residual diagonal makes the rank decision stable for
semidefinite input (Higham, "Analysis of the Cholesky decomposition of a
semi-definite matrix", 1990).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DEFAULT_TOL = 1e-9
KERNEL_TOL = 1e-9
SUBSPACE_TOL = 1e-8
# complex entries in one block of images held by frame_super
_IMAGE_BLOCK = 2**15


class NonHermitianError(ValueError):
    """Input matrix fails the Hermiticity check beyond tolerance."""


class NotPositiveError(ValueError):
    """Input matrix has negative spectrum beyond tolerance."""


def as_complex(a) -> np.ndarray:
    return np.asarray(a, dtype=np.complex128)


def dag(a: np.ndarray) -> np.ndarray:
    """Adjoint of a matrix, or of each matrix in a stack (..., n, n)."""
    return np.conj(np.swapaxes(a, -1, -2))


def herm_eig(h, tol: float = DEFAULT_TOL):
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(w, u)`` with eigenvalues ``w`` ascending and unitary
    eigenvector columns ``u`` such that ``h = u diag(w) u*``.

    Raises
    ------
    NonHermitianError
        if ``|h - h*|`` exceeds ``tol`` relative to the scale of ``h``.
    """
    h = as_complex(h)
    scale = max(1.0, float(np.linalg.norm(h)))
    residual = float(np.linalg.norm(h - dag(h)))
    if residual > tol * scale:
        raise NonHermitianError(
            f"matrix is not Hermitian: |H - H*| = {residual:.3e} "
            f"(tol {tol:.1e}, scale {scale:.3e})"
        )
    w, u = np.linalg.eigh((h + dag(h)) / 2.0)
    return w, u


def index_dtype(size: int):
    """32-bit integers for indices below ``size`` when they fit."""
    return np.int32 if size < 2**31 else np.intp


def _block_norms(blocks) -> np.ndarray:
    """Largest singular value of each block of a stack (n, r, c) with a
    nonzero entry in every block: the root of the largest eigenvalue of the
    smaller Gram matrix, B* B or B B*.  Each block is first divided by its
    largest modulus, so the Gram entries are at most min(r, c) and only
    entries negligible against the largest can underflow in it."""
    scale = np.max(np.abs(blocks), axis=(1, 2))
    b = blocks / scale[:, None, None]
    b_adj = np.conj(np.swapaxes(b, 1, 2))
    gram = b_adj @ b if b.shape[1] >= b.shape[2] else b @ b_adj
    return scale * np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[:, -1], 0.0))


def spectral_norms(x, height: int) -> np.ndarray:
    """Operator 2-norms of the row tiles of a CSR matrix, in one pass.

    ``x`` (scipy.sparse CSR) is stacked from row tiles of ``height`` rows
    each: row i lies in tile ``i // height``.  Explicit zeros among its
    stored entries count as absent.

    The columns of tile t are moved to a range of their own (t times the
    width on), so the tiles are the diagonal blocks of a direct sum.  Rows
    and columns of the sum joined by an exact nonzero form the connected
    components of a bipartite graph, each inside one tile.  Permuting rows
    and columns into block-diagonal form changes no singular value, so each
    norm is the largest norm of its tile's component blocks, and rows or
    columns without entries add nothing.  The blocks are laid out one after
    another in one buffer, grouped by shape and kind (real when none of its
    entries has an imaginary part), and each group takes one batched
    :func:`_block_norms`, whatever tiles its blocks come from: a block gets
    the same arithmetic on the same entries as in a pass of its tile alone.
    Round-off nonzeros only merge components.
    """
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import connected_components

    r, c = x.shape
    out = np.zeros(r // height)
    rows = np.repeat(np.arange(r), np.diff(x.indptr))
    keep = x.data != 0
    rows, cols, vals = rows[keep], x.indices[keep], x.data[keep]
    if not vals.size:
        return out
    size = r + out.size * c  # the rows, then each tile's columns
    index = index_dtype(size)
    tile = np.arange(r, dtype=index) // height
    rows = rows.astype(index, copy=False)
    cols = cols.astype(index)
    cols += tile[rows] * c
    # rows are in order, so the graph's row pointers are cumulative counts
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=size))])
    graph = csr_array((np.ones(rows.size), cols + r, indptr), shape=(size,) * 2)
    ncomp, label = connected_components(graph, directed=False)
    del graph, indptr

    def local(labels):
        # position of each row (column) among those of its component
        counts = np.bincount(labels, minlength=ncomp)
        pos = np.empty(labels.size, dtype=np.intp)
        pos[np.argsort(labels, kind="stable")] = (
            np.arange(labels.size) - np.repeat(np.cumsum(counts) - counts, counts))
        return counts, pos

    (nrow, row_pos), (ncol, col_pos) = local(label[:r]), local(label[r:])
    comp = label[rows]
    # the tile each component lies in, read off its rows
    owner = np.zeros(ncomp, dtype=np.intp)
    owner[label[:r]] = tile
    real = np.ones(ncomp, dtype=bool)
    if np.iscomplexobj(vals):
        real[comp[vals.imag != 0]] = False
    # one key per block shape and kind; rows or columns without entries are
    # components with empty blocks
    group = 2 * (nrow * (c + 1) + ncol) + real
    order = np.argsort(group, kind="stable")
    size = (nrow * ncol)[order]
    offset = np.empty(ncomp, dtype=np.intp)
    offset[order] = np.cumsum(size) - size
    # position of each entry in the buffer, built in place
    flat = row_pos[rows]
    flat *= ncol[comp]
    flat += offset[comp]
    flat += col_pos[cols]
    del rows, cols, comp, row_pos, col_pos
    buf = np.zeros(int(size.sum()), dtype=vals.dtype)
    buf[flat] = vals
    del vals, flat
    keys, first, count = np.unique(group[order], return_index=True,
                                   return_counts=True)
    for key, i, n in zip(keys, first, count):
        (nr, nc), is_real = divmod(key // 2, c + 1), key % 2
        if not nr * nc:
            continue
        at = offset[order[i]]
        blocks = buf[at:at + n * nr * nc].reshape(n, nr, nc)
        np.maximum.at(out, owner[order[i:i + n]],
                      _block_norms(blocks.real if is_real else blocks))
    return out


def pos_power(p, z, tol: float = DEFAULT_TOL, support_eps: float = 1e-12):
    """Spectral power ``p^z`` of a positive semidefinite matrix.

    Eigenvalues below the support cutoff are treated as zero; the result is
    the spectral calculus on the support.  A negative-real exponent on a
    singular matrix is rejected.
    """
    z = complex(z)
    w, u = herm_eig(p, tol=tol)
    top = max(float(w[-1]), 0.0) if w.size else 0.0
    if w.size and w[0] < -tol * max(1.0, top):
        raise NotPositiveError(f"matrix has negative eigenvalue {w[0]:.3e}")
    cutoff = support_eps * max(1.0, top)
    on_support = w > cutoff
    if z.real < 0 and not bool(on_support.all()):
        raise NotPositiveError(
            "negative-real exponent requested for a singular matrix"
        )
    powered = np.zeros_like(w, dtype=np.complex128)
    wz = np.where(on_support, w, 1.0).astype(np.complex128)
    powered[on_support] = np.exp(z * np.log(wz[on_support]))
    if z == 0:
        powered = on_support.astype(np.complex128)
    return u @ np.diag(powered) @ dag(u)


@dataclass(frozen=True)
class AntilinearOp:
    """Antilinear operator ``xi -> mat . conj(xi)`` in a fixed basis.

    The adjoint, defined through ``<A* eta, xi> = <A xi, eta>``, has matrix
    ``mat^T``.  Composition of two antilinear operators is linear with
    matrix ``mat_A . conj(mat_B)``.
    """

    mat: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mat", as_complex(self.mat))

    def __call__(self, xi: np.ndarray) -> np.ndarray:
        return self.mat @ np.conj(xi)

    def compose(self, other: "AntilinearOp") -> np.ndarray:
        """A o B for antilinear A, B: a linear operator (plain matrix)."""
        return self.mat @ np.conj(other.mat)

    def after_linear(self, lin: np.ndarray) -> "AntilinearOp":
        """A o L for linear L."""
        return AntilinearOp(self.mat @ np.conj(as_complex(lin)))

    def sandwich(self, lin: np.ndarray) -> np.ndarray:
        """A o L o A for linear L: linear with matrix mat conj(L) conj(mat)."""
        return self.mat @ np.conj(as_complex(lin)) @ np.conj(self.mat)


def vec(x: np.ndarray) -> np.ndarray:
    return np.asarray(x).reshape(-1)


def unvec(xi: np.ndarray, n: int) -> np.ndarray:
    return np.asarray(xi).reshape(n, n)


def sandwich_super(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Superoperator of ``x -> a x b``."""
    return np.kron(a, b.T)


def to_frame(x) -> np.ndarray:
    """Real frame coordinates (..., n^2) of Hermitian matrices (..., n, n):
    the diagonal, then sqrt(2) Re x_ij and sqrt(2) Im x_ij for i < j."""
    x = as_complex(x)
    n = x.shape[-1]
    i, j = np.triu_indices(n, 1)
    diag = np.arange(n)
    upper = np.sqrt(2.0) * x[..., i, j]
    return np.concatenate([x[..., diag, diag].real, upper.real, upper.imag],
                          axis=-1)


def from_frame(coords, n: int) -> np.ndarray:
    """Hermitian matrices (..., n, n) with real frame coordinates (..., n^2);
    the inverse of :func:`to_frame`."""
    coords = np.asarray(coords, dtype=np.float64)
    i, j = np.triu_indices(n, 1)
    diag = np.arange(n)
    re, im = coords[..., n:n + i.size], coords[..., n + i.size:]
    upper = np.sqrt(0.5) * (re + 1j * im)
    x = np.zeros(coords.shape[:-1] + (n, n), dtype=np.complex128)
    x[..., diag, diag] = coords[..., :n]
    x[..., i, j] = upper
    x[..., j, i] = upper.conj()
    return x


def frame_super(kraus) -> np.ndarray:
    """Real n^2 x n^2 matrix of ``x -> sum_k a_k x a_k*`` in the Hermitian
    frame: column l holds the frame coordinates of the image of the l-th
    frame element.

    The matrix is filled one block of rows k at a time: the images
    ``sum_a a[:, k] a[:, l]*`` of E_kl for the block's k and l >= k give the
    columns of E_kk and of the pairs (k, l), and the image of E_lk is the
    adjoint of that of E_kl.  A block holds about ``_IMAGE_BLOCK`` complex
    entries, so no complex n^4 array is formed: small n takes one block and
    n >= 32 one k per block.
    """
    kraus = as_complex(kraus)
    n = kraus.shape[-1]
    h = np.sqrt(0.5)
    i, j = np.triu_indices(n, 1)
    pairs = i.size
    out = np.empty((n * n, n * n))
    step = max(1, _IMAGE_BLOCK // n**3)
    conj = kraus.conj()
    for k0 in range(0, n, step):
        k1 = min(n, k0 + step)
        # s[k - k0, l - k0] is the image of E_kl, for k0 <= k < k1, l >= k0
        s = np.einsum("aik,ajl->klij", kraus[:, :, k0:k1], conj[:, :, k0:])
        p0, p1 = np.searchsorted(i, [k0, k1])  # the pairs (k, l), k0 <= k < k1
        upper = s[i[p0:p1] - k0, j[p0:p1] - k0]
        lower = dag(upper)
        rows = k1 - k0
        diag = np.arange(rows)
        block = to_frame(np.concatenate(
            [s[diag, diag], h * (upper + lower), 1j * h * (upper - lower)]))
        out[:, k0:k1] = block[:rows].T
        out[:, n + p0:n + p1] = block[rows:rows + p1 - p0].T
        out[:, n + pairs + p0:n + pairs + p1] = block[rows + p1 - p0:].T
    return out


def psd_range(diag, column, tol: float = KERNEL_TOL) -> np.ndarray:
    """Orthonormal columns spanning the range of a Hermitian positive
    semidefinite N x N matrix h, by pivoted Cholesky.

    The matrix is given by its real diagonal (length N) and a callback
    ``column(j)`` returning column j of h, so h need not be formed: only the
    r pivot columns are asked for.  Each step takes the column with the
    largest residual diagonal, subtracts the factor columns found so far,
    scales it by the root of its pivot and lowers the residual diagonal by
    its squared moduli.  The loop stops when the largest residual is at most
    ``tol * max(1, max diag h)``; the r factor columns found are
    combinations of columns of h, and one QR makes them orthonormal.  The
    factor buffer doubles as the rank grows, so it holds at most 2r rows of
    length N.  Returns an array of shape (N, r).
    """
    residual = np.real(diag).astype(np.float64)
    size = residual.size
    cutoff = tol * max(1.0, float(np.max(residual, initial=0.0)))
    factor = np.empty((0, size), dtype=np.complex128)  # columns as rows
    rank = 0
    while rank < size:
        pivot = int(np.argmax(residual))
        if residual[pivot] <= cutoff:
            break
        if rank == factor.shape[0]:
            grown = np.empty((min(size, max(8, 2 * rank)), size),
                             dtype=factor.dtype)
            grown[:rank] = factor
            factor = grown
        col = column(pivot) - np.conj(factor[:rank, pivot]) @ factor[:rank]
        col /= np.sqrt(residual[pivot])
        factor[rank] = col
        residual -= np.abs(col) ** 2
        rank += 1
    return np.linalg.qr(factor[:rank].T)[0]


def orthonormalize_matrices(mats, tol: float = KERNEL_TOL) -> np.ndarray:
    """Orthonormal Hilbert-Schmidt basis of span(mats), shape (k, n, n).

    ``mats`` is a stack (k, n, n) or a sequence of n x n matrices."""
    mats = as_complex(mats)
    if not mats.size:
        return np.zeros((0, 0, 0), dtype=np.complex128)
    k, n = mats.shape[0], mats.shape[-1]
    _, s, vh = np.linalg.svd(mats.reshape(k, n * n), full_matrices=False)
    rank = kernel_rank(s, tol)
    return vh[:rank].reshape(rank, n, n)


@dataclass(frozen=True)
class OperatorSubspace:
    """Linear subspace of n x n matrices with an orthonormal HS basis."""

    ambient_dim: int
    basis: np.ndarray = field(repr=False)  # (k, n, n)

    def __post_init__(self):
        n = self.ambient_dim
        object.__setattr__(self, "basis", as_complex(self.basis).reshape(-1, n, n))

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def rows(self) -> np.ndarray:
        """The basis as vec'd rows, shape (k, n^2)."""
        return self.basis.reshape(self.dim, self.ambient_dim**2)

    @classmethod
    def from_matrices(cls, mats, ambient_dim: int, tol: float = KERNEL_TOL):
        return cls(ambient_dim=ambient_dim,
                   basis=orthonormalize_matrices(mats, tol=tol))

    def contains(self, x, tol: float = SUBSPACE_TOL):
        """Membership test; returns (bool, residual norm)."""
        xv = vec(as_complex(x))
        r = float(np.linalg.norm(outside_component(xv[:, None], self)))
        scale = max(1.0, float(np.linalg.norm(xv)))
        return r <= tol * scale, r

    def is_star_closed(self, tol: float = SUBSPACE_TOL) -> bool:
        adjoints = np.conj(self.basis.transpose(0, 2, 1)).reshape(self.rows.shape)
        res = outside_component(adjoints.T, self)
        return bool(np.all(np.linalg.norm(res, axis=0) <= tol))


def outside_component(cols: np.ndarray, space: OperatorSubspace) -> np.ndarray:
    """Component of the vec'd columns ``cols`` (n^2 x k) orthogonal to space."""
    b = space.rows
    return cols - b.T @ (np.conj(b) @ cols)


def kernel_rank(s: np.ndarray, tol: float = KERNEL_TOL) -> int:
    """Numerical rank from descending singular values ``s``: those above
    ``tol * max(1, s[0])`` count, the rest span the kernel."""
    smax = max(1.0, float(s[0]) if s.size else 1.0)
    return int(np.sum(s > tol * smax))


def solve_linear_space(constraints, ambient_dim: int,
                       tol: float = KERNEL_TOL,
                       frame: bool = False) -> OperatorSubspace:
    """Joint kernel of linear maps on n x n matrices.

    Each constraint is an ``n^2 x n^2`` matrix acting on vec(x), or, with
    ``frame=True``, a real matrix acting on the Hermitian-frame coordinates
    of x (:func:`to_frame`); the kernel then has a basis of Hermitian
    matrices, found by a real decomposition.  The empty constraint list
    yields the full matrix space.
    """
    constraints = [np.asarray(c) for c in constraints]
    if not constraints:
        return OperatorSubspace(ambient_dim=ambient_dim,
                                basis=np.eye(ambient_dim**2))
    # one constraint is used as it is: stacking would copy it
    stacked = constraints[0] if len(constraints) == 1 else np.vstack(constraints)
    # the stack has at least n^2 rows, so the reduced decomposition still
    # carries the full right-singular basis needed for the kernel
    _, s, vh = np.linalg.svd(stacked, full_matrices=False)
    rank = kernel_rank(s, tol)
    kernel = from_frame(vh[rank:], ambient_dim) if frame else vh[rank:].conj()
    return OperatorSubspace(ambient_dim=ambient_dim, basis=kernel)


def subspace_contains(inner: OperatorSubspace, outer: OperatorSubspace,
                      tol: float = SUBSPACE_TOL):
    """Whether inner is contained in outer; returns (bool, residual), the
    2-norm of inner's basis outside outer (sine of the largest angle)."""
    if inner.ambient_dim != outer.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    if inner.dim == 0:
        return True, 0.0
    residual = float(np.linalg.norm(
        outside_component(inner.rows.T, outer), ord=2))
    return residual <= tol, residual


def subspace_equal(a: OperatorSubspace, b: OperatorSubspace,
                   tol: float = SUBSPACE_TOL):
    """Subspace equality via mutual containment; returns (bool, max angle)."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    _, r_ab = subspace_contains(a, b, tol=tol)
    _, r_ba = subspace_contains(b, a, tol=tol)
    residual = max(r_ab, r_ba)
    max_angle = float(np.arcsin(min(1.0, residual)))
    return residual <= tol, max_angle


def subspace_intersection(a: OperatorSubspace, b: OperatorSubspace,
                          tol: float = KERNEL_TOL) -> OperatorSubspace:
    """Intersection of two subspaces of the same ambient matrix space: the
    kernel of a's basis outside b, mapped back through a's basis."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    if a.dim == 0:
        return a
    _, s, vh = np.linalg.svd(outside_component(a.rows.T, b),
                             full_matrices=False)
    rank = kernel_rank(s, tol)
    coeffs = vh[rank:].conj()
    return OperatorSubspace(ambient_dim=a.ambient_dim, basis=coeffs @ a.rows)
