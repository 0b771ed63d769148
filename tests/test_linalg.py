import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_array

from fcslab import linalg
from fcslab.linalg import AntilinearOp, dag


def random_matrix(n, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


class TestAntilinearOp:
    def test_action_is_antilinear(self):
        op = AntilinearOp(random_matrix(3, 0))
        x = random_matrix(3, 1)[:, 0]
        y = random_matrix(3, 2)[:, 0]
        lhs = op(2j * x + 3 * y)
        rhs = np.conj(2j) * op(x) + 3 * op(y)
        assert np.linalg.norm(lhs - rhs) < 1e-12

    def test_compose_is_linear(self):
        a = AntilinearOp(random_matrix(3, 6))
        b = AntilinearOp(random_matrix(3, 7))
        x = random_matrix(3, 8)[:, 0]
        lhs = a(b(1j * x))
        rhs = 1j * (a.compose(b) @ x)
        assert np.linalg.norm(lhs - rhs) < 1e-12

    def test_sandwich(self):
        j = AntilinearOp(np.eye(2))
        x = random_matrix(2, 9)
        # with mat = identity the sandwich is entrywise conjugation
        assert np.allclose(j.sandwich(x), np.conj(x))


class TestPosPower:
    def test_inverse_square_root(self):
        m = random_matrix(4, 10)
        p = m @ dag(m) + np.eye(4)
        r = linalg.pos_power(p, -0.5)
        assert np.linalg.norm(r @ p @ r - np.eye(4)) < 1e-10

    def test_singular_support_power(self):
        p = np.diag([2.0, 0.0]).astype(complex)
        r = linalg.pos_power(p, 0.5)
        assert np.allclose(r, np.diag([np.sqrt(2.0), 0.0]))

    def test_negative_power_of_singular_rejected(self):
        p = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(linalg.NotPositiveError):
            linalg.pos_power(p, -1.0)

    def test_non_hermitian_rejected(self):
        with pytest.raises(linalg.NonHermitianError):
            linalg.pos_power(np.array([[0, 1], [0, 0]], dtype=complex), 0.5)


class TestVectorization:
    def test_roundtrip(self):
        x = random_matrix(3, 11)
        assert np.allclose(linalg.unvec(linalg.vec(x), 3), x)

    def test_sandwich_super(self):
        a = random_matrix(3, 12)
        b = random_matrix(3, 13)
        x = random_matrix(3, 14)
        lhs = linalg.unvec(linalg.sandwich_super(a, b) @ linalg.vec(x), 3)
        assert np.linalg.norm(lhs - a @ x @ b) < 1e-12


class TestOperatorSubspace:
    def test_contains_and_projector(self):
        mats = [np.eye(2, dtype=complex), np.diag([1.0, -1.0]).astype(complex)]
        space = linalg.OperatorSubspace.from_matrices(mats, 2)
        ok, res = space.contains(np.diag([3.0, 7.0]).astype(complex))
        assert ok and res < 1e-12
        ok, res = space.contains(np.array([[0, 1], [0, 0]], dtype=complex))
        assert not ok and res > 0.5

    def test_star_closed(self):
        diag = linalg.OperatorSubspace.from_matrices(
            [np.eye(2, dtype=complex), np.diag([1j, 0]).astype(complex)], 2)
        assert diag.is_star_closed()
        raising = linalg.OperatorSubspace.from_matrices(
            [np.array([[0, 1], [0, 0]], dtype=complex)], 2)
        assert not raising.is_star_closed()

    def test_solve_linear_space_kernel(self):
        # commutant of sigma_z inside M_2: the diagonal
        sz = np.diag([1.0, -1.0]).astype(complex)
        eye = np.eye(2)
        constraint = (linalg.sandwich_super(sz, eye)
                      - linalg.sandwich_super(eye, sz))
        space = linalg.solve_linear_space([constraint], 2)
        assert space.dim == 2
        ok, _ = space.contains(np.diag([1.0, 5.0]).astype(complex))
        assert ok

    def test_subspace_equal_and_contains(self):
        a = linalg.OperatorSubspace.from_matrices(
            [np.eye(2, dtype=complex)], 2)
        b = linalg.OperatorSubspace.from_matrices(
            [np.eye(2, dtype=complex), np.diag([1.0, -1.0]).astype(complex)], 2)
        ok, _ = linalg.subspace_contains(a, b)
        assert ok
        eq, angle = linalg.subspace_equal(a, b)
        assert not eq and angle > 0.5

    def test_orthonormalize_takes_a_stack_or_a_list(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(5, 3, 3)) + 1j * rng.normal(size=(5, 3, 3))
        x[4] = x[0] - 2j * x[1]  # rank 4
        stacked = linalg.orthonormalize_matrices(x)
        assert stacked.shape == (4, 3, 3)
        assert np.array_equal(stacked, linalg.orthonormalize_matrices(list(x)))
        rows = stacked.reshape(4, 9)
        assert np.max(np.abs(np.conj(rows) @ rows.T - np.eye(4))) <= 1e-14
        assert linalg.orthonormalize_matrices([]).shape == (0, 0, 0)


# blocks of a block-diagonal matrix: (rows, cols, share of nonzero entries)
_BLOCKS = st.lists(st.tuples(st.integers(1, 6), st.integers(1, 6),
                             st.sampled_from([0.3, 0.7, 1.0])),
                   min_size=1, max_size=8)


def _permuted_block_diagonal(blocks, seed):
    rng = np.random.default_rng(seed)
    r = sum(b[0] for b in blocks) + int(rng.integers(0, 3))  # zero rows
    c = sum(b[1] for b in blocks) + int(rng.integers(0, 3))  # zero columns
    x = np.zeros((r, c), dtype=np.complex128)
    i = j = 0
    for rows, cols, share in blocks:
        block = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
        x[i:i + rows, j:j + cols] = block * (rng.random((rows, cols)) < share)
        i, j = i + rows, j + cols
    return x[rng.permutation(r)][:, rng.permutation(c)]


class TestSpectralNorm:
    @pytest.mark.parametrize("sparse", [False, True], ids=["ndarray", "csr"])
    @settings(max_examples=60, deadline=None)
    @given(blocks=_BLOCKS, seed=st.integers(0, 2**32 - 1))
    def test_matches_dense_svd(self, sparse, blocks, seed):
        x = _permuted_block_diagonal(blocks, seed)
        want = np.linalg.norm(x, 2)
        got = linalg.spectral_norm(csr_array(x) if sparse else x)
        assert abs(got - want) <= 1e-12 * want

    @pytest.mark.parametrize("sparse", [False, True], ids=["ndarray", "csr"])
    def test_zero_and_dense(self, sparse):
        def as_input(x):
            return csr_array(x) if sparse else x

        assert linalg.spectral_norm(as_input(np.zeros((4, 7)))) == 0.0
        rng = np.random.default_rng(3)
        dense = rng.normal(size=(9, 5)) + 1j * rng.normal(size=(9, 5))
        got = linalg.spectral_norm(as_input(dense))
        assert abs(got - np.linalg.norm(dense, 2)) <= 1e-12 * got


def _assert_norms(ops):
    """One pass over ops against one call per operator (bitwise) and
    against the dense SVD."""
    got = linalg.spectral_norms(ops)
    assert got.shape == (len(ops),)
    for norm, x in zip(got, ops):
        assert norm == linalg.spectral_norm(x)
        want = np.linalg.norm(x.toarray() if hasattr(x, "toarray") else x, 2)
        assert abs(norm - want) <= 1e-13 * max(1.0, want)


class TestSpectralNorms:
    def test_no_operators(self):
        assert linalg.spectral_norms([]).shape == (0,)
        assert linalg.spectral_norms(iter([])).shape == (0,)

    def test_zero_operators(self):
        ops = [np.zeros((3, 5)), csr_array((4, 2), dtype=complex),
               csr_array(np.zeros((2, 2)))]
        assert np.array_equal(linalg.spectral_norms(ops), np.zeros(3))
        rng = np.random.default_rng(1)
        _assert_norms(ops[:2] + [rng.normal(size=(3, 3))] + ops[2:])

    def test_empty_rows_and_columns(self):
        rng = np.random.default_rng(2)
        x = np.zeros((6, 5), dtype=complex)
        x[[1, 4]] = rng.normal(size=(2, 5)) + 1j * rng.normal(size=(2, 5))
        x[:, 2] = 0.0
        y = np.zeros((5, 7))
        y[:, [0, 6]] = rng.normal(size=(5, 2))
        y[3] = 0.0
        _assert_norms([x, csr_array(x), y, csr_array(y), np.zeros((0, 4)),
                       csr_array((3, 0))])

    def test_mixed_inputs(self):
        rng = np.random.default_rng(3)
        ops = []
        for k, (r, c) in enumerate([(4, 4), (2, 7), (9, 3), (1, 1), (5, 6)]):
            x = rng.normal(size=(r, c)) * (rng.random((r, c)) < 0.5)
            if k % 2:
                x = x + 1j * rng.normal(size=(r, c)) * (x != 0)
            ops.append(csr_array(x) if k % 3 else x)
        _assert_norms(ops)
        _assert_norms(ops[::-1])

    def test_consumes_an_iterator(self):
        rng = np.random.default_rng(4)
        ops = [rng.normal(size=(3, 4)), csr_array(rng.normal(size=(2, 2)))]
        assert np.array_equal(linalg.spectral_norms(iter(ops)),
                              linalg.spectral_norms(ops))

    def test_tiles_of_a_stack_stay_apart(self):
        # the two rows share their columns, but each is a tile of its own
        got = linalg.spectral_norms(csr_array(np.ones((2, 2))), [1, 1])
        assert np.allclose(got, [np.sqrt(2.0)] * 2, rtol=1e-15, atol=0)
        assert linalg.spectral_norms(np.ones((2, 2)), [2]) == pytest.approx(2.0)

    @pytest.mark.parametrize("scale", [1e-200, 1e-160, 1e150, 1e200])
    def test_extreme_scales(self, scale):
        # each block is scaled by its largest entry before its Gram matrix
        # is formed, so squared entries neither underflow nor overflow
        rng = np.random.default_rng(7)
        ops = []
        for r, c in [(7, 3), (3, 7), (5, 5), (1, 4), (4, 1)]:
            x = scale * rng.normal(size=(r, c))
            y = x + 1j * scale * rng.normal(size=(r, c))
            ops += [x, csr_array(y), y]
        ops += [np.zeros((4, 2)), csr_array((3, 3), dtype=complex)]
        got = linalg.spectral_norms(ops)
        for norm, x in zip(got, ops):
            want = np.linalg.norm(x.toarray() if hasattr(x, "toarray") else x, 2)
            assert abs(norm - want) <= 1e-13 * want
        # the same tiles as one stacked matrix
        width = max(x.shape[1] for x in ops)
        stacked = np.zeros((sum(x.shape[0] for x in ops), width), dtype=complex)
        top = 0
        for x in ops:
            stacked[top:top + x.shape[0], :x.shape[1]] = (
                x.toarray() if hasattr(x, "toarray") else x)
            top += x.shape[0]
        heights = [x.shape[0] for x in ops]
        assert np.array_equal(linalg.spectral_norms(stacked, heights), got)
        assert np.array_equal(linalg.spectral_norms(csr_array(stacked), heights),
                              got)

    @settings(max_examples=40, deadline=None)
    @given(cases=st.lists(st.tuples(_BLOCKS, st.integers(0, 2**32 - 1),
                                    st.booleans()), min_size=1, max_size=5))
    def test_permuted_block_diagonal(self, cases):
        ops = []
        for blocks, seed, sparse in cases:
            x = _permuted_block_diagonal(blocks, seed)
            ops.append(csr_array(x) if sparse else x)
        _assert_norms(ops)


def _orthonormality(q):
    return float(np.max(np.abs(dag(q) @ q - np.eye(q.shape[1])), initial=0.0))


def dense_range(h):
    """:func:`linalg.psd_range` of a formed matrix."""
    return linalg.psd_range(np.real(np.diagonal(h)), lambda j: h[:, j])


class TestPsdRange:
    def test_rank_zero(self):
        for h in (np.zeros((6, 6)), 1e-12 * np.eye(6)):
            q = dense_range(h)
            assert q.shape == (6, 0)

    def test_full_rank(self):
        x = random_matrix(7, 4)
        q = dense_range(x @ dag(x) + np.eye(7))
        assert q.shape == (7, 7)
        assert _orthonormality(q) <= 1e-13

    def test_known_range_with_spread_eigenvalues(self):
        rng = np.random.default_rng(5)
        v, _ = np.linalg.qr(rng.normal(size=(40, 9)) + 1j * rng.normal(size=(40, 9)))
        # two decades, like the twirl's k / l; the angle any method can
        # reach is about eps * |h| / (smallest nonzero eigenvalue)
        d = np.logspace(-1, 1, 9)
        q = dense_range((v * d) @ dag(v))
        assert q.shape == (40, 9)
        assert _orthonormality(q) <= 1e-13
        # largest principal angle: the part of v outside span(q)
        assert np.linalg.norm(v - q @ (dag(q) @ v), 2) <= 1e-12

    @pytest.mark.parametrize("diag, rank", [
        ([1e3, 5e-7], 1), ([1e3, 2e-6], 2), ([0.5, 5e-10], 1), ([0.5, 2e-9], 2)])
    def test_cut_at_tol_times_max_of_one_and_the_diagonal(self, diag, rank):
        assert dense_range(np.diag(diag)).shape == (2, rank)

    def test_asks_only_for_the_pivot_columns(self):
        # rank 20 in dimension 300: the factor buffer grows 8 -> 16 -> 32
        # rows, and exactly the 20 pivot columns are formed
        rng = np.random.default_rng(6)
        x = rng.normal(size=(300, 20)) + 1j * rng.normal(size=(300, 20))
        h = x @ dag(x)
        asked = []

        def column(j):
            asked.append(j)
            return h[:, j]

        q = linalg.psd_range(np.real(np.diagonal(h)), column)
        assert q.shape == (300, 20) and len(set(asked)) == len(asked) == 20
        assert _orthonormality(q) <= 1e-13
        assert np.linalg.norm(x - q @ (dag(q) @ x), 2) <= 1e-12 * np.linalg.norm(x, 2)
