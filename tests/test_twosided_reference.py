"""Block-level two-sided assembly against the scalar reference.

The reference below assembles the Gram one entry at a time from the prefix
rules, with a matrix product per entry, finds the quotient from the Gram's
eigendecomposition with a kernel cut, and builds each shift compression one
raw column at a time.  Its cost is quadratic in the raw dimension N times an
m x m product, plus an N x N eigh, so it serves only as a small-N oracle
(N <= 900 here).  It checks the closed forms of the build: the raw vectors
with both words of length L are an orthonormal basis of the quotient, and
those with words of fixed shorter lengths are orthonormal bases of the
domains the residual checks use (the reference finds those by SVD).
``moment_check``, ``check_relations``, ``shift_check`` and
``compression_residual`` are compared with their dense formulas (q x q
products and SVDs of the compressions as dense arrays) on the same
representation.  The last three take all their norms in one block-norm pass;
the per-operator loops below, with one ``spectral_norm`` call per operator,
are their exact oracle on deeper levels.
"""

import numpy as np
import pytest

from conftest import build_pipeline
from fcslab import fixtures, systems, twosided
from fcslab.chain import local_expectation, matrix_unit
from fcslab.linalg import dag, spectral_norm
from fcslab.systems import word_operators, words

GRAM_KERNEL_TOL = 1e-9


def _prefix_excess(shorter, longer):
    """Excess suffix if shorter is a prefix of longer, else None."""
    if longer[: len(shorter)] == shorter:
        return longer[len(shorter):]
    return None


def reference_build(md, dual, level):
    """Gram, its eigenvalues and shift compressions, entry by entry."""
    d = md.pi_ops.shape[0]
    m = md.gns_dim
    word_list = words(d, level)
    vtab = word_operators(md.pi_ops, level + 1)
    wtab = word_operators(dual.ops, level + 1)
    raw_index = [(lw, rw, alpha)
                 for lw in word_list for rw in word_list for alpha in range(m)]
    pos = {idx: k for k, idx in enumerate(raw_index)}
    n_raw = len(raw_index)

    def entry(bra, ket):
        lw_a, rw_a, alpha = bra
        lw_b, rw_b, beta = ket
        f_ket = _prefix_excess(rw_a, rw_b)
        f_bra = None if f_ket is not None else _prefix_excess(rw_b, rw_a)
        if f_ket is None and f_bra is None:
            return 0.0
        e_ket = _prefix_excess(lw_a, lw_b)
        e_bra = None if e_ket is not None else _prefix_excess(lw_b, lw_a)
        if e_ket is None and e_bra is None:
            return 0.0
        vf = vtab[f_ket if f_ket is not None else f_bra]
        we = wtab[e_ket if e_ket is not None else e_bra]
        if e_ket is not None and f_ket is not None:
            mat = we @ vf
        elif e_ket is None and f_ket is not None:
            mat = dag(we) @ vf
        elif e_ket is not None and f_ket is None:
            mat = dag(vf) @ we
        else:
            mat = dag(we @ vf)
        return mat[alpha, beta]

    gram = np.empty((n_raw, n_raw), dtype=np.complex128)
    for a, bra in enumerate(raw_index):
        gram[a, a] = entry(bra, bra)
        for b in range(a + 1, n_raw):
            val = entry(bra, raw_index[b])
            gram[a, b] = val
            gram[b, a] = np.conj(val)

    evals, evecs = np.linalg.eigh((gram + dag(gram)) / 2)
    top = max(float(evals[-1]), 1.0)
    keep = evals > GRAM_KERNEL_TOL * top
    w_raw = evecs[:, keep] / np.sqrt(evals[keep])
    quotient_map = dag(w_raw) @ gram

    def shifted_column(new_idx):
        if new_idx in pos:
            return quotient_map[:, pos[new_idx]]
        return dag(w_raw) @ np.array([entry(bra, new_idx) for bra in raw_index])

    right_ops, left_ops = [], []
    for k in range(d):
        cols_r = np.stack([shifted_column((lw, (k,) + rw, alpha))
                           for lw, rw, alpha in raw_index], axis=1)
        cols_l = np.stack([shifted_column(((k,) + lw, rw, alpha))
                           for lw, rw, alpha in raw_index], axis=1)
        right_ops.append(cols_r @ w_raw)
        left_ops.append(cols_l @ w_raw)
    return gram, evals, np.array(right_ops), np.array(left_ops)


def reference_domain(rep, max_left, max_right):
    """ON basis of the raw vectors with words up to these lengths, by SVD."""
    d, q = rep.d, rep.quotient_dim
    keep = [i for i, (lw, rw, _) in enumerate(rep.raw_index)
            if len(lw) <= max_left and len(rw) <= max_right]
    u, s, _ = np.linalg.svd(rep.quotient_map[:, keep].toarray(),
                            full_matrices=False)
    return u[:, s > 1e-10 * max(1.0, s[0])]


def _dense(ops):
    """The sparse compressions as one dense (d, q, q) stack."""
    return np.array([a.toarray() for a in ops])


def _op_norm(x):
    return float(np.linalg.norm(x, ord=2))


def reference_relations(rep):
    """check_relations with every residual taken on an explicit domain."""
    q = rep.quotient_dim
    eye = np.eye(q)
    s, st, d = _dense(rep.right_ops), _dense(rep.left_ops), rep.d

    def residuals(domain):
        def norm(x):
            return float(np.linalg.norm(x @ domain, ord=2))

        pairs = [(i, j) for i in range(d) for j in range(d)]
        return {
            "right_isometry": max(norm(dag(s[i]) @ s[j] - (eye if i == j else 0))
                                  for i, j in pairs),
            "left_isometry": max(norm(dag(st[i]) @ st[j] - (eye if i == j else 0))
                                 for i, j in pairs),
            "right_completeness": norm(sum(a @ dag(a) for a in s) - eye),
            "left_completeness": norm(sum(a @ dag(a) for a in st) - eye),
            "commutation": max(norm(s[i] @ st[j] - st[j] @ s[i])
                               for i, j in pairs),
            "star_commutation": max(norm(s[i] @ dag(st[j]) - dag(st[j]) @ s[i])
                                    for i, j in pairs),
        }

    return residuals(rep.interior.toarray()), residuals(eye)


def reference_compression_residual(rep):
    """max_i |S_i* P - P S_i* P| with the dense q x q projection P."""
    p = rep.corner @ dag(rep.corner)
    worst = 0.0
    for ops in (_dense(rep.right_ops), _dense(rep.left_ops)):
        for a in ops:
            worst = max(worst, _op_norm(dag(a) @ p - p @ dag(a) @ p))
    return worst


def reference_shift_check(rep):
    """shift_check with V and every covariance operator as dense q x q."""
    right_ops, left_ops = _dense(rep.right_ops), _dense(rep.left_ops)
    v = sum(right_ops[k] @ dag(left_ops[k]) for k in range(rep.d))
    q = rep.quotient_dim
    interior = rep.interior.toarray()
    iso = _op_norm((dag(v) @ v - np.eye(q)) @ interior)
    omega_res = float(np.linalg.norm(v @ rep.omega - rep.omega))

    dom = twosided._domain(rep.quotient_map, rep.d, rep.level, rep.level - 1,
                           rep.level - 2).toarray()
    worst = 0.0
    for i in range(rep.d):
        for j in range(rep.d):
            x_left = left_ops[i] @ dag(left_ops[j])
            x_right = right_ops[i] @ dag(right_ops[j])
            worst = max(worst, _op_norm((v @ x_left - x_right @ v) @ dom))
    return twosided.ShiftReport(isometry_residual=iso, omega_residual=omega_res,
                                covariance_residual=worst)


def reference_moments(rep, sys, state, window):
    """moment_check with each moment a chain of q x q matrix products."""
    d = rep.d
    rtab = word_operators(_dense(rep.right_ops), window)
    ltab = word_operators(_dense(rep.left_ops), window)
    omega = rep.omega
    pairs = [(a, b) for a in words(d, window) for b in words(d, window)
             if len(a) == len(b)]
    worst = 0.0
    for la, lb in pairs:
        for ra, rb in pairs:
            got = np.conj(omega) @ (
                ltab[la] @ dag(ltab[lb]) @ rtab[ra] @ dag(rtab[rb]) @ omega)
            top = la[::-1] + ra
            bot = lb[::-1] + rb
            if top:
                units = [matrix_unit(d, i, j) for i, j in zip(top, bot)]
                want = local_expectation(sys, state, units)
            else:
                want = 1.0
            worst = max(worst, abs(got - want))
    return worst


def _rotated_random(seed):
    """random_system(2, 2, seed) conjugated by a seeded unitary."""
    sys_ = fixtures.random_system(2, 2, seed)
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    u, _ = np.linalg.qr(z)
    return systems.KrausSystem(np.stack([u @ a @ dag(u) for a in sys_.ops]))


CASES = {
    "bernoulli-L3": (fixtures.bernoulli_uniform, 3),
    "aklt-L2": (fixtures.aklt, 2),
    "period-two-L3": (fixtures.period_two, 3),
    "rotated-random-L2": (lambda: _rotated_random(11), 2),
}


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    make, level = CASES[request.param]
    p = build_pipeline(make())
    rep = twosided.build(p.md, p.dual, level)
    return p, rep, reference_build(p.md, p.dual, level)


def _sorted_singular_values(ops):
    return np.sort(np.linalg.svd(ops, compute_uv=False), axis=-1)


def _top_rows(rep):
    """Positions of the raw vectors whose two words have length L."""
    return [i for i, (lw, rw, _) in enumerate(rep.raw_index)
            if len(lw) == len(rw) == rep.level]


def test_gram_matches_scalar_assembly(case):
    _, rep, (gram, evals, _, _) = case
    assert gram.shape == (len(rep.raw_index),) * 2
    assert np.max(np.abs(rep.quotient_map - gram[_top_rows(rep)])) <= 1e-13
    assert rep.gram_min_eigenvalue <= evals[0] + 1e-12


def test_quotient_basis_closed_form(case):
    p, rep, (gram, evals, _, _) = case
    top = _top_rows(rep)
    q = rep.d ** (2 * rep.level) * p.md.gns_dim
    assert rep.quotient_dim == len(top) == q
    assert np.array_equal(gram[np.ix_(top, top)], np.eye(q))
    assert np.sum(evals > GRAM_KERNEL_TOL * max(1.0, evals[-1])) == q
    factor = gram[top]
    assert np.linalg.norm(gram - dag(factor) @ factor) <= 1e-12


def test_domains_match_svd(case):
    _, rep, _ = case
    level = rep.level
    for left, right in ((level - 1, level - 1), (level - 1, level - 2)):
        got = twosided._domain(rep.quotient_map, rep.d, level, left,
                               right).toarray()
        want = reference_domain(rep, left, right)
        assert got.shape == want.shape
        assert np.max(np.abs(dag(got) @ got - np.eye(got.shape[1]))) <= 1e-12
        assert np.max(np.abs(got @ dag(got) - want @ dag(want))) <= 1e-12
    assert np.array_equal(rep.interior.toarray(), twosided._domain(
        rep.quotient_map, rep.d, level, level - 1, level - 1).toarray())


def test_shift_compressions_match(case):
    _, rep, (_, _, right_ops, left_ops) = case
    for new, ref in ((rep.right_ops, right_ops), (rep.left_ops, left_ops)):
        new = _dense(new)
        assert new.shape == ref.shape
        diff = _sorted_singular_values(new) - _sorted_singular_values(ref)
        assert np.max(np.abs(diff)) <= 1e-12


def test_relations_match_direct_formula(case):
    _, rep, _ = case
    rel = twosided.check_relations(rep)
    interior, boundary = reference_relations(rep)
    for got, want in ((rel.interior, interior), (rel.boundary, boundary)):
        assert got.keys() == want.keys()
        for key in want:
            assert abs(got[key] - want[key]) <= 1e-13, key


def test_moments_match_direct_formula(case):
    p, rep, _ = case
    window = rep.level - 1
    got = twosided.moment_check(rep, p.comp_sys, p.comp_state, window)
    want = reference_moments(rep, p.comp_sys, p.comp_state, window)
    assert abs(got - want) <= 1e-13


def test_compression_residual_matches_dense_formula(case):
    _, rep, _ = case
    got = twosided.compression_residual(rep)
    assert abs(got - reference_compression_residual(rep)) <= 1e-12


def test_shift_check_matches_dense_formula(case):
    _, rep, _ = case
    got, want = twosided.shift_check(rep), reference_shift_check(rep)
    for key in ("isometry_residual", "omega_residual", "covariance_residual"):
        assert abs(getattr(got, key) - getattr(want, key)) <= 1e-12, key


def loop_relations(rep):
    """check_relations with one spectral_norm call per relation operator."""
    from scipy.sparse import eye_array

    eye = eye_array(rep.quotient_dim, format="csr")
    dom = rep.interior
    s, st = rep.right_ops, rep.left_ops
    s_adj, st_adj = twosided._adjoints(s), twosided._adjoints(st)
    interior, boundary = {}, {}

    def record(key, x):
        interior[key] = max(interior.get(key, 0.0), spectral_norm(x @ dom))
        boundary[key] = max(boundary.get(key, 0.0), spectral_norm(x))

    for i in range(rep.d):
        for j in range(rep.d):
            one = eye if i == j else 0
            record("right_isometry", s_adj[i] @ s[j] - one)
            record("left_isometry", st_adj[i] @ st[j] - one)
            record("commutation", s[i] @ st[j] - st[j] @ s[i])
            record("star_commutation", s[i] @ st_adj[j] - st_adj[j] @ s[i])
    record("right_completeness", sum(a @ b for a, b in zip(s, s_adj)) - eye)
    record("left_completeness", sum(a @ b for a, b in zip(st, st_adj)) - eye)
    return twosided.RelationReport(interior=interior, boundary=boundary)


def loop_compression_residual(rep):
    """compression_residual with one spectral_norm call per compression."""
    c = rep.corner
    r_adj = dag(np.linalg.qr(c, mode="r"))
    worst = 0.0
    for a in twosided._adjoints(rep.right_ops) + twosided._adjoints(rep.left_ops):
        x = a @ c
        worst = max(worst, spectral_norm((x - c @ (dag(c) @ x)) @ r_adj))
    return worst


def loop_shift_check(rep):
    """shift_check with one spectral_norm call per operator."""
    v = rep.shift
    interior = rep.interior
    iso = spectral_norm(v.conj().T @ (v @ interior) - interior)
    omega_res = float(np.linalg.norm(v @ rep.omega - rep.omega))
    dom = twosided._domain(rep.quotient_map, rep.d, rep.level, rep.level - 1,
                           rep.level - 2)
    v_dom = v @ dom
    s, st = rep.right_ops, rep.left_ops
    s_adj, st_adj = twosided._adjoints(s), twosided._adjoints(st)
    worst = 0.0
    for i in range(rep.d):
        for j in range(rep.d):
            left_dom = st[i] @ (st_adj[j] @ dom)
            right_v_dom = s[i] @ (s_adj[j] @ v_dom)
            worst = max(worst, spectral_norm(v @ left_dom - right_v_dom))
    return twosided.ShiftReport(isometry_residual=iso, omega_residual=omega_res,
                                covariance_residual=worst)


def _conjugated(sys_, seed):
    """v_k -> U v_k U* for the Haar-distributed unitary U (QR with the phases
    of R's diagonal taken out) from a seeded complex Gaussian matrix."""
    rng = np.random.default_rng(seed)
    n = sys_.n
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    return systems.KrausSystem(np.stack([u @ a @ dag(u) for a in sys_.ops]))


# the first two child seeds of seed 1: the conjugating unitaries of the
# AKLT and period-two inputs of the twosided benchmark at seed 1
_CHILD_SEEDS = [int(s) for s in np.random.default_rng(1).integers(0, 2**31, 2)]

LOOP_CASES = {
    "aklt-L2": (fixtures.aklt, 2),
    "aklt-L3": (fixtures.aklt, 3),
    "period-two-L3": (fixtures.period_two, 3),
    "period-two-L4": (fixtures.period_two, 4),
    "bernoulli-L4": (fixtures.bernoulli_uniform, 4),
    "bernoulli-L5": (fixtures.bernoulli_uniform, 5),
    "conjugated-aklt-L2": (
        lambda: _conjugated(fixtures.aklt(), _CHILD_SEEDS[0]), 2),
    "conjugated-period-two-L3": (
        lambda: _conjugated(fixtures.period_two(), _CHILD_SEEDS[1]), 3),
}


@pytest.mark.parametrize("name", sorted(LOOP_CASES))
def test_norm_pass_equals_per_operator_loops(name):
    make, level = LOOP_CASES[name]
    p = build_pipeline(make())
    rep = twosided.build(p.md, p.dual, level)
    rel, want = twosided.check_relations(rep), loop_relations(rep)
    assert list(rel.interior) == list(want.interior)
    assert rel == want
    assert twosided.shift_check(rep) == loop_shift_check(rep)
    assert twosided.compression_residual(rep) == loop_compression_residual(rep)
