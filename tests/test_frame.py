"""The Hermitian frame against the vec-basis superoperators it replaced.

Every Kraus map x -> sum_k a_k x a_k* is factorized through its real matrix
B* S B in the Hermitian frame.  The references below work on the complex
vec-basis matrix S = ``algebras.channel_super``: its eigenvalues, the SVD
kernel of S - 1, and the oblique projection of the maximally mixed state
onto the eigenvalue-1 cluster.  They serve only as small-n oracles.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from conftest import RANDOM_CASES, build_pipeline
from test_cli import _amplitude_damping
from fcslab import algebras, fixtures, modular, purity, systems
from fcslab.linalg import (
    as_complex,
    dag,
    frame_super,
    from_frame,
    solve_linear_space,
    subspace_equal,
    to_frame,
    unvec,
    vec,
)

FIXTURES = ("aklt", "bernoulli-uniform", "bernoulli-basis", "nonergodic-z2",
            "two-block", "period-two")
CASES = [(name, fixtures.by_name(name)) for name in FIXTURES] + [
    (f"seed {seed} ({n},{d})", fixtures.random_system(n, d, seed))
    for seed, n, d in RANDOM_CASES]
IDS = [label for label, _ in CASES]
# invariant states also on block sums, larger n and the amplitude-damping sweep
INVARIANT_CASES = CASES + [
    (f"3+3 d={d}", fixtures.block_sum(fixtures.random_system(3, d, 21),
                                      fixtures.random_system(3, d, 22)))
    for d in (2, 3)] + [
    (f"n={n} seed {seed}", fixtures.random_system(n, 2, seed))
    for n in (3, 8, 16) for seed in (0, 2)] + [
    (f"amplitude damping {eps:g}", _amplitude_damping(eps))
    for eps in (1e-2, 1e-4, 1e-6, 1e-8, 1e-11)]

# Verdicts (pure, ergodic, factor, multiplicity, strongly mixing, gauge
# group) of the fixtures, as the vec-basis battery reported them; every
# seeded random system is pure, primitive and gauge-trivial.
VERDICTS = {
    "aklt": (True, True, True, 1, True, "trivial {1}"),
    "bernoulli-uniform": (True, True, True, 1, True, "trivial {1}"),
    "bernoulli-basis": (True, True, True, 1, True, "trivial {1}"),
    "nonergodic-z2": (False, False, False, 2, False, "trivial {1}"),
    "two-block": (False, False, False, 2, False, "trivial {1}"),
    "period-two": (True, True, True, 1, False, "Z_2"),
}
RANDOM_VERDICT = (True, True, True, 1, True, "trivial {1}")


def sort_spectrum(w):
    """The ordering purity.channel_spectrum applies."""
    return w[np.lexsort((np.round(np.angle(w), 12), -np.round(np.abs(w), 12)))]


def reference_search(sys_):
    """(size of the eigenvalue-1 cluster, Cesaro image of 1/n) by the
    left/right eigenvectors of the vec-basis predual for the eigenvalues
    within 1e-8 of 1."""
    n = sys_.n
    pre = algebras.channel_super(dag(sys_.ops))
    w, vl, vr = scipy.linalg.eig(pre, left=True, right=True)
    idx = np.abs(w - 1.0) <= 1e-8
    r1, l1 = vr[:, idx], vl[:, idx]
    rho = unvec(r1 @ np.linalg.solve(dag(l1) @ r1, dag(l1) @ vec(np.eye(n) / n)), n)
    rho = (rho + dag(rho)) / 2
    return int(idx.sum()), rho / np.trace(rho).real


def reference_fixed_space(kraus, n):
    return solve_linear_space([algebras.channel_super(kraus) - np.eye(n * n)], n)


def frame_fixed_space(frame_map, n):
    """The fixed space as the package solves it, from the frame matrix."""
    return solve_linear_space([frame_map - np.eye(n * n)], n, frame=True)


def reference_frame(n):
    """Columns: vec of E_ii, then of (E_ij + E_ji) / sqrt 2 and of
    i (E_ij - E_ji) / sqrt 2 for i < j in row-major order."""
    def unit(i, j):
        return np.eye(n * n)[i * n + j]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    cols = ([unit(i, i) for i in range(n)]
            + [(unit(i, j) + unit(j, i)) / np.sqrt(2) for i, j in pairs]
            + [1j * (unit(i, j) - unit(j, i)) / np.sqrt(2) for i, j in pairs])
    return np.array(cols).T


def reference_frame_super(kraus):
    """The frame matrix from the full complex tensor of images of E_kl and
    one gather per kind of frame element: complex n^4 intermediates."""
    kraus = as_complex(kraus)
    n = kraus.shape[-1]
    s = np.einsum("aik,ajl->ijkl", kraus, kraus.conj())  # image_ij of E_kl
    i, j = np.triu_indices(n, 1)
    diag = np.arange(n)
    h = np.sqrt(0.5)
    images = np.concatenate([s[..., diag, diag],
                             h * (s[..., i, j] + s[..., j, i]),
                             1j * h * (s[..., i, j] - s[..., j, i])], axis=-1)
    return np.ascontiguousarray(to_frame(np.moveaxis(images, -1, 0)).T)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_frame_coordinates_match_the_basis(n):
    b = reference_frame(n)
    assert np.max(np.abs(dag(b) @ b - np.eye(n * n))) <= 1e-15
    elements = from_frame(np.eye(n * n), n)
    assert np.max(np.abs(elements.reshape(n * n, n * n).T - b)) <= 1e-15
    rng = np.random.default_rng(n)
    x = rng.normal(size=(3, n, n)) + 1j * rng.normal(size=(3, n, n))
    herm = x + dag(x)
    coords = to_frame(herm)
    assert coords.dtype == np.float64 and coords.shape == (3, n * n)
    assert np.max(np.abs(coords - herm.reshape(3, n * n) @ b.conj())) <= 1e-14
    back = from_frame(coords, n)
    assert np.array_equal(back, dag(back))
    assert np.max(np.abs(back - herm)) <= 1e-14


@pytest.mark.parametrize("label, sys_", CASES, ids=IDS)
def test_supers_are_the_real_frame_matrices(label, sys_):
    b = reference_frame(sys_.n)
    for got, kraus in ((sys_.transfer_super(), sys_.ops),
                       (sys_.predual_super(), dag(sys_.ops))):
        ref = dag(b) @ algebras.channel_super(kraus) @ b
        assert got.dtype == np.float64
        assert np.max(np.abs(ref.imag)) <= 1e-14
        assert np.max(np.abs(got - ref)) <= 1e-14


@pytest.mark.parametrize("label, sys_", CASES, ids=IDS)
def test_frame_super_is_bitwise_the_tensor_formula(label, sys_):
    for kraus in (sys_.ops, dag(sys_.ops)):
        assert np.array_equal(frame_super(kraus), reference_frame_super(kraus))


def test_frame_super_peak_memory():
    # filled one block of columns at a time: the transients are O(n^3),
    # where the tensor formula held complex n^4 arrays (48 MB at n = 32)
    kraus = fixtures.random_system(32, 2, 1).ops
    tracemalloc.start()
    try:
        result = frame_super(kraus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.shape == (1024, 1024) and result.dtype == np.float64
    assert peak <= 2 * result.nbytes, (peak, result.nbytes)


@pytest.mark.parametrize("label, sys_", CASES, ids=IDS)
def test_spectrum_matches_vec_basis_eigenvalues(label, sys_):
    got = purity.channel_spectrum(sys_)
    want = sort_spectrum(np.linalg.eigvals(algebras.channel_super(sys_.ops)))
    assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("label, sys_", INVARIANT_CASES,
                         ids=[label for label, _ in INVARIANT_CASES])
def test_invariant_states_match_vec_basis_reference(label, sys_):
    search = systems.invariant_states(sys_)
    ref_fixed = reference_fixed_space(dag(sys_.ops), sys_.n)
    cluster, ref_rho = reference_search(sys_)
    assert search.multiplicity == ref_fixed.dim == cluster
    assert np.max(np.abs(search.mean_state.rho - ref_rho)) <= 1e-12
    fixed = frame_fixed_space(sys_.predual_super(), sys_.n)
    assert np.array_equal(fixed.basis, dag(fixed.basis))
    assert subspace_equal(fixed, ref_fixed)[0]


@pytest.mark.parametrize("label, sys_", CASES, ids=IDS)
def test_verdicts_unchanged(label, sys_):
    rep = purity.purity_battery(sys_)
    got = (rep.is_pure, rep.is_ergodic, rep.is_factor, rep.invariant_multiplicity,
           rep.strongly_mixing, rep.gauge.describe())
    assert got == VERDICTS.get(label, RANDOM_VERDICT)


def gns_fixed_spaces(p):
    """Fix(transfer) and Fix(dual) on the GNS space as the battery solves
    them, and their vec-basis references."""
    m = p.can.gns_dim
    dual_super, _ = modular.dual_channel(p.md, p.dual)
    return ((algebras.channel_fixed_points(p.can.pi_ops),
             reference_fixed_space(p.can.pi_ops, m)),
            (frame_fixed_space(dual_super, m), reference_fixed_space(p.dual.ops, m)))


def check_gns_fixed_spaces(p, label):
    for got, ref in gns_fixed_spaces(p):
        assert got.dim == ref.dim, label
        assert np.array_equal(got.basis, dag(got.basis)), label
        assert subspace_equal(got, ref)[0], label


@pytest.mark.parametrize("name", FIXTURES)
def test_gns_fixed_spaces_fixtures(name):
    check_gns_fixed_spaces(build_pipeline(fixtures.by_name(name)), name)


def test_gns_fixed_spaces_random(random_pipelines):
    for seed, n, d, p in random_pipelines:
        check_gns_fixed_spaces(p, (seed, n, d))
