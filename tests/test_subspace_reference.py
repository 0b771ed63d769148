"""Basis-only subspace algebra against the projector and kernel references.

The references below are the generic constructions the package used before
it worked with orthonormal bases only: the commutant as the joint kernel of
the stacked commutator superoperators ``b (x) 1 - 1 (x) b^T``, containment as
``|(1 - P_outer) P_inner|_2`` and intersection as the joint kernel of
``1 - P_a`` and ``1 - P_b``, where P is the m^2 x m^2 orthogonal projector
onto a subspace.  The commutant is also compared with the range of the twirl
read off a full m^2 x m^2 eigh, the rank rule the package used before the
pivoted Cholesky, and with the pivoted Cholesky of the formed twirl, which
the package now runs on the twirl's diagonal and pivot columns only.  The
generated algebra is compared with the closure under all pairwise products
of a basis.  Their cost grows like m^6 in time and m^4 in memory, so they
serve only as small-m oracles.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_pipeline
from fcslab import algebras, fixtures, modular
from fcslab.linalg import (
    KERNEL_TOL,
    OperatorSubspace,
    dag,
    orthonormalize_matrices,
    psd_range,
    sandwich_super,
    solve_linear_space,
    subspace_contains,
    subspace_equal,
    subspace_intersection,
)

FIXTURES = ("aklt", "bernoulli-uniform", "bernoulli-basis", "nonergodic-z2",
            "two-block", "period-two")


def reference_projector(space):
    rows = space.rows
    return rows.T @ np.conj(rows)


def reference_commutant(space):
    eye = np.eye(space.ambient_dim)
    return solve_linear_space(
        [sandwich_super(b, eye) - sandwich_super(eye, b) for b in space.basis],
        space.ambient_dim)


def eigh_commutant(space, tol=KERNEL_TOL):
    """The range of the twirl (its vec-basis matrix is ``channel_super`` of
    the basis) from a full eigh, keeping eigenvalues above
    tol * max(1, top)."""
    w, u = np.linalg.eigh(algebras.channel_super(space.basis))
    keep = w > tol * max(1.0, float(w[-1]))
    return OperatorSubspace(ambient_dim=space.ambient_dim, basis=u[:, keep].T)


def twirl_commutant(space, tol=KERNEL_TOL):
    """The pivoted Cholesky range of the formed m^2 x m^2 twirl."""
    twirl = algebras.channel_super(space.basis)
    return OperatorSubspace(
        ambient_dim=space.ambient_dim,
        basis=psd_range(np.real(np.diagonal(twirl)), lambda j: twirl[:, j],
                        tol).T)


def commutant_against_eigh(alg):
    """The package's commutant, checked against :func:`eigh_commutant` and
    :func:`twirl_commutant`: equal dimension, largest angle at most 1e-12,
    orthonormal to 1e-13."""
    comm = algebras.commutant(alg)
    for ref in (eigh_commutant(alg), twirl_commutant(alg)):
        assert comm.dim == ref.dim
        ok, angle = subspace_equal(comm, ref)
        assert ok and angle <= 1e-12, angle
    rows = comm.rows
    assert np.max(np.abs(rows @ dag(rows) - np.eye(comm.dim))) <= 1e-13
    return comm


def reference_contains(inner, outer):
    eye = np.eye(inner.ambient_dim**2)
    return float(np.linalg.norm(
        (eye - reference_projector(outer)) @ reference_projector(inner), ord=2))


def reference_intersection(a, b):
    eye = np.eye(a.ambient_dim**2)
    return solve_linear_space(
        [eye - reference_projector(a), eye - reference_projector(b)],
        a.ambient_dim)


def largest_angle(a, b):
    """Largest principal angle between two subspaces of equal dimension."""
    assert a.dim == b.dim
    return float(np.arcsin(min(1.0, reference_contains(a, b))))


def compare(alg, others=()):
    """Dimensions, angles and residual differences against the references.

    Returns (worst principal angle, worst containment-residual difference)
    after asserting that every dimension agrees.
    """
    comm = commutant_against_eigh(alg)
    ref_comm = reference_commutant(alg)
    assert comm.dim == ref_comm.dim
    center, is_factor = algebras.center_and_factor(alg, comm)
    ref_center = reference_intersection(alg, ref_comm)
    assert center.dim == ref_center.dim
    assert is_factor == (ref_center.dim == 1)
    inter = subspace_intersection(alg, comm)
    assert inter.dim == ref_center.dim
    angle = max(largest_angle(comm, ref_comm), largest_angle(center, ref_center),
                largest_angle(inter, ref_center))

    spaces = [alg, comm, *others]
    diff = 0.0
    for inner in spaces:
        for outer in spaces:
            _, res = subspace_contains(inner, outer)
            diff = max(diff, abs(res - reference_contains(inner, outer)))
    return angle, diff


def fixed_spaces(p):
    m = p.can.gns_dim
    fix_tau = algebras.channel_fixed_points(p.can.pi_ops)
    dual_super, _ = modular.dual_channel(p.md, p.dual)
    fix_dual = solve_linear_space([dual_super - np.eye(m * m)], m, frame=True)
    return fix_tau, fix_dual


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_algebras(name):
    p = build_pipeline(fixtures.by_name(name))
    angle, diff = compare(p.can.algebra, fixed_spaces(p))
    assert angle <= 1e-12 and diff <= 1e-12, (angle, diff)


def test_random_cases(random_pipelines):
    for seed, n, d, p in random_pipelines:
        angle, diff = compare(p.can.algebra, fixed_spaces(p))
        assert angle <= 1e-12 and diff <= 1e-12, (seed, n, d, angle, diff)


def test_block_sum():
    sys_ = fixtures.block_sum(fixtures.random_system(3, 2, 21),
                              fixtures.random_system(3, 2, 22))
    p = build_pipeline(sys_)
    assert p.can.gns_dim == 18
    angle, diff = compare(p.can.algebra, fixed_spaces(p))
    assert angle <= 1e-12 and diff <= 1e-12, (angle, diff)
    assert algebras.center_and_factor(
        p.can.algebra, p.md.commutant)[0].dim == 2


def _unit(n, i, j):
    e = np.zeros((n, n), dtype=complex)
    e[i, j] = 1.0
    return e


def _embed(block, n, start):
    out = np.zeros((n, n), dtype=complex)
    k = block.shape[0]
    out[start:start + k, start:start + k] = block
    return out


def random_unitary(n, seed):
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return u


def block_algebra(blocks, seed=None):
    """(+)_i M_{k_i} (x) 1_{l_i} for blocks [(k_i, l_i), ...], conjugated by
    a random unitary unless seed is None."""
    n = sum(k * l for k, l in blocks)
    mats, start = [], 0
    for k, l in blocks:
        mats += [_embed(np.kron(_unit(k, i, j), np.eye(l)), n, start)
                 for i in range(k) for j in range(k)]
        start += k * l
    if seed is not None:
        u = random_unitary(n, seed)
        mats = [u @ x @ dag(u) for x in mats]
    return OperatorSubspace.from_matrices(mats, n)


# (+)_i M_{k_i} (x) 1_{l_i} and the seed of the unitary it is conjugated by;
# across these cases the twirl's nonzero eigenvalues k_i / l_i run from 1/8
# to 5
NON_STANDARD = {
    "m2-amplified": ([(2, 3)], None),
    "scalars": ([(1, 5)], None),
    "rotated-sum": ([(2, 1), (2, 2), (1, 1)], 3),
    "1x5": ([(1, 5)], 11),
    "5x1": ([(5, 1)], 12),
    "2x3": ([(2, 3)], 13),
    "3x2": ([(3, 2)], 14),
    "4x1+1x4": ([(4, 1), (1, 4)], 15),
    "1x8": ([(1, 8)], 16),
    "2x4+3x1": ([(2, 4), (3, 1)], 17),
}


@pytest.mark.parametrize("blocks, seed", NON_STANDARD.values(),
                         ids=NON_STANDARD.keys())
def test_non_standard_form(blocks, seed):
    alg = block_algebra(blocks, seed)
    comm_dim = sum(l * l for _, l in blocks)
    # on A' the twirl multiplies the i-th block by k_i / l_i, so it is not
    # a projector here, and its range is still the commutant
    twirl = np.linalg.eigvalsh(algebras.channel_super(alg.basis))
    kept = twirl[twirl > 1e-9]
    assert kept.size == comm_dim
    assert np.allclose(np.unique(np.round(kept, 12)),
                       sorted({k / l for k, l in blocks}))
    assert np.all(np.abs(twirl[twirl <= 1e-9]) <= 1e-12)

    angle, diff = compare(alg)
    assert angle <= 1e-12 and diff <= 1e-12, (angle, diff)
    comm = algebras.commutant(alg)
    assert comm.dim == comm_dim
    assert algebras.center_and_factor(alg, comm)[0].dim == len(blocks)


_SHAPES = st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)),
                   min_size=1, max_size=3).filter(
                       lambda b: sum(k * l for k, l in b) <= 9)


@settings(max_examples=30, deadline=None)
@given(blocks=_SHAPES, seed=st.integers(0, 2**32 - 1))
def test_commutant_is_unitarily_covariant(blocks, seed):
    # commutant(U A U*) = U commutant(A) U*
    alg = block_algebra(blocks, seed)
    n = alg.ambient_dim
    u = random_unitary(n, seed + 1)
    moved = OperatorSubspace(ambient_dim=n, basis=u @ alg.basis @ dag(u))
    want = OperatorSubspace(ambient_dim=n,
                            basis=u @ algebras.commutant(alg).basis @ dag(u))
    ok, angle = subspace_equal(algebras.commutant(moved), want)
    assert ok and angle <= 1e-12, (blocks, angle)
    commutant_against_eigh(moved)
    assert algebras.commutant(moved).dim == reference_commutant(moved).dim


def test_commutant_peak_memory():
    # the twirl of A = M_8 (x) 1_8 on m = 64 has m^4 = 2^24 entries (256
    # MiB); its diagonal, its r = 64 pivot columns and the 64 x 4096
    # factor take a few MiB
    alg = build_pipeline(fixtures.random_system(8, 2, 0)).can.algebra
    assert (alg.ambient_dim, alg.dim) == (64, 64)
    tracemalloc.start()
    try:
        comm = algebras.commutant(alg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert comm.dim == 64
    assert peak <= 32 * 2**20, peak


def pairwise_closure(gens, n, tol=KERNEL_TOL):
    """The unital *-algebra generated by gens as the span of 1, gens, their
    adjoints and all pairwise products of a basis, closed until the
    dimension stops growing."""
    basis = orthonormalize_matrices(
        [np.eye(n), *gens, *(dag(np.asarray(g)) for g in gens)], tol=tol)
    while True:
        grown = orthonormalize_matrices(
            [*basis, *(a @ b for a in basis for b in basis)], tol=tol)
        if grown.shape[0] == basis.shape[0]:
            return OperatorSubspace(ambient_dim=n, basis=grown)
        basis = grown


def closure_against_pairwise(gens, n):
    alg = algebras.generated_algebra(gens, n)
    ref = pairwise_closure(gens, n)
    assert alg.dim == ref.dim
    ok, angle = subspace_equal(alg, ref)
    assert ok and angle <= 1e-12, angle
    assert alg.is_star_closed()
    return alg


@pytest.mark.parametrize("name", FIXTURES)
def test_closure_on_fixtures(name):
    sys_ = fixtures.by_name(name)
    closure_against_pairwise(list(sys_.ops), sys_.n)


@pytest.mark.parametrize("d", [2, 3])
def test_closure_on_block_sums(d):
    sys_ = fixtures.block_sum(fixtures.random_system(3, d, 21),
                              fixtures.random_system(3, d, 22))
    alg = closure_against_pairwise(list(sys_.ops), 6)
    assert alg.dim == 18


@pytest.mark.parametrize("blocks, seed", NON_STANDARD.values(),
                         ids=NON_STANDARD.keys())
def test_closure_of_rotated_block_algebras(blocks, seed):
    # two random elements of (+)_i M_{k_i} (x) 1_{l_i} generate all of it
    alg = block_algebra(blocks, seed)
    rng = np.random.default_rng(0 if seed is None else seed)
    gens = [np.einsum("b,bij->ij", rng.normal(size=alg.dim)
                      + 1j * rng.normal(size=alg.dim), alg.basis)
            for _ in range(2)]
    got = closure_against_pairwise(gens, alg.ambient_dim)
    assert subspace_equal(got, alg)[0]


def test_closure_of_a_jordan_block():
    # the shift J of C^5 and J* generate M_5, one word length at a time
    jordan = np.diag(np.ones(4), 1)
    assert closure_against_pairwise([jordan], 5).dim == 25
    # J alone with J* inside the upper 3 x 3 corner: M_3 (+) C 1_2
    corner = np.zeros((5, 5))
    corner[:3, :3] = np.diag(np.ones(2), 1)
    assert closure_against_pairwise([corner], 5).dim == 10


def test_closure_returns_at_full_dimension(monkeypatch):
    # 1, E_00, E_01, E_10 span M_2: no product round is run
    calls = []

    def counted(mats, tol=KERNEL_TOL):
        calls.append(len(mats))
        return orthonormalize_matrices(mats, tol=tol)

    monkeypatch.setattr(algebras, "orthonormalize_matrices", counted)
    units = [np.eye(2)[:, [i]] @ np.eye(2)[[j]] for i, j in ((0, 0), (0, 1), (1, 0))]
    assert closure_against_pairwise(units, 2).dim == 4
    assert calls == [7]
