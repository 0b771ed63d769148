"""Basis-only subspace algebra against the projector and kernel references.

The references below are the generic constructions the package used before
it worked with orthonormal bases only: the commutant as the joint kernel of
the stacked commutator superoperators ``b (x) 1 - 1 (x) b^T``, containment as
``|(1 - P_outer) P_inner|_2`` and intersection as the joint kernel of
``1 - P_a`` and ``1 - P_b``, where P is the m^2 x m^2 orthogonal projector
onto a subspace.  Their cost grows like m^6 in time and m^4 in memory, so
they serve only as small-m oracles.
"""

import numpy as np
import pytest

from conftest import build_pipeline
from fcslab import algebras, fixtures, modular
from fcslab.linalg import (
    OperatorSubspace,
    sandwich_super,
    solve_linear_space,
    subspace_contains,
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
    comm = algebras.commutant(alg)
    ref_comm = reference_commutant(alg)
    assert comm.dim == ref_comm.dim
    center, is_factor = algebras.center_and_factor(alg)
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
    assert algebras.center_and_factor(p.can.algebra)[0].dim == 2


def _unit(n, i, j):
    e = np.zeros((n, n), dtype=complex)
    e[i, j] = 1.0
    return e


def _embed(block, n, start):
    out = np.zeros((n, n), dtype=complex)
    k = block.shape[0]
    out[start:start + k, start:start + k] = block
    return out


def _m2_amplified():
    # M_2 (x) 1_3 inside M_6
    return [np.kron(_unit(2, i, j), np.eye(3)) for i in range(2) for j in range(2)]


def _scalars():
    # C 1 inside M_5
    return [np.eye(5, dtype=complex)]


def _rotated_sum():
    # M_2 (+) M_2 (x) 1_2 (+) C inside M_7, conjugated by a fixed unitary
    mats = [_embed(_unit(2, i, j), 7, 0) for i in range(2) for j in range(2)]
    mats += [_embed(np.kron(_unit(2, i, j), np.eye(2)), 7, 2)
             for i in range(2) for j in range(2)]
    mats.append(_embed(np.eye(1), 7, 6))
    rng = np.random.default_rng(3)
    u, _ = np.linalg.qr(rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7)))
    return [u @ x @ u.conj().T for x in mats]


@pytest.mark.parametrize("make, n, comm_dim, center_dim, twirl_values", [
    (_m2_amplified, 6, 9, 1, [2 / 3]),
    (_scalars, 5, 25, 1, [1 / 5]),
    (_rotated_sum, 7, 6, 3, [1.0, 2.0]),
], ids=["m2-amplified", "scalars", "rotated-sum"])
def test_non_standard_form(make, n, comm_dim, center_dim, twirl_values):
    alg = OperatorSubspace.from_matrices(make(), n)
    # on A' the twirl multiplies the i-th block by k_i / l_i, so it is not
    # a projector here, and its range is still the commutant
    twirl = np.linalg.eigvalsh(algebras.channel_super(alg.basis))
    kept = twirl[twirl > 1e-9]
    assert kept.size == comm_dim
    assert np.allclose(np.unique(np.round(kept, 12)), twirl_values)
    assert np.all(np.abs(twirl[twirl <= 1e-9]) <= 1e-12)

    angle, diff = compare(alg)
    assert angle <= 1e-12 and diff <= 1e-12, (angle, diff)
    assert algebras.commutant(alg).dim == comm_dim
    assert algebras.center_and_factor(alg)[0].dim == center_dim
