import numpy as np
import pytest

from fcslab import algebras, fixtures
from fcslab.linalg import OperatorSubspace, subspace_equal

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


def test_paulis_generate_full_matrix_algebra():
    alg = algebras.generated_algebra([SX, SZ], 2)
    assert alg.dim == 4


def test_diagonal_algebra_and_its_commutant():
    alg = algebras.generated_algebra([SZ], 2)
    assert alg.dim == 2
    comm = algebras.commutant(alg)
    assert comm.dim == 2  # maximal abelian: own commutant
    eq, _ = subspace_equal(alg, comm)
    assert eq


def test_commutant_of_full_algebra_is_scalars():
    alg = algebras.generated_algebra([SX, SZ], 2)
    comm = algebras.commutant(alg)
    assert comm.dim == 1


def test_commutant_requires_star_closed():
    raising = OperatorSubspace.from_matrices(
        [np.eye(2, dtype=complex), np.array([[0, 1], [0, 0]], dtype=complex)], 2)
    with pytest.raises(algebras.NotStarClosedError):
        algebras.commutant(raising)


def test_center_detects_direct_sum():
    # e01 and its adjoint generate the upper 2x2 block; with the ambient
    # identity the algebra is M_2 (+) C and the center is two-dimensional
    e01 = np.zeros((3, 3), dtype=complex)
    e01[0, 1] = 1.0
    alg = algebras.generated_algebra([e01], 3)
    assert alg.dim == 5
    center, is_factor = algebras.center_and_factor(
        alg, algebras.commutant(alg))
    assert not is_factor
    assert center.dim == 2


def test_abelian_generators_close_without_growing():
    # p and the symmetric flip commute (xp = px = x, x^2 = p), so the
    # generated algebra is the 3-dim commutative span and its own center
    p = np.diag([1.0, 1.0, 0.0]).astype(complex)
    x = np.zeros((3, 3), dtype=complex)
    x[0, 1] = 1.0
    x[1, 0] = 1.0
    alg = algebras.generated_algebra([p, x], 3)
    assert alg.dim == 3
    center, is_factor = algebras.center_and_factor(
        alg, algebras.commutant(alg))
    assert not is_factor
    assert center.dim == 3


def test_channel_super_matches_direct_action():
    sys_ = fixtures.aklt()
    rng = np.random.default_rng(5)
    x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    from fcslab.linalg import unvec, vec
    via_super = unvec(algebras.channel_super(sys_.ops) @ vec(x), 2)
    direct = sum(a @ x @ a.conj().T for a in sys_.ops)
    assert np.linalg.norm(via_super - direct) < 1e-12


def test_aklt_fixed_points_are_scalars():
    fixed = algebras.channel_fixed_points(fixtures.aklt().ops)
    assert fixed.dim == 1
    ok, _ = fixed.contains(np.eye(2, dtype=complex))
    assert ok


def test_nonergodic_fixed_points_two_dimensional():
    fixed = algebras.channel_fixed_points(fixtures.nonergodic_z2().ops)
    assert fixed.dim == 2
