"""The purity battery's fixed-point certificates against the GNS-space SVD
fixed spaces they replace.

The battery certifies Fix(transfer) = A' by the fixed-point lemma
(``algebras.fixed_point_lemma``) with the density pi(rho), and decides
Fix(dual) = A by the lemma with J pi(rho) J and a comparison of two
commutants in M_r (``purity.dual_identity``).  The oracle solves both fixed
spaces as kernels of m^2 x m^2 matrices on the GNS space:
``algebras.channel_fixed_points`` and the kernel of the ``dual_channel``
frame matrix minus 1.

With J in standard form, J A J lies in A' by construction and the battery
no longer sweeps the transfer channel over it; the negative control below
builds J and Delta^{+-1/2} from a wrong density instead, which the modular
identities must refuse.
"""

import functools

import numpy as np
import pytest

from conftest import RANDOM_CASES, build_pipeline
from fcslab import algebras, fixtures, modular, purity
from fcslab.linalg import (OperatorSubspace, dag, frame_super, pos_power,
                           solve_linear_space, subspace_equal)

FIXTURES = ["aklt", "bernoulli-uniform", "bernoulli-basis", "nonergodic-z2",
            "two-block", "period-two"]
SYSTEMS = {name: functools.partial(fixtures.by_name, name) for name in FIXTURES}
SYSTEMS.update({f"seed{seed}-{n}x{d}": functools.partial(
    fixtures.random_system, n, d, seed) for seed, n, d in RANDOM_CASES})
SYSTEMS.update({f"3+3-d{d}": functools.partial(
    lambda d: fixtures.block_sum(fixtures.random_system(3, d, 21),
                                 fixtures.random_system(3, d, 22)), d)
    for d in (2, 3)})


@functools.lru_cache(maxsize=None)
def pipeline(label):
    return build_pipeline(SYSTEMS[label]())


def density(p):
    return p.can.represent(p.comp_state.rho)


def fixed_space(super_mat, m):
    """Kernel of a frame matrix minus 1 on m x m matrices."""
    return solve_linear_space([super_mat - np.eye(m * m)], m, frame=True)


@pytest.mark.parametrize("label", SYSTEMS)
def test_support_identity(label):
    p = pipeline(label)
    fixed = algebras.channel_fixed_points(p.can.pi_ops)
    comm = algebras.commutant(p.can.algebra)
    ok, angle = subspace_equal(fixed, comm)
    assert ok and angle <= 1e-12, angle
    assert fixed.dim == comm.dim == p.can.algebra.dim
    assert algebras.fixed_point_lemma(p.can.pi_ops, density(p)) <= 1e-12


@pytest.mark.parametrize("label", SYSTEMS)
def test_dual_identity(label):
    p = pipeline(label)
    dual_super, _ = modular.dual_channel(p.md, p.dual)
    want, _ = subspace_equal(fixed_space(dual_super, p.can.gns_dim),
                             p.can.algebra)
    assert algebras.fixed_point_lemma(
        p.dual.ops, p.md.j.sandwich(density(p))) <= 1e-12
    got, angle = purity.dual_identity(p.md, p.dual.ops)
    assert got == want and angle <= 1e-12, angle


@pytest.mark.parametrize("label", SYSTEMS)
def test_dual_generators_closed_form(label):
    # x_k = rho^{-1/2} v_k* rho^{1/2} on the support
    p = pipeline(label)
    rho, v = p.comp_state.rho, p.comp_sys.ops
    closed = pos_power(rho, -0.5) @ dag(v) @ pos_power(rho, 0.5)
    got = purity.dual_generators(p.md, p.dual.ops)
    assert np.max(np.abs(got - closed)) <= 1e-12


@pytest.mark.parametrize("label", SYSTEMS)
def test_support_commutants_match_the_twirl(label):
    # {g_k, g_k*}' in M_r against the commutant of the generated algebra
    p = pipeline(label)
    r = p.comp_sys.n
    for gens in (p.comp_sys.ops, purity.dual_generators(p.md, p.dual.ops)):
        want = algebras.commutant(algebras.generated_algebra(list(gens), r))
        got = algebras.generated_commutant(gens, 1e-9)
        ok, angle = subspace_equal(got, want)
        assert ok and got.dim == want.dim and angle <= 1e-12, angle


def test_generated_commutant_needs_the_adjoints():
    # a Jordan block commutes with its own powers, but only the scalars
    # commute with it and its adjoint
    jordan = np.array([[[0.0, 1.0], [0.0, 0.0]]], dtype=complex)
    got = algebras.generated_commutant(jordan, 1e-9)
    assert got.dim == 1
    assert subspace_equal(got, OperatorSubspace(2, np.eye(2) / np.sqrt(2)))[0]


@pytest.mark.parametrize("label", ["aklt", "period-two", "two-block",
                                   "seed1-3x2", "seed5-4x3", "3+3-d2"])
def test_scalar_duals_are_strictly_larger(label):
    # w_k = c_k 1 fixes every operator: both the oracle and the certificate
    # find Fix(dual) strictly larger than A
    p = pipeline(label)
    m = p.can.gns_dim
    c = np.arange(1.0, p.dual.ops.shape[0] + 1) * np.exp(0.3j)
    scalar = (c / np.linalg.norm(c))[:, None, None] * np.eye(m)
    oracle = fixed_space(frame_super(scalar), m)
    assert oracle.dim == m * m > p.can.algebra.dim
    assert not subspace_equal(oracle, p.can.algebra)[0]
    assert algebras.fixed_point_lemma(
        scalar, p.md.j.sandwich(density(p))) <= 1e-12
    ok, angle = purity.dual_identity(p.md, scalar)
    assert not ok and angle > 0.5


def test_lemma_rejects_a_non_invariant_density():
    p = pipeline("seed2-4x2")
    flat = p.can.represent(np.eye(p.comp_sys.n) / p.comp_sys.n)
    with pytest.raises(algebras.FixedPointLemmaError, match="invariance"):
        algebras.fixed_point_lemma(p.can.pi_ops, flat)


def test_lemma_rejects_a_singular_density():
    p = pipeline("seed2-4x2")
    corner = np.zeros((p.comp_sys.n,) * 2)
    corner[0, 0] = 1.0
    with pytest.raises(algebras.FixedPointLemmaError, match="not faithful"):
        algebras.fixed_point_lemma(p.can.pi_ops, p.can.represent(corner))
    with pytest.raises(algebras.FixedPointLemmaError, match="not faithful"):
        algebras.fixed_point_lemma(p.can.pi_ops, 0 * density(p))


def test_lemma_rejects_a_non_unital_family():
    # the adjoint family leaves 1 invariant but is not unital: sum v* v != 1
    v = pipeline("seed2-4x2").comp_sys.ops
    with pytest.raises(algebras.FixedPointLemmaError, match="unit defect"):
        algebras.fixed_point_lemma(dag(v), np.eye(v.shape[-1]))


WRONG_DENSITIES = {
    "flat": lambda rho, g: np.eye(len(rho)) / len(rho),
    "squared": lambda rho, g: rho @ rho,
    "perturbed": lambda rho, g: rho + 1e-6 * g,
    # rho^{-1} puts rho^{-1/2} where rho^{1/2} belongs, and vice versa
    "sides-swapped": lambda rho, g: np.linalg.inv(rho),
}


@pytest.mark.parametrize("wrong", WRONG_DENSITIES)
@pytest.mark.parametrize("label", ["seed0-4x2", "3+3-d2"])
def test_standard_form_from_a_wrong_density_is_refused(label, wrong,
                                                       monkeypatch):
    # J and Delta^{+-1/2} read off a density other than rho_A still satisfy
    # J^2 = 1 and J Delta^{1/2} = S, but J is no longer antiunitary for the
    # GNS inner product: the modular identities refuse it at their usual
    # threshold (j_antiunitary reads 1e-4 to 2e3 on these rows)
    sys_ = (fixtures.random_system(4, 2, 0) if label == "seed0-4x2"
            else SYSTEMS[label]())
    can = build_pipeline(sys_).can
    rho = modular._algebra_density(can)
    rng = np.random.default_rng(0)
    g = rng.normal(size=rho.shape) + 1j * rng.normal(size=rho.shape)
    b = can.base_algebra.rows  # the perturbation is kept inside A
    g = (b.T @ (np.conj(b) @ (g + dag(g)).reshape(-1))).reshape(rho.shape)
    monkeypatch.setattr(modular, "_algebra_density",
                        lambda _: WRONG_DENSITIES[wrong](rho, g))
    with pytest.raises(modular.ModularError, match="j_antiunitary"):
        modular.modular_data(can)
