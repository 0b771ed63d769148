"""Stacked GNS coordinates against the per-element formulas they replaced.

Every GNS quantity is a set of coordinates <c_i, y>_phi = Tr(rho c_i* y)
against the orthonormal basis c of the canonical system.  The references
below evaluate them one basis element at a time: pi(x) by the four-operand
einsum, Tomita's S one column at a time, Omega by traces, the duals one
Kraus operator at a time, commutant membership one (dual, basis) pair at a
time, and the transfer matrix on the basis pi(c) through the m^2 x m^2
superoperator of the transfer channel on the GNS space.  The Hilbert-Schmidt
basis pi(b_a z^{-1/2}) of the represented algebra is compared with the SVD
of the stack pi(c), and the generated algebra A = C' on the support with the
word closure ``algebras.generated_algebra``.  They serve only as small-m
oracles.  Besides the fixtures, the seeded systems and the block sums, the
inputs include algebras with multiplicity, M_k (x) 1_l blocks, where z =
sum_a b_a b_a* is k / l on each block and not a multiple of 1.

The modular data in standard form, J and Delta^{+-1/2} read off the density
on the support, is compared with the generic polar decomposition of S it
replaced: Delta = S* S, its Hermitian part, its powers +-1/2 by
eigendecomposition, and J = S Delta^{-1/2}.
"""

import numpy as np
import pytest

from conftest import build_pipeline
from fcslab import algebras, fixtures, modular, purity, systems
from fcslab.linalg import (OperatorSubspace, dag, pos_power,
                           subspace_contains, subspace_equal, unvec, vec)
from fcslab.systems import KrausSystem
from test_commutant_reference import CASES, SWEEP

FIXTURES = ("aklt", "bernoulli-uniform", "bernoulli-basis", "nonergodic-z2",
            "two-block", "period-two")
TOL = 1e-13
# largest deviation of the standard form from the polar decomposition,
# relative to max(1, largest entry): 9e-15 for J and 1.1e-14 for Delta
# (seed6-2x2); Delta reaches 1e6 in the amplitude-damping sweep
POLAR_RTOL = 2e-14


def with_multiplicity(sys_, copies):
    """The system v_k (x) 1_copies: its algebra is M_n (x) 1_copies."""
    eye = np.eye(copies)
    return KrausSystem(np.stack([np.kron(a, eye) for a in sys_.ops]))


# z = sum_a b_a b_a* has the eigenvalues {1.5}, {1.5, 2} and {2/3, 2}
MULTIPLICITY = {
    "u(x)1_2": lambda: with_multiplicity(fixtures.random_system(3, 2, 31), 2),
    "v(+)u(x)1_2": lambda: fixtures.block_sum(
        fixtures.random_system(2, 2, 32),
        with_multiplicity(fixtures.random_system(3, 2, 33), 2)),
    "u(x)1_3(+)v": lambda: fixtures.block_sum(
        with_multiplicity(fixtures.random_system(2, 2, 34), 3),
        fixtures.random_system(2, 2, 35)),
}
MULTIPLICITY_Z = {"u(x)1_2": [1.5], "v(+)u(x)1_2": [1.5, 2.0],
                  "u(x)1_3(+)v": [2 / 3, 2.0]}


def reference_pi(rho, c, x):
    return np.einsum("pq,irq,rs,jsp->ij", rho, np.conj(c), x, c)


def reference_s(rho, c):
    s = np.empty((len(c), len(c)), dtype=complex)
    for j in range(len(c)):
        s[:, j] = np.einsum("pq,irq,rp->i", rho, np.conj(c), dag(c[j]))
    return s


def reference_transfer(can):
    """The transfer channel on A in the basis pi(c): column j is
    tau(pi(c_j)) Omega, with tau applied by its m^2 x m^2 superoperator to
    pi(c_j) from the four-operand einsum."""
    rho, c, m = can.state.rho, can.basis_mats, can.gns_dim
    sup = algebras.channel_super(can.pi_ops)
    return np.stack([unvec(sup @ vec(reference_pi(rho, c, x)), m) @ can.omega
                     for x in c], axis=1)


def deviations(p):
    """Largest entrywise deviation from the references, per quantity."""
    can, md = p.can, p.md
    rho, c = can.state.rho, can.basis_mats
    m = can.gns_dim
    ref_basis_images = np.stack([reference_pi(rho, c, x) for x in c])
    ref_algebra = OperatorSubspace.from_matrices(ref_basis_images, m)
    ref_duals = np.stack([md.j.sandwich(modular._sigma_i_half(md, dag(a)))
                          for a in can.pi_ops])
    ref_membership = max(float(np.linalg.norm(w @ b - b @ w))
                         for w in ref_duals for b in can.algebra.basis)
    ref_transfer = reference_transfer(can)
    ref_w = np.linalg.eigvals(ref_transfer)
    erg = purity.ergodicity(can)
    assert erg.fixed_dim_in_algebra == int(np.sum(np.abs(ref_w - 1.0) <= 1e-8))
    gram = np.stack([[np.trace(rho @ dag(a) @ b) for b in c] for a in c])
    rows = can.algebra.rows
    return {
        "algebra_orthonormal": np.max(np.abs(
            np.conj(rows) @ rows.T - np.eye(can.algebra.dim))),
        "gram": np.max(np.abs(gram - np.eye(m))),
        "pi_ops": np.max(np.abs(can.pi_ops - np.stack(
            [reference_pi(rho, c, a) for a in p.comp_sys.ops]))),
        "omega": np.max(np.abs(can.omega - [np.trace(rho @ dag(x)) for x in c])),
        "basis_images": np.max(np.abs(can.represent(c) - ref_basis_images)),
        "algebra": max(subspace_contains(can.algebra, ref_algebra)[1],
                       subspace_contains(ref_algebra, can.algebra)[1]),
        "s": np.max(np.abs(md.s.mat - reference_s(rho, c))),
        "duals": np.max(np.abs(p.dual.ops - ref_duals)),
        "commutant_membership": abs(
            p.dual.residuals["commutant_membership"] - ref_membership),
        "transfer": np.max(np.abs(can.transfer - ref_transfer)),
    }


def assert_close(p, label):
    dev = deviations(p)
    worst = max(dev, key=dev.get)
    assert dev[worst] <= TOL, (label, worst, dev[worst])


@pytest.mark.parametrize("name", FIXTURES)
def test_fixtures(name):
    assert_close(build_pipeline(fixtures.by_name(name)), name)


def test_random_cases(random_pipelines):
    for seed, n, d, p in random_pipelines:
        assert_close(p, (seed, n, d))


def test_block_sum():
    sys_ = fixtures.block_sum(fixtures.random_system(3, 2, 21),
                              fixtures.random_system(3, 2, 22))
    p = build_pipeline(sys_)
    assert p.can.gns_dim == 18
    assert_close(p, "3+3 block sum")


@pytest.mark.parametrize("label", MULTIPLICITY)
def test_algebras_with_multiplicity(label):
    p = build_pipeline(MULTIPLICITY[label]())
    b = p.can.base_algebra.basis
    z = np.linalg.eigvalsh(np.einsum("aij,akj->ik", b, np.conj(b)))
    assert np.allclose(np.unique(np.round(z, 9)), MULTIPLICITY_Z[label])
    assert_close(p, label)


@pytest.mark.parametrize("label", {**CASES, **MULTIPLICITY})
def test_base_algebra_matches_the_word_closure(label):
    # A = C' from the commutant solver against the closure of the words in
    # {v_k, v_k*} on the support
    p = build_pipeline({**CASES, **MULTIPLICITY}[label]())
    ops = p.comp_sys.ops
    closure = algebras.generated_algebra(list(ops), p.comp_sys.n)
    base = p.can.base_algebra
    ok, angle = subspace_equal(base, closure)
    assert base.dim == closure.dim == p.can.gns_dim
    assert ok and angle <= 1e-12, angle
    assert np.max(np.abs(np.conj(base.rows) @ base.rows.T
                         - np.eye(base.dim))) <= 1e-12


def reference_polar(s):
    """(J, Delta^{1/2}, Delta^{-1/2}, Delta) from the polar decomposition S =
    J Delta^{1/2}: the antilinear S has the adjoint mat^T, so Delta = S* S is
    mat^T conj(mat)."""
    delta = s.mat.T @ np.conj(s.mat)
    delta = (delta + dag(delta)) / 2
    d_minus_half = pos_power(delta, -0.5)
    return (s.after_linear(d_minus_half).mat, pos_power(delta, 0.5),
            d_minus_half, delta)


@pytest.mark.parametrize("label", {**CASES, **SWEEP})
def test_standard_form_matches_the_polar_decomposition(label):
    md = build_pipeline({**CASES, **SWEEP}[label]()).md
    got = (md.j.mat, md.d_half, md.d_minus_half, md.delta)
    for name, x, ref in zip(("j", "d_half", "d_minus_half", "delta"), got,
                            reference_polar(md.s)):
        scale = max(1.0, float(np.max(np.abs(ref))))
        dev = float(np.max(np.abs(x - ref)))
        assert dev <= POLAR_RTOL * scale, (label, name, dev, scale)


def test_basis_orthonormal_under_perturbed_density():
    # the basis from the Gram of the algebra alone is orthonormal to about
    # cond(rho) * eps, which exceeded TOL for some 1e-16 perturbations of
    # rho on this system (cond(rho) = 244)
    sys_ = fixtures.random_system(2, 2, 6)
    rho = systems.invariant_states(sys_).mean_state.rho
    rng = np.random.default_rng(0)
    for _ in range(200):
        e = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        state = systems.InvariantState(rho + (e + dag(e)) * 0.5e-16)
        c = systems.canonicalize(sys_, state).basis_mats
        gram = np.stack([[np.trace(state.rho @ dag(a) @ b) for b in c] for a in c])
        assert np.max(np.abs(gram - np.eye(len(c)))) <= TOL


def test_stacked_calls_match_single_calls(aklt_pipeline):
    can = aklt_pipeline.can
    n = can.base.n
    rng = np.random.default_rng(5)
    ys = rng.normal(size=(2, 3, n, n)) + 1j * rng.normal(size=(2, 3, n, n))
    coords, reps = can.coordinates(ys), can.represent(ys)
    assert coords.shape == (2, 3, can.gns_dim)
    assert reps.shape == (2, 3, can.gns_dim, can.gns_dim)
    for idx in np.ndindex(2, 3):
        assert np.max(np.abs(coords[idx] - can.coordinates(ys[idx]))) <= TOL
        assert np.max(np.abs(reps[idx] - can.represent(ys[idx]))) <= TOL
        assert np.max(np.abs(
            reps[idx] - reference_pi(can.state.rho, can.basis_mats, ys[idx]))) <= TOL
