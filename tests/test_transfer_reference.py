"""The transfer channel on vectors against its GNS-image formulas.

``purity.ergodicity`` reads its eigenvalues from the canonical system's
transfer matrix, filled on C^n, and ``modular.kms_duality`` applies the two
channels to the vectors x Omega and y Omega.  The references below are the
formulas they replaced: tau applied to the stacked basis of A on the GNS
space and restricted to A in its Hilbert-Schmidt basis, and both channels
applied to the stacked bases of A and A' before Omega is.  They serve only
as small-m oracles.
"""

import tracemalloc

import numpy as np
import pytest

from conftest import build_pipeline
from fcslab import fixtures, modular, purity
from fcslab.linalg import dag

FIXTURES = ("aklt", "bernoulli-uniform", "bernoulli-basis", "nonergodic-z2",
            "two-block", "period-two")
TOL = 1e-12


def reference_fixed_dim(can, tol: float = 1e-8) -> int:
    alg = can.algebra
    image = sum(a @ alg.basis @ dag(a) for a in can.pi_ops)  # tau on the basis
    restricted = np.conj(alg.rows) @ image.reshape(alg.dim, -1).T
    w = np.linalg.eigvals(restricted)
    return int(np.sum(np.abs(w - 1.0) <= tol))


def reference_kms(md, duals) -> float:
    omega = md.omega
    xs = md.can.algebra.basis
    ys = md.commutant.basis
    tx = sum(a @ xs @ dag(a) for a in md.pi_ops)
    ty = sum(w @ ys @ dag(w) for w in duals)
    lhs = np.conj(ys @ omega) @ (tx @ omega).T
    rhs = np.conj(ty @ omega) @ (xs @ omega).T
    return float(np.max(np.abs(lhs - rhs)))


def dual_families(p):
    """The modular duals, a perturbed copy and a copy with w_0 -> -w_0.

    The sign of one Kraus operator does not change its channel, so the
    sign-flipped duals still satisfy the duality; only the perturbed ones
    break it."""
    duals = p.dual.ops
    rng = np.random.default_rng(3)
    noise = rng.normal(size=duals.shape) + 1j * rng.normal(size=duals.shape)
    flipped = duals.copy()
    flipped[0] = -flipped[0]
    return {"modular": duals, "perturbed": duals + 0.1 * noise,
            "sign-flipped": flipped}


def assert_agree(p, label):
    assert (purity.ergodicity(p.can).fixed_dim_in_algebra
            == reference_fixed_dim(p.can)), label
    for kind, ops in dual_families(p).items():
        got = modular.kms_duality(p.md, modular.DualSystem(ops, {}), tol=np.inf)
        ref = reference_kms(p.md, ops)
        assert abs(got - ref) <= TOL, (label, kind, got, ref)
        if kind == "perturbed":
            assert ref > 1e-3, (label, ref)


@pytest.mark.parametrize("name", FIXTURES)
def test_fixtures(name):
    assert_agree(build_pipeline(fixtures.by_name(name)), name)


def test_random_cases(random_pipelines):
    for seed, n, d, p in random_pipelines:
        assert_agree(p, (seed, n, d))


@pytest.mark.parametrize("d", [2, 3])
def test_block_sums(d):
    p = build_pipeline(fixtures.block_sum(fixtures.random_system(3, d, 21),
                                          fixtures.random_system(3, d, 22)))
    assert p.can.gns_dim == 18
    assert reference_fixed_dim(p.can) == 2
    assert_agree(p, f"3+3 block sum, d = {d}")


def test_kms_duality_forms_no_operator_stack():
    # one (dim A', m, m) stack of products is what the reference forms
    p = build_pipeline(fixtures.random_system(6, 2, 0))
    m = p.can.gns_dim
    stack = p.md.commutant.dim * m * m * 16
    tracemalloc.start()
    modular.kms_duality(p.md, p.dual)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < stack / 4, (peak, stack)
