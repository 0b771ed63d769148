import numpy as np
import pytest

from fcslab import fixtures, modular
from fcslab.linalg import dag
from conftest import build_pipeline, word_operator


@pytest.fixture(scope="module")
def generic():
    # a random system gives a non-tracial canonical state, so the modular
    # operator is genuinely nontrivial
    return build_pipeline(fixtures.random_system(2, 2, seed=7))


def test_modular_identities_within_tolerance(generic):
    md = generic.md
    for name, value in md.residuals.items():
        assert value < 1e-9, (name, value)
    assert np.linalg.norm(md.delta - np.eye(md.gns_dim)) > 1e-3


def test_tracial_state_gives_trivial_delta(aklt_pipeline):
    md = aklt_pipeline.md
    assert np.linalg.norm(md.delta - np.eye(md.gns_dim)) < 1e-10


def test_s_implements_star_operation(generic):
    md = generic.md
    can = generic.can
    rng = np.random.default_rng(1)
    n = generic.comp_sys.n
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    lhs = md.s(can.represent(x) @ can.omega)
    rhs = can.represent(dag(x)) @ can.omega
    assert np.linalg.norm(lhs - rhs) < 1e-9


def test_modular_flow_satisfies_kms_boundary(generic):
    # phi(x y) = phi(y sigma_{-i}(x)) for the state phi = <Omega, . Omega>
    md = generic.md
    omega = md.omega
    basis = generic.can.algebra.basis
    for x in basis[:3]:
        sx = modular.sigma(md, x, -1j)
        for y in basis[:3]:
            lhs = np.conj(omega) @ (x @ y @ omega)
            rhs = np.conj(omega) @ (y @ sx @ omega)
            assert abs(lhs - rhs) < 1e-8


def test_sigma_rejects_outside_operators(generic):
    md = generic.md
    m = md.gns_dim
    rng = np.random.default_rng(2)
    x = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    ok, _ = generic.can.algebra.contains(x)
    if not ok:
        with pytest.raises(modular.ModularError):
            modular.sigma(md, x, 1.0)


def test_j_maps_algebra_into_commutant(generic):
    from fcslab import algebras
    md = generic.md
    comm = algebras.commutant(generic.can.algebra)
    for x in generic.can.algebra.basis:
        jx = md.j.sandwich(x)
        ok, res = comm.contains(jx)
        assert ok, res


def test_dual_family_residuals(generic):
    for name, value in generic.dual.residuals.items():
        assert value < 1e-9, (name, value)


def test_dual_word_vector_identity_spotcheck(aklt_pipeline):
    md = aklt_pipeline.md
    dual = aklt_pipeline.dual
    word = (0, 2, 1)
    wop = word_operator(dual.ops, word)
    vop = word_operator(md.pi_ops, word[::-1])
    assert np.linalg.norm(dag(wop) @ md.omega - dag(vop) @ md.omega) < 1e-10


def test_dual_channel_duality(generic):
    super_mat, res = modular.dual_channel(generic.md, generic.dual)
    assert res["kms_duality"] < 1e-9
    assert res["kms_duality"] == modular.kms_duality(generic.md, generic.dual)
    assert generic.dual.residuals["dual_unitality"] < 1e-10
    m = generic.md.gns_dim
    assert super_mat.shape == (m * m, m * m)


def test_corrupted_duals_are_rejected(aklt_pipeline):
    md = aklt_pipeline.md
    bad = aklt_pipeline.dual.ops.copy()
    bad[0] = -bad[0]
    res = modular.dual_diagnostics(md, bad)
    assert res["dual_word_vectors"] > 1e-2
    assert res["moment_duality"] > 1e-2


def test_kms_duality_matches_pairwise_loop(generic):
    # perturbed duals make the residual O(1e-1), so the comparison is not
    # between two roundoff-level numbers
    md = generic.md
    rng = np.random.default_rng(3)
    ops = generic.dual.ops + 0.1 * rng.normal(size=generic.dual.ops.shape)
    _, res = modular.dual_channel(md, modular.DualSystem(ops=ops, residuals={}),
                                  tol=1.0)
    omega = md.omega
    ref, ys = 0.0, md.commutant.basis
    for x in md.can.algebra.basis:
        tx = sum(a @ x @ dag(a) for a in md.pi_ops)
        for y in ys:
            ty = sum(w @ y @ dag(w) for w in ops)
            ref = max(ref, abs(np.vdot(y @ omega, tx @ omega)
                               - np.vdot(ty @ omega, x @ omega)))
    assert ref > 1e-3
    assert abs(res["kms_duality"] - ref) <= 1e-12
    with pytest.raises(modular.DualConstructionError):
        modular.kms_duality(md, modular.DualSystem(ops=ops, residuals={}))
