import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcslab import algebras, chain, fixtures, linalg, modular, purity, systems
from fcslab.systems import KrausSystem


class TestChannelSpectrum:
    def test_aklt(self):
        spec = purity.channel_spectrum(fixtures.aklt())
        want = np.array([1.0, -1 / 3, -1 / 3, -1 / 3])
        assert np.allclose(spec, want, atol=1e-12)

    def test_leading_eigenvalue_is_one(self):
        for name in ("bernoulli-uniform", "period-two", "two-block"):
            spec = purity.channel_spectrum(fixtures.by_name(name))
            assert abs(spec[0] - 1.0) < 1e-10

    def test_deterministic_ordering(self):
        a = purity.channel_spectrum(fixtures.random_system(3, 2, seed=9))
        b = purity.channel_spectrum(fixtures.random_system(3, 2, seed=9))
        assert np.array_equal(a, b)


class TestMixing:
    def test_aklt_gap(self):
        res = purity.kolmogorov_proxy(fixtures.aklt())
        assert res.strongly_mixing
        assert abs(res.gap - 2 / 3) < 1e-10

    def test_period_two_peripheral(self):
        res = purity.kolmogorov_proxy(fixtures.period_two())
        assert not res.strongly_mixing


class TestBattery:
    def test_aklt_certificate(self):
        rep = purity.purity_battery(fixtures.aklt())
        assert rep.is_pure and rep.is_factor and rep.is_ergodic
        assert rep.invariant_multiplicity == 1
        assert rep.support_identity_ok and rep.dual_identity_ok
        assert rep.gns_dim == 4
        assert max(rep.residuals.values()) < 1e-9

    def test_bernoulli_pure(self):
        for name in ("bernoulli-uniform", "bernoulli-basis"):
            rep = purity.purity_battery(fixtures.by_name(name))
            assert rep.is_pure, name
            assert rep.gns_dim == 1

    def test_nonergodic_not_factor(self):
        rep = purity.purity_battery(fixtures.nonergodic_z2())
        assert not rep.is_factor
        assert not rep.is_ergodic
        assert not rep.is_pure
        assert rep.dual_identity_ok is None
        assert rep.invariant_multiplicity == 2

    def test_two_block_reducible(self):
        rep = purity.purity_battery(fixtures.two_block())
        assert rep.invariant_multiplicity == 2
        assert not rep.is_pure
        assert "ergodic" in rep.purity_reason

    def test_period_two_pure_but_not_mixing(self):
        rep = purity.purity_battery(fixtures.period_two())
        assert rep.is_ergodic
        assert rep.is_pure
        assert not rep.strongly_mixing

    def test_indirect_certification_note_present(self):
        rep = purity.purity_battery(fixtures.aklt())
        assert any("finite-dimensional" in note for note in rep.notes)

    @pytest.mark.parametrize("name", ["aklt", "3+3"])
    def test_commutant_and_transfer_spectrum_computed_once(self, name,
                                                            monkeypatch):
        # A' = J A J comes from the modular data, so the twirl is never run;
        # the battery solves three commutants on C^r, in order: C = {v_k,
        # v_k*}' in canonicalize, A = C' from C's basis, and {x_k, x_k*}' in
        # the dual identity.  The center reads C and A, so the letters' C is
        # solved once; the word closure and the orthonormalization of a
        # represented basis are never run, and the mixing proxy is read off
        # the reported spectrum
        sys_ = fixtures.aklt() if name == "aklt" else fixtures.block_sum(
            fixtures.random_system(3, 2, 21), fixtures.random_system(3, 2, 22))
        calls = {"commutant": 0, "psd_range": 0, "transfer_super": 0,
                 "generated_algebra": 0, "orthonormalize_matrices": 0}
        gens, ambients = [], []

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        def recorded(store, fn, read):
            def wrapper(*args, **kwargs):
                store.append(read(args[0]))
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(algebras, "commutant",
                            counted("commutant", algebras.commutant))
        monkeypatch.setattr(algebras, "psd_range",
                            counted("psd_range", algebras.psd_range))
        monkeypatch.setattr(KrausSystem, "transfer_super",
                            counted("transfer_super", KrausSystem.transfer_super))
        monkeypatch.setattr(algebras, "generated_algebra", counted(
            "generated_algebra", algebras.generated_algebra))
        orthonormalize = counted("orthonormalize_matrices",
                                 linalg.orthonormalize_matrices)
        for module in (linalg, algebras):
            monkeypatch.setattr(module, "orthonormalize_matrices",
                                orthonormalize)
        monkeypatch.setattr(algebras, "generated_commutant", recorded(
            gens, algebras.generated_commutant, np.copy))
        monkeypatch.setattr(algebras, "subspace_intersection", recorded(
            ambients, algebras.subspace_intersection, lambda a: a.ambient_dim))
        rep = purity.purity_battery(sys_)
        assert calls == {"commutant": 0, "psd_range": 0, "transfer_super": 1,
                         "generated_algebra": 0, "orthonormalize_matrices": 0}
        p = rep.pipeline
        ops, n = p.comp_sys.ops, p.comp_sys.n
        assert sum(g.shape == ops.shape and np.array_equal(g, ops)
                   for g in gens) == 1
        assert len(gens) == 3
        assert np.array_equal(gens[0], ops)
        assert np.array_equal(gens[1], p.can.base_commutant.basis)
        assert np.array_equal(
            gens[2], purity.dual_generators(p.md, p.dual.ops))
        # the one intersection is the center, on C^r and not the GNS space
        assert ambients == [n]
        assert p.can.base_algebra.ambient_dim == n
        assert rep.gns_dim > n

    @pytest.mark.parametrize("name", ["aklt", "3+3"])
    def test_no_commutant_basis_is_formed(self, name, monkeypatch):
        # J is in standard form, so J A J lies in A' by associativity: the
        # battery sandwiches no basis of A by J, and KMS duality applies J
        # to vectors
        sys_ = fixtures.aklt() if name == "aklt" else fixtures.block_sum(
            fixtures.random_system(3, 2, 21), fixtures.random_system(3, 2, 22))
        shapes, real = [], linalg.AntilinearOp.sandwich

        def recorded(self, lin):
            shapes.append(np.shape(lin))
            return real(self, lin)

        monkeypatch.setattr(linalg.AntilinearOp, "sandwich", recorded)
        rep = purity.purity_battery(sys_)
        # nor does it represent the basis of A: pi(A) is read on C^r
        assert "algebra" not in rep.pipeline.can.__dict__
        dim, m = rep.pipeline.can.algebra.dim, rep.gns_dim
        assert (dim, m, m) not in shapes
        assert shapes  # the duals and the dual density are still sandwiched

    def test_no_stack_over_the_algebra_is_held(self):
        # at n = 16 (m = 256, dim A = m) any array holding A's basis on the
        # GNS space has 16 m^3 bytes, 256 MiB; the battery stays below a
        # quarter of one
        m = 16 * 16
        tracemalloc.start()
        try:
            purity.purity_battery(fixtures.random_system(16, 2, 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * m**3 / 4

    @pytest.mark.parametrize("name", ["aklt", "3+3"])
    def test_no_word_operator_table_is_built(self, name, monkeypatch):
        # the dual diagnostics read word vectors and the gauge group's moment
        # table reads the word stack; neither builds the dict of operators
        sys_ = fixtures.aklt() if name == "aklt" else fixtures.block_sum(
            fixtures.random_system(3, 2, 21), fixtures.random_system(3, 2, 22))
        calls, real = [], systems.word_operators

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        for module in (systems, modular, chain, purity):
            if hasattr(module, "word_operators"):
                monkeypatch.setattr(module, "word_operators", counted)
        purity.purity_battery(sys_)
        assert calls == []

    def test_validation_error_on_bad_system(self):
        bad = KrausSystem(np.stack([np.eye(2, dtype=complex),
                                    np.eye(2, dtype=complex)]))
        with pytest.raises(Exception):
            purity.purity_battery(bad)


_FIELDS = ("is_pure", "is_ergodic", "is_factor", "invariant_multiplicity",
           "strongly_mixing", "support_identity_ok", "dual_identity_ok")


def _unitary(n, rng):
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _verdicts(sys_):
    rep = purity.purity_battery(sys_)
    return tuple(getattr(rep, f) for f in _FIELDS)


@settings(max_examples=25, deadline=None)
@given(sizes=st.tuples(st.integers(1, 4), st.integers(0, 3)).filter(
           lambda s: sum(s) <= 4),
       d=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_verdicts_are_gauge_and_letter_covariant(sizes, d, seed):
    # verdicts do not change under v_k -> U v_k U* nor under the letter
    # mixing v_k -> sum_l u_kl v_l; a second block gives non-ergodic input
    n1, n2 = sizes
    sys_ = fixtures.random_system(n1, d, seed)
    if n2:
        sys_ = fixtures.block_sum(sys_, fixtures.random_system(n2, d, seed + 1))
    rng = np.random.default_rng(seed)
    u = _unitary(sys_.n, rng)
    mix = _unitary(d, rng)
    want = _verdicts(sys_)
    assert _verdicts(KrausSystem(u @ sys_.ops @ u.conj().T)) == want
    assert _verdicts(KrausSystem(np.einsum("kl,lij->kij", mix, sys_.ops))) \
        == want
