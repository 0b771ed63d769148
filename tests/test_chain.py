import numpy as np
import pytest

from fcslab import chain, fixtures, purity, systems


def mean_state(sys_):
    return systems.invariant_states(sys_).mean_state


class TestLocalExpectation:
    def test_bernoulli_factorizes(self):
        sys_ = fixtures.bernoulli_uniform()
        state = mean_state(sys_)
        u = chain.matrix_unit(2, 0, 0)
        val = chain.local_expectation(sys_, state, [u, u, u])
        assert abs(val - 0.5**3) < 1e-12

    def test_matches_word_moments(self):
        # omega on matrix units equals the word moment phi(v_I v_J*)
        sys_ = fixtures.aklt()
        state = mean_state(sys_)
        ws, vals = systems.moment_table(sys_, state, 3)
        for a, wa in enumerate(ws):
            for b, wb in enumerate(ws):
                if len(wa) != len(wb) or not (1 <= len(wa) <= 3):
                    continue
                units = [chain.matrix_unit(3, i, j) for i, j in zip(wa, wb)]
                got = chain.local_expectation(sys_, state, units)
                assert abs(got - vals[a, b]) < 1e-12

    def test_translation_invariance(self):
        sys_ = fixtures.random_system(3, 2, seed=21)
        state = mean_state(sys_)
        rng = np.random.default_rng(0)
        for _ in range(5):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            eye = np.eye(2)
            bare = chain.local_expectation(sys_, state, [a, b])
            shifted = chain.local_expectation(sys_, state, [eye, a, b])
            assert abs(bare - shifted) < 1e-10

    def test_positivity_on_sitewise_squares(self):
        sys_ = fixtures.random_system(2, 3, seed=4)
        state = mean_state(sys_)
        rng = np.random.default_rng(1)
        for _ in range(10):
            a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            val = chain.local_expectation(sys_, state, [a.conj().T @ a])
            assert val.real > -1e-10
            assert abs(val.imag) < 1e-10


class TestTwoPoint:
    def test_gap_zero_is_adjacent_pair(self):
        sys_ = fixtures.aklt()
        state = mean_state(sys_)
        sz = np.diag([1.0, 0.0, -1.0]).astype(complex)
        via_gap = chain.two_point(sys_, state, sz, sz, 0)
        direct = chain.local_expectation(sys_, state, [sz, sz])
        assert abs(via_gap - direct) < 1e-12

    def test_negative_gap_rejected(self):
        sys_ = fixtures.aklt()
        with pytest.raises(ValueError):
            chain.two_point(sys_, mean_state(sys_), np.eye(3), np.eye(3), -1)


class TestClusterDecay:
    def test_aklt_ratio_is_one_third(self):
        sys_ = fixtures.aklt()
        rep = chain.cluster_decay(sys_, mean_state(sys_), max_gap=6)
        assert abs(1 - purity.kolmogorov_proxy(sys_).gap - 1 / 3) < 1e-12
        ratios = rep.values[3:] / rep.values[2:-1]
        assert np.all(np.abs(ratios - 1 / 3) < 1e-6)

    def test_bernoulli_clusters_immediately(self):
        sys_ = fixtures.bernoulli_uniform()
        rep = chain.cluster_decay(sys_, mean_state(sys_), max_gap=3)
        assert np.all(rep.values < 1e-12)

    def test_nonergodic_does_not_decay(self):
        sys_ = fixtures.nonergodic_z2()
        rep = chain.cluster_decay(sys_, mean_state(sys_), max_gap=5)
        assert rep.values[-1] > 0.1


class TestGaugeGroup:
    def test_bernoulli_uniform_trivial(self):
        sys_ = fixtures.bernoulli_uniform()
        g = chain.gauge_group(sys_, mean_state(sys_), length_cutoff=4)
        assert g.describe() == "trivial {1}"
        assert 1 in g.differences

    def test_period_two_z2(self):
        sys_ = fixtures.period_two()
        g = chain.gauge_group(sys_, mean_state(sys_), length_cutoff=4)
        assert g.kind == "cyclic" and g.order == 2
        assert all(x % 2 == 0 for x in g.differences)

    def test_weighted_clock_looks_like_circle(self):
        # letters proportional to a five-cycle: length differences only
        # show up at multiples of five, beyond the cutoff
        c = np.roll(np.eye(5, dtype=complex), 1, axis=0)
        ops = np.stack([0.6 * c, 0.8 * c])
        sys_ = systems.KrausSystem(ops)
        g = chain.gauge_group(sys_, mean_state(sys_), length_cutoff=4)
        assert g.kind == "circle"
        assert g.describe() == "S^1 (up to cutoff 4)"

    def test_aklt_has_odd_moments(self):
        # sigma+ sigma_z sigma- has nonzero trace, so odd length
        # differences are present and the detected group is trivial
        sys_ = fixtures.aklt()
        g = chain.gauge_group(sys_, mean_state(sys_), length_cutoff=4)
        assert g.kind == "cyclic" and g.order == 1
        assert 3 in g.differences
        v = sys_.ops
        assert abs(np.trace(v[0] @ v[1] @ v[2]) / 2 + 1 / (3 * np.sqrt(3))) < 1e-12
