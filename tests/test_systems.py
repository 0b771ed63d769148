import numpy as np
import pytest

from conftest import near_commuting, word_operator
from fcslab import fixtures, systems
from fcslab.linalg import dag


ALL_FIXTURES = ["aklt", "bernoulli-uniform", "bernoulli-basis",
                "nonergodic-z2", "two-block", "period-two"]


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_every_fixture_validates(name):
    sys_ = fixtures.by_name(name)
    diag = systems.validate(sys_)
    assert diag.ok
    assert diag.unit_residual < 1e-12
    search = systems.invariant_states(sys_)
    assert search.multiplicity >= 1
    search.mean_state.check(sys_, tol=1e-9)


def test_random_system_is_normalized():
    sys_ = fixtures.random_system(4, 3, seed=11)
    assert systems.validate(sys_).unit_residual < 1e-12


def _predual(sys_, rho):
    return sum(dag(v) @ rho @ v for v in sys_.ops)


def _cyclic_one_plus_two():
    """Period 2 between the classes span{e_0} and span{e_1, e_2}: the
    maximally mixed state is not invariant, and its iterates alternate
    between two distinct diagonal densities from the first step on."""
    e = np.eye(3)
    return systems.KrausSystem(np.stack([
        np.sqrt(1 / 3) * np.outer(e[0], e[1]), np.sqrt(2 / 3) * np.outer(e[0], e[2]),
        np.outer(e[1], e[0]), np.outer(e[2], e[0])]))


class TestInvariantStates:
    def test_aklt_unique_maximally_mixed(self):
        search = systems.invariant_states(fixtures.aklt())
        assert search.multiplicity == 1
        assert np.allclose(search.mean_state.rho, np.eye(2) / 2, atol=1e-12)

    def test_nonergodic_segment(self):
        sys_ = fixtures.nonergodic_z2()
        search = systems.invariant_states(sys_)
        assert search.multiplicity == 2
        search.mean_state.check(sys_, tol=1e-8)
        # the segment's extreme densities are the two diagonal corners, and
        # the mean state is their midpoint
        assert np.allclose(search.mean_state.rho, np.eye(2) / 2, atol=1e-12)

    def test_two_block_mean_has_full_support(self):
        search = systems.invariant_states(fixtures.two_block())
        assert search.multiplicity == 2
        evals = np.linalg.eigvalsh(search.mean_state.rho)
        assert evals.min() > 1e-6

    @pytest.mark.parametrize("make", [fixtures.period_two, _cyclic_one_plus_two],
                             ids=["period-two", "cyclic-1+2"])
    def test_mean_is_the_average_over_one_period(self, make):
        sys_ = make()
        assert systems.validate(sys_).ok
        spectrum = np.linalg.eigvals(sys_.predual_super())
        peripheral = np.sort(spectrum[np.abs(np.abs(spectrum) - 1) <= 1e-8].real)
        assert np.allclose(peripheral, [-1.0, 1.0], atol=1e-12)
        rho = np.eye(sys_.n, dtype=complex) / sys_.n
        for _ in range(4 * sys_.n ** 2):  # the non-peripheral part dies out
            rho = _predual(sys_, rho)
        average = (rho + _predual(sys_, rho)) / 2
        mean = systems.invariant_states(sys_).mean_state.rho
        assert np.max(np.abs(average - mean)) <= 1e-12

    def test_cyclic_mean_is_not_one_iterate(self):
        # on period-two 1/n is invariant; here the period average carries
        # the check above
        sys_ = _cyclic_one_plus_two()
        mean = systems.invariant_states(sys_).mean_state.rho
        assert np.allclose(mean, np.diag([1 / 2, 1 / 6, 1 / 3]), atol=1e-12)
        assert np.max(np.abs(_predual(sys_, np.eye(3) / 3) - mean)) > 0.1

    @pytest.mark.parametrize("ops, message", [
        # a Jordan block at 1: the left and right kernels are orthogonal
        ([[[1.0, 1.0], [0.0, 1.0]]], r"not semisimple \(sigma_min\(L\^T R\) = "),
        ([0.5 * np.eye(2)], "no fixed point"),
        ([[[0.0, 1.0], [0.0, 0.0]]], "no fixed point"),
    ], ids=["jordan-block", "half-identity", "nilpotent"])
    def test_families_without_a_cesaro_mean_are_refused(self, ops, message):
        sys_ = systems.KrausSystem(np.array(ops, dtype=complex))
        with pytest.raises(systems.ValidationError, match=message):
            systems.invariant_states(sys_)


class TestCompression:
    def test_identity_when_support_is_full(self):
        sys_ = fixtures.aklt()
        search = systems.invariant_states(sys_)
        comp, state, iso = systems.compress_to_support(sys_, search.mean_state)
        assert comp.n == sys_.n
        assert systems.validate(comp).ok

    def test_proper_support_compression(self):
        sys_ = fixtures.two_block()
        # the extreme state living on the scalar block has 1-dim support
        scalar = np.zeros((sys_.n, sys_.n), dtype=complex)
        scalar[-1, -1] = 1.0
        small = systems.InvariantState(scalar)
        comp, state, iso = systems.compress_to_support(sys_, small)
        assert comp.n == 1
        assert systems.validate(comp).ok
        state.check(comp, tol=1e-8)


class TestCanonicalize:
    def test_gns_orthonormality_and_cyclicity(self):
        sys_ = fixtures.aklt()
        search = systems.invariant_states(sys_)
        can = systems.canonicalize(sys_, search.mean_state)
        assert can.gns_dim == 4
        m = can.gns_dim
        rho = can.state.rho
        c = can.basis_mats
        gram = np.einsum("pq,arq,brp->ab", rho, np.conj(c), c)
        assert np.linalg.norm(gram - np.eye(m)) < 1e-10

    def test_representation_is_multiplicative(self):
        sys_ = fixtures.random_system(2, 2, seed=3)
        search = systems.invariant_states(sys_)
        comp, state, _ = systems.compress_to_support(sys_, search.mean_state)
        can = systems.canonicalize(comp, state)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(comp.n, comp.n)) + 1j * rng.normal(size=(comp.n, comp.n))
        y = rng.normal(size=(comp.n, comp.n)) + 1j * rng.normal(size=(comp.n, comp.n))
        lhs = can.represent(x @ y)
        rhs = can.represent(x) @ can.represent(y)
        assert np.linalg.norm(lhs - rhs) < 1e-9
        # adjoints are respected and Omega implements the state
        assert np.linalg.norm(can.represent(dag(x)) - dag(can.represent(x))) < 1e-9
        got = np.conj(can.omega) @ (can.represent(x) @ can.omega)
        want = np.trace(state.rho @ x)
        assert abs(got - want) < 1e-10

    def test_letters_outside_the_algebra_are_refused(self, monkeypatch):
        # with the kernel tolerance loosened to tol, C holds the block
        # projection, A = C' is the block algebra, and the letters lie
        # outside it by about 1e-6
        sys_ = near_commuting(1e-6)
        search = systems.invariant_states(sys_)
        comp, state, _ = systems.compress_to_support(sys_, search.mean_state)
        monkeypatch.setattr(systems, "KERNEL_TOL", 1e-4)
        with pytest.raises(systems.ValidationError, match="outside"):
            systems.canonicalize(comp, state, tol=1e-4)

    def test_faithfulness_required(self):
        sys_ = fixtures.two_block()
        rho = np.zeros((3, 3), dtype=complex)
        rho[2, 2] = 1.0  # supported on the scalar block only
        with pytest.raises(systems.ValidationError):
            systems.canonicalize(sys_, systems.InvariantState(rho))


class TestWords:
    def test_enumeration_count(self):
        ws = systems.words(3, 2)
        assert len(ws) == 1 + 3 + 9
        assert ws[0] == ()

    def test_word_operator_is_forward_product(self):
        ops = fixtures.aklt().ops
        w = (0, 1, 2)
        expect = ops[0] @ ops[1] @ ops[2]
        assert np.allclose(word_operator(ops, w), expect)
        table = systems.word_operators(ops, 3)
        assert np.allclose(table[w], expect)

    def test_moment_table_reverse_flag(self):
        sys_ = fixtures.aklt()
        state = systems.InvariantState(np.eye(2, dtype=complex) / 2)
        ws, fwd = systems.moment_table(sys_, state, 2)
        _, rev = systems.moment_table(sys_, state, 2, reverse=True)
        for a, wa in enumerate(ws):
            for b, wb in enumerate(ws):
                ra = ws.index(wa[::-1])
                rb = ws.index(wb[::-1])
                assert abs(fwd[a, b] - rev[ra, rb]) < 1e-12
