"""Batched word data against the one-word-at-a-time forms it replaced.

``systems.word_stack`` builds each word length of operators, and
``modular.word_vectors`` each length of vectors, with one matrix product
over the letters.
The references below build every word operator by its own product
(``conftest.word_operator``) and evaluate the dual diagnostics word by word,
multiplying each word operator by Omega.  They serve only as small oracles.
"""

import tracemalloc

import numpy as np
import pytest

from conftest import build_pipeline, word_operator
from fcslab import fixtures, modular, systems
from fcslab.linalg import dag

TOL = 1e-12


def reference_dual_diagnostics(md, duals, word_len=3, moment_len=4):
    """Identities (i)-(iv) of ``modular.dual_diagnostics``, one word
    operator per word."""
    m = md.gns_dim
    omega = md.omega
    b = md.can.algebra.basis
    residuals = {
        "commutant_membership": max(
            float(np.linalg.norm(w @ x - x @ w)) for w in duals for x in b),
        "dual_unitality": float(np.linalg.norm(
            sum(w @ dag(w) for w in duals) - np.eye(m))),
    }
    d = len(duals)
    max_len = max(word_len, moment_len)
    vtab = {w: word_operator(md.pi_ops, w) for w in systems.words(d, max_len)}
    wtab = {w: word_operator(duals, w) for w in systems.words(d, max_len)}

    res_words = 0.0
    for word, wop in wtab.items():
        if 1 <= len(word) <= word_len:
            lhs = dag(wop) @ omega
            rhs = dag(vtab[word[::-1]]) @ omega
            res_words = max(res_words, float(np.linalg.norm(lhs - rhs)))
    residuals["dual_word_vectors"] = res_words

    ws = [w for w in vtab if len(w) <= moment_len]
    a_vecs = np.stack([dag(vtab[w]) @ omega for w in ws])
    b_vecs = np.stack([dag(wtab[w[::-1]]) @ omega for w in ws])
    lhs = np.conj(a_vecs) @ a_vecs.T
    rhs = np.conj(b_vecs) @ b_vecs.T
    residuals["moment_duality"] = float(np.max(np.abs(lhs - rhs)))
    return residuals


@pytest.mark.parametrize("eps", [1e-6, 1e-3])
@pytest.mark.parametrize("space", ["random", "algebra", "commutant"])
@pytest.mark.parametrize("name", ["aklt", "block-3+3", "random-3-3",
                                  "random-4-2", "two-block"])
def test_membership_on_generators_tracks_the_basis_sweep(name, space, eps):
    # identity (i) reads the commutators with pi(v_j) and pi(v_j)*, which
    # generate pi(A); the reference sweeps the whole basis of pi(A)
    p = build_pipeline(SYSTEMS[name]())
    m = p.md.gns_dim
    rng = np.random.default_rng(len(name))
    if space == "random":
        y = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    else:
        basis = (p.can.algebra if space == "algebra" else p.md.commutant).basis
        y = np.einsum("a,aij->ij", rng.normal(size=len(basis))
                      + 1j * rng.normal(size=len(basis)), basis)
    duals = p.dual.ops.copy()
    duals[0] += eps * y / np.linalg.norm(y)
    got = modular.dual_diagnostics(p.md, duals)["commutant_membership"]
    want = reference_dual_diagnostics(p.md, duals, 0, 0)["commutant_membership"]
    if space == "commutant":
        assert got <= TOL
    else:
        assert want / 2 <= got <= 2 * want


def test_membership_skips_a_zero_letter():
    # a zero letter is a valid Kraus operator; its image has no direction
    ops = fixtures.aklt().ops
    sys_ = systems.KrausSystem(np.concatenate([ops, np.zeros_like(ops[:1])]))
    res = build_pipeline(sys_).dual.residuals["commutant_membership"]
    assert np.isfinite(res) and res <= TOL


def _random_ops(d, n, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(d, n, n)) + 1j * rng.normal(size=(d, n, n))


@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
@pytest.mark.parametrize("max_len", [0, 1, 4])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_word_stack_matches_single_word_products(d, max_len, reverse):
    ops = _random_ops(d, 3, seed=10 * d + max_len) / 2
    ws = systems.words(d, max_len)
    stack = systems.word_stack(ops, max_len, reverse=reverse)
    assert stack.shape == (systems.word_count(d, max_len), 3, 3)
    for w, got in zip(ws, stack):
        want = word_operator(ops, w[::-1] if reverse else w)
        assert np.max(np.abs(got - want)) <= TOL, w
    if not reverse:
        table = systems.word_operators(ops, max_len)
        assert list(table) == ws
        assert np.array_equal(np.stack(list(table.values())), stack)


@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
@pytest.mark.parametrize("max_len", [0, 1, 4])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_moment_table_matches_single_word_products(d, max_len, reverse):
    sys_ = fixtures.random_system(3, d, seed=d)
    rho = systems.invariant_states(sys_).mean_state.rho
    ws, vals = systems.moment_table(sys_, systems.InvariantState(rho),
                                    max_len, reverse=reverse)
    assert ws == systems.words(d, max_len)
    ops = [word_operator(sys_.ops, w[::-1] if reverse else w) for w in ws]
    want = np.array([[np.trace(rho @ a @ dag(b)) for b in ops] for a in ops])
    assert np.max(np.abs(vals - want)) <= TOL


@pytest.mark.parametrize("prepend", [False, True], ids=["append", "prepend"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_word_vectors_match_single_word_products(d, prepend):
    ops = _random_ops(d, 4, seed=d) / 3
    omega = np.random.default_rng(9).normal(size=4) + 0j
    got = modular.word_vectors(ops, omega, 3, prepend=prepend)
    for w, vec in zip(systems.words(d, 3), got):
        want = dag(word_operator(ops, w[::-1] if prepend else w)) @ omega
        assert np.max(np.abs(vec - want)) <= TOL, w


SYSTEMS = {
    **{name: lambda name=name: fixtures.by_name(name)
       for name in ("aklt", "bernoulli-uniform", "bernoulli-basis",
                    "period-two", "nonergodic-z2", "two-block")},
    "random-2-2": lambda: fixtures.random_system(2, 2, 7),
    "random-3-3": lambda: fixtures.random_system(3, 3, 4),
    "random-4-2": lambda: fixtures.random_system(4, 2, 2),
    "random-2-4": lambda: fixtures.random_system(2, 4, 5),
    "block-3+3": lambda: fixtures.block_sum(fixtures.random_system(3, 2, 21),
                                            fixtures.random_system(3, 2, 22)),
    "block-2+2-d3": lambda: fixtures.block_sum(
        fixtures.random_system(2, 3, 1), fixtures.random_system(2, 3, 2)),
}


def _variants(duals):
    """The dual family, its sign-flipped first letter, and (for d >= 2) its
    first two letters swapped."""
    flipped = duals.copy()
    flipped[0] = -flipped[0]
    out = {"dual": duals, "sign-flipped": flipped}
    if len(duals) > 1:
        out["letter-swapped"] = duals[[1, 0, *range(2, len(duals))]]
    return out


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_dual_diagnostics_match_word_by_word(name):
    p = build_pipeline(SYSTEMS[name]())
    for label, duals in _variants(p.dual.ops).items():
        got = modular.dual_diagnostics(p.md, duals)
        want = reference_dual_diagnostics(p.md, duals, modular.WORD_LEN,
                                          modular.MOMENT_LEN)
        assert got.keys() == want.keys()
        for key in got:
            assert abs(got[key] - want[key]) <= TOL, (label, key)


def test_corrupted_variants_break_the_identities():
    # the comparison above is not between two round-off-level numbers
    p = build_pipeline(fixtures.random_system(3, 3, 4))
    for label, duals in _variants(p.dual.ops).items():
        res = modular.dual_diagnostics(p.md, duals)
        broken = res["dual_word_vectors"] > 1e-2 and res["moment_duality"] > 1e-2
        assert broken == (label != "dual"), label


def _peak(fn, *args, **kwargs):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
def test_moment_table_budget_covers_its_peak(reverse):
    sys_ = fixtures.random_system(6, 2, 3)
    state = systems.invariant_states(sys_).mean_state
    need = 2 ** systems.log2_moment_bytes(sys_.d, sys_.n, 6)
    peak = _peak(systems.moment_table, sys_, state, 6, reverse=reverse)
    assert peak <= need
    # the stacks are a real share of it: 2 W n^2 against W^2 with W = 127
    assert peak > 16 * systems.word_count(2, 6) ** 2


def test_dual_diagnostics_budget_covers_its_peak():
    p = build_pipeline(fixtures.random_system(3, 3, 4))
    m = p.md.gns_dim
    need = 2 ** modular.log2_dual_bytes(3, m, 4)
    peak = _peak(modular.dual_diagnostics, p.md, p.dual.ops)
    assert peak <= need
