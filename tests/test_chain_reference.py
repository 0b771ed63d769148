"""Broadcast chain-state evaluation against per-operator references.

``cluster_decay`` evaluates every pair of matrix units at a gap with one
stacked ``two_point`` call.  The reference below is the per-pair loop it
replaced, one unbatched ``two_point`` and ``local_expectation`` call per
matrix unit or pair.  ``apply_e_map`` is compared with the defining double
sum, and stacked evaluations with the unbatched calls element by element.
"""

import math

import numpy as np
import pytest

from fcslab import chain, fixtures, systems


def reference_cluster_values(sys_, state, max_gap):
    units = [chain.matrix_unit(sys_.d, i, j)
             for i in range(sys_.d) for j in range(sys_.d)]
    singles = [chain.local_expectation(sys_, state, [u]) for u in units]
    values = np.zeros(max_gap + 1)
    for g in range(max_gap + 1):
        for ia, ua in enumerate(units):
            for ib, ub in enumerate(units):
                c = chain.two_point(sys_, state, ua, ub, g) - singles[ia] * singles[ib]
                values[g] = max(values[g], abs(c))
    return values


def reference_differences(sys_, state, cutoff, tol=1e-9):
    """Length differences |I| - |J| of the nonzero moments, pair by pair."""
    ws, vals = systems.moment_table(sys_, state, cutoff)
    lengths = np.array([len(w) for w in ws])
    diffs = set()
    for a, b in zip(*np.nonzero(np.abs(vals) > tol)):
        diffs.add(int(lengths[a] - lengths[b]))
    return tuple(sorted(diffs))


CASES = {
    "aklt": (fixtures.aklt, 6),
    "period-two": (fixtures.period_two, 4),
    "nonergodic-z2": (fixtures.nonergodic_z2, 4),
    "two-block": (fixtures.two_block, 4),
    **{f"random-{n}-{d}": (lambda n=n, d=d: fixtures.random_system(n, d, 7), 3)
       for n in (3, 5) for d in (2, 3)},
}


def _random_ops(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cluster_decay_matches_pair_loop(name):
    make, max_gap = CASES[name]
    sys_ = make()
    state = systems.invariant_states(sys_).mean_state
    rep = chain.cluster_decay(sys_, state, max_gap)
    want = reference_cluster_values(sys_, state, max_gap)
    assert rep.values.shape == want.shape
    assert np.max(np.abs(rep.values - want)) <= 1e-14


@pytest.mark.parametrize("n, d", [(3, 2), (4, 3)])
def test_e_map_matches_double_sum(n, d):
    sys_ = fixtures.random_system(n, d, 3)
    rng = np.random.default_rng(n * d)
    a = _random_ops(rng, (5, d, d))
    b = _random_ops(rng, (5, n, n))
    got = chain.apply_e_map(sys_, a, b)
    v = sys_.ops
    for k in range(5):
        want = np.einsum("ij,ipq,qr,jsr->ps", a[k], v, b[k], np.conj(v))
        assert np.max(np.abs(got[k] - want)) <= 1e-13


@pytest.mark.parametrize("n, d", [(3, 2), (4, 3)])
def test_stacked_evaluation_matches_unbatched(n, d):
    sys_ = fixtures.random_system(n, d, 5)
    state = systems.invariant_states(sys_).mean_state
    rng = np.random.default_rng(n + d)
    k = 4
    a, b, c = (_random_ops(rng, (k, d, d)) for _ in range(3))

    local = chain.local_expectation(sys_, state, [a[:, None], b, c[0]])
    assert local.shape == (k, k)
    for i in range(k):
        for j in range(k):
            want = chain.local_expectation(sys_, state, [a[i], b[j], c[0]])
            assert isinstance(want, complex)
            assert abs(local[i, j] - want) <= 1e-14

    for gap in (0, 2):
        pairs = chain.two_point(sys_, state, a[:, None], b, gap)
        assert pairs.shape == (k, k)
        for i in range(k):
            for j in range(k):
                want = chain.two_point(sys_, state, a[i], b[j], gap)
                assert isinstance(want, complex)
                assert abs(pairs[i, j] - want) <= 1e-14


GAUGE_CASES = {
    **{name: fixtures.by_name(name) for name in (
        "aklt", "bernoulli-uniform", "bernoulli-basis", "nonergodic-z2",
        "two-block", "period-two")},
    **{f"random-{n}-{d}-{seed}": fixtures.random_system(n, d, seed)
       for n, d in ((2, 2), (3, 2), (2, 3)) for seed in (0, 1)},
}


@pytest.mark.parametrize("name", sorted(GAUGE_CASES))
def test_gauge_differences_match_pair_loop(name):
    sys_ = GAUGE_CASES[name]
    state = systems.invariant_states(sys_).mean_state
    for cutoff in range(6):
        got = chain.gauge_group(sys_, state, cutoff)
        want = reference_differences(sys_, state, cutoff)
        assert got.differences == want
        assert all(type(x) is int for x in got.differences)
        nonzero = [abs(x) for x in want if x]
        assert got.order == (math.gcd(*nonzero) if nonzero else None)
