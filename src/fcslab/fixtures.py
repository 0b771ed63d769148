"""Built-in example systems."""

from __future__ import annotations

import numpy as np

from .systems import KrausSystem

SQ23 = np.sqrt(2.0 / 3.0)
SQ13 = np.sqrt(1.0 / 3.0)


def aklt() -> KrausSystem:
    """Spin-1 valence-bond chain generator; letters ordered (+, 0, -)."""
    sp = np.array([[0, 1], [0, 0]], dtype=np.complex128)
    sm = np.array([[0, 0], [1, 0]], dtype=np.complex128)
    sz = np.array([[1, 0], [0, -1]], dtype=np.complex128)
    return KrausSystem(np.stack([SQ23 * sp, -SQ13 * sz, -SQ23 * sm]))


def bernoulli_uniform() -> KrausSystem:
    """One-dimensional system with equal weights 1/sqrt(2)."""
    lam = 1.0 / np.sqrt(2.0)
    return KrausSystem(np.array([[[lam]], [[lam]]], dtype=np.complex128))


def bernoulli_basis() -> KrausSystem:
    """One-dimensional system concentrated on the first letter."""
    return KrausSystem(np.array([[[1.0]], [[0.0]]], dtype=np.complex128))


def nonergodic_z2() -> KrausSystem:
    """Two commuting diagonal letters; invariant densities form a segment."""
    s = 1.0 / np.sqrt(2.0)
    eye = np.eye(2, dtype=np.complex128)
    z = np.diag([1.0, -1.0]).astype(np.complex128)
    return KrausSystem(np.stack([s * eye, s * z]))


def period_two() -> KrausSystem:
    """Raising/lowering pair: ergodic but with peripheral eigenvalue -1."""
    sp = np.array([[0, 1], [0, 0]], dtype=np.complex128)
    sm = np.array([[0, 0], [1, 0]], dtype=np.complex128)
    return KrausSystem(np.stack([sp, sm]))


def block_sum(a: KrausSystem, b: KrausSystem) -> KrausSystem:
    """Direct sum of two systems with the same letter count."""
    if a.d != b.d:
        raise ValueError("letter counts must match")
    ops = np.zeros((a.d, a.n + b.n, a.n + b.n), dtype=np.complex128)
    for k in range(a.d):
        ops[k, : a.n, : a.n] = a.ops[k]
        ops[k, a.n:, a.n:] = b.ops[k]
    return KrausSystem(ops)


def two_block() -> KrausSystem:
    """Reducible direct-sum fixture exercising the non-ergodic battery path."""
    lams = np.array([0.6, 0.48, np.sqrt(1 - 0.6**2 - 0.48**2)])
    scalar = KrausSystem(lams.reshape(3, 1, 1).astype(np.complex128))
    return block_sum(aklt(), scalar)


def random_system(n: int, d: int, seed: int) -> KrausSystem:
    """Seeded random system, normalized so that sum v v* = 1."""
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(d, n, n)) + 1j * rng.normal(size=(d, n, n))
    total = sum(a @ a.conj().T for a in raw)
    w, u = np.linalg.eigh(total)
    whiten = u @ np.diag(w**-0.5) @ u.conj().T
    return KrausSystem(np.stack([whiten @ a for a in raw]))


_NAMED = {
    "aklt": aklt,
    "bernoulli-uniform": bernoulli_uniform,
    "bernoulli-basis": bernoulli_basis,
    "nonergodic-z2": nonergodic_z2,
    "two-block": two_block,
    "period-two": period_two,
}


RANDOM_MAX_SIZE = 64  # keeps a short fixture name from asking for a huge system


def fixture_names():
    return sorted(_NAMED) + ["random-seeded:<seed>[:<n>:<d>]"]


def by_name(name: str) -> KrausSystem:
    """A built-in system by name; ``random-seeded:<seed>`` is
    ``random_system(2, 2, seed)`` and ``random-seeded:<seed>:<n>:<d>`` is
    ``random_system(n, d, seed)``."""
    if name in _NAMED:
        return _NAMED[name]()
    if name.startswith("random-seeded:"):
        try:
            values = [int(field) for field in name.split(":")[1:]]
            seed, n, d = values if len(values) == 3 else (*values, 2, 2)
            if not (1 <= n <= RANDOM_MAX_SIZE and 1 <= d <= RANDOM_MAX_SIZE):
                raise ValueError
            return random_system(n, d, seed)
        except ValueError:
            raise KeyError(
                f"bad fixture {name!r}: expected random-seeded:<seed> or "
                "random-seeded:<seed>:<n>:<d>, with a non-negative integer "
                f"seed and integers 1 <= n, d <= {RANDOM_MAX_SIZE}") from None
    raise KeyError(f"unknown fixture {name!r}; known: {', '.join(fixture_names())}")
