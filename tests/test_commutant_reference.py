"""A' = J A J and the center on C^r against the twirl on the GNS space.

The commutant of the represented algebra A is J A J in closed form
(``modular.ModularData.commutant``, built on access; the battery applies J
to vectors only), and the battery takes the center of A on the support
C^r, as the center of {v_k, v_k*}' (``purity.ergodicity``).  The oracle is
the path they replaced: the range of the twirl on the m^2-dimensional
matrix space of the GNS space (``algebras.commutant``) and its intersection
with A there.  The amplitude-damping sweep approaches the singular modular
operator of eps = 1e-8, where J is ill-conditioned, so its angle bound is
looser.
"""

import numpy as np
import pytest

from conftest import RANDOM_CASES, build_pipeline
from fcslab import algebras, fixtures, purity
from fcslab.linalg import subspace_equal
from test_cli import _amplitude_damping

FIXTURES = ("aklt", "bernoulli-uniform", "bernoulli-basis", "nonergodic-z2",
            "two-block", "period-two")
CASES = {name: lambda name=name: fixtures.by_name(name) for name in FIXTURES}
CASES.update({f"seed{seed}-{n}x{d}": lambda n=n, d=d, seed=seed:
              fixtures.random_system(n, d, seed)
              for seed, n, d in RANDOM_CASES})
CASES.update({f"3+3-d{d}": lambda d=d: fixtures.block_sum(
    fixtures.random_system(3, d, 21), fixtures.random_system(3, d, 22))
    for d in (2, 3)})
CASES["aklt+aklt"] = lambda: fixtures.block_sum(fixtures.aklt(),
                                                fixtures.aklt())
SWEEP = {f"amplitude-damping-{eps:g}": lambda eps=eps: _amplitude_damping(eps)
         for eps in (1e-2, 1e-4, 1e-6)}


@pytest.mark.parametrize("label, bound", [(label, 1e-12) for label in CASES]
                         + [(label, 1e-9) for label in SWEEP])
def test_jaj_and_base_center_match_the_twirl(label, bound):
    p = build_pipeline({**CASES, **SWEEP}[label]())
    twirl = algebras.commutant(p.can.algebra)
    jaj = p.md.commutant
    ok, angle = subspace_equal(jaj, twirl)
    assert ok and jaj.dim == twirl.dim and angle <= bound, angle
    # J is antiunitary, so J A J keeps the orthonormal basis of A, up to
    # the conditioning of J
    gram = np.conj(jaj.rows) @ jaj.rows.T
    assert np.max(np.abs(gram - np.eye(twirl.dim))) <= bound
    center, _ = algebras.center_and_factor(p.can.algebra, twirl)
    assert purity.ergodicity(p.can).center_dim == center.dim
