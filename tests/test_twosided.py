import dataclasses
import json

import numpy as np
import pytest

from conftest import build_pipeline
from fcslab import cli, fixtures, twosided


@pytest.fixture(scope="module")
def bernoulli_rep(bernoulli_pipeline):
    p = bernoulli_pipeline
    return p, twosided.build(p.md, p.dual, level=3)


@pytest.fixture(scope="module")
def aklt_rep(aklt_pipeline):
    p = aklt_pipeline
    return p, twosided.build(p.md, p.dual, level=2)


class TestBuild:
    def test_gram_positive(self, bernoulli_rep, aklt_rep):
        for _, rep in (bernoulli_rep, aklt_rep):
            assert rep.gram_min_eigenvalue > -1e-10
            assert rep.quotient_dim > 0

    def test_level_validation(self, aklt_pipeline):
        for level in (0, 1):
            with pytest.raises(ValueError, match="level must be >= 2"):
                twosided.build(aklt_pipeline.md, aklt_pipeline.dual, level)

    def test_dimension_guard(self, aklt_pipeline):
        with pytest.raises(twosided.TruncationError):
            twosided.build(aklt_pipeline.md, aklt_pipeline.dual, level=4)

    def test_memory_guard_message(self):
        # q = 2^10 * 4 = 4096, N = 63^2 * 4 = 15876: Q alone (992 MiB) fits,
        # with the factorization residual's row blocks it does not
        p = build_pipeline(fixtures.period_two())
        with pytest.raises(twosided.TruncationError,
                           match=r"level 5 needs about 1117 MiB for the 4096 x "
                                 r"15876 quotient map and 4 sparse shift "
                                 r"compressions, over the budget of 1024 MiB"):
            twosided.build(p.md, p.dual, level=5)

    def test_compressions_are_sparse(self, aklt_rep):
        # m nonzeros per column of each S_k, Stilde_k; V has d m per column
        p, rep = aklt_rep
        q, m = rep.quotient_dim, p.md.gns_dim
        for a in rep.right_ops + rep.left_ops:
            assert a.format == "csr" and a.shape == (q, q)
            assert a.nnz <= q * m
        assert rep.shift.format == "csr" and rep.shift.nnz <= rep.d * q * m

    @pytest.mark.parametrize("make, corrupt", [
        (fixtures.aklt, lambda p: 1.1 * p.dual.ops),
        (fixtures.aklt, lambda p: np.conj(np.swapaxes(p.md.pi_ops, 1, 2))),
        (lambda: fixtures.random_system(2, 2, 5),
         lambda p: np.conj(p.dual.ops)),
    ], ids=["scaled-duals", "v-star-duals", "conjugated-duals"])
    def test_corrupted_duals_are_refused(self, make, corrupt):
        p = build_pipeline(make())
        bad = dataclasses.replace(p.dual, ops=corrupt(p))
        with pytest.raises(twosided.TruncationError, match="does not factor"):
            twosided.build(p.md, bad, level=2)

    def test_vacuum_is_normalized(self, bernoulli_rep):
        _, rep = bernoulli_rep
        assert abs(np.linalg.norm(rep.omega) - 1.0) < 1e-10


class TestRelations:
    def test_interior_relations_hold(self, bernoulli_rep, aklt_rep):
        for _, rep in (bernoulli_rep, aklt_rep):
            rel = twosided.check_relations(rep)
            assert rel.max_interior() < 1e-10, rel.interior

    def test_boundary_residuals_reported(self, bernoulli_rep):
        _, rep = bernoulli_rep
        rel = twosided.check_relations(rep)
        # truncation makes the isometry relations fail at the outer shell
        assert rel.boundary["right_isometry"] > 0.1

    def test_support_compression_identity(self, bernoulli_rep, aklt_rep):
        for _, rep in (bernoulli_rep, aklt_rep):
            assert twosided.compression_residual(rep) < 1e-10


class TestMoments:
    def test_vector_state_matches_chain(self, bernoulli_rep, aklt_rep):
        for p, rep in (bernoulli_rep, aklt_rep):
            dev = twosided.moment_check(rep, p.comp_sys, p.comp_state,
                                        rep.level - 1)
            assert dev < 1e-10

    def test_window_bound_enforced(self, aklt_rep):
        p, rep = aklt_rep
        with pytest.raises(ValueError):
            twosided.moment_check(rep, p.comp_sys, p.comp_state, rep.level)


class TestDeeperLevel:
    def test_period_two_level_four(self, tmp_path):
        # q = 2^8 * 4 = 1024
        out = tmp_path / "r.json"
        assert cli.main(["analyze", "fixture:period-two", "--level", "4",
                         "-o", str(out)]) == cli.EXIT_OK
        doc = json.loads(out.read_text())["twosided"]
        assert doc["quotient_dim"] == 1024
        assert max(doc["interior_residuals"].values()) <= 1e-8


class TestShift:
    def test_shift_checks(self, bernoulli_rep, aklt_rep):
        for _, rep in (bernoulli_rep, aklt_rep):
            shift = twosided.shift_check(rep)
            assert shift.isometry_residual < 1e-10
            assert shift.omega_residual < 1e-10
            assert shift.covariance_residual < 1e-10
