import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
# imported on first use by the norm pass; imported here so that its module
# objects do not count towards the measured peaks
import scipy.sparse.csgraph  # noqa: F401

from conftest import build_pipeline
from fcslab import cli, fixtures, systems, twosided


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
        # the first level refused for period-two: q = 2^12 * 4 = 16384, and
        # the 63^2 moment vectors in C^q alone need about 4961 MiB
        p = build_pipeline(fixtures.period_two())
        with pytest.raises(twosided.TruncationError,
                           match=r"level 6 needs about 5053 MiB for 1411 x 1411 "
                                 r"word-pair blocks of the raw Gram, 4 sparse "
                                 r"shift compressions and moment vectors of "
                                 r"dimension 16384, over the budget of 1024 MiB"):
            twosided.build(p.md, p.dual, level=6)

    @pytest.mark.parametrize("make, level", [
        (fixtures.aklt, 2), (fixtures.aklt, 3),
        (fixtures.two_block, 2), (fixtures.two_block, 3),
        (fixtures.period_two, 3), (fixtures.period_two, 4),
        (fixtures.bernoulli_uniform, 4), (fixtures.bernoulli_uniform, 5),
    ], ids=["aklt-L2", "aklt-L3", "two-block-L2", "two-block-L3",
            "period-two-L3", "period-two-L4", "bernoulli-L4", "bernoulli-L5"])
    def test_guard_bounds_measured_peaks(self, make, level):
        p = build_pipeline(make())
        gram, moments, relations, held = (2 ** x for x in twosided.held_bytes(
            p.md.pi_ops.shape[0], p.md.gns_dim, level))
        checks = {
            "moment_check": lambda rep: twosided.moment_check(
                rep, p.comp_sys, p.comp_state, level - 1),
            "check_relations": twosided.check_relations,
            "shift_check": twosided.shift_check,
            "compression_residual": twosided.compression_residual,
        }
        peaks = {}
        tracemalloc.start()
        try:
            rep = twosided.build(p.md, p.dual, level)
            build_peak = tracemalloc.get_traced_memory()[1]
            for name, check in checks.items():
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                check(rep)
                peaks[name] = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # each transient against its own term plus what is held throughout;
        # the norm passes of the other residual checks against the largest
        assert build_peak <= gram + held
        assert peaks.pop("moment_check") <= moments + held
        assert peaks.pop("check_relations") <= relations + held
        for name, peak in peaks.items():
            assert peak <= max(gram, moments, relations) + held, name

    @pytest.mark.parametrize("name, refused", [
        ("aklt", 4), ("two-block", 4), ("period-two", 6),
        ("bernoulli-uniform", 6), ("bernoulli-basis", 6), ("nonergodic-z2", 6),
    ])
    def test_first_refused_level(self, name, refused):
        # the guard admits the level below (by its own need, without
        # building it) and refuses this one before allocating
        p = build_pipeline(fixtures.by_name(name))
        *transients, held = twosided.held_bytes(
            p.md.pi_ops.shape[0], p.md.gns_dim, refused - 1)
        assert 2 ** max(transients) + 2 ** held <= systems.BYTES_BUDGET
        with pytest.raises(twosided.TruncationError, match="over the budget"):
            twosided.build(p.md, p.dual, refused)

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
    def test_aklt_level_three(self, tmp_path):
        # q = 3^6 * 4 = 2916
        out = tmp_path / "r.json"
        assert cli.main(["analyze", "fixture:aklt", "--level", "3",
                         "-o", str(out)]) == cli.EXIT_OK
        doc = json.loads(out.read_text())["twosided"]
        assert doc["quotient_dim"] == 2916
        assert max(doc["interior_residuals"].values()) <= 1e-8
        assert doc["gram_min_eigenvalue"] >= -1e-8

    def test_period_two_level_five_runs_within_budget(self, tmp_path):
        # the deepest period-two level the guard admits must run within the
        # budget it was admitted under (ru_maxrss is in KiB on Linux)
        script = ("import resource, sys\n"
                  "from fcslab import cli\n"
                  "code = cli.main(sys.argv[1:])\n"
                  "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
                  "sys.exit(code)\n")
        out = tmp_path / "r.json"
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c", script, "analyze", "fixture:period-two",
             "--level", "5", "-o", str(out)],
            capture_output=True, text=True, env=env, check=False)
        assert proc.returncode == cli.EXIT_OK, proc.stderr
        assert int(proc.stdout.split()[-1]) * 1024 < systems.BYTES_BUDGET
        assert json.loads(out.read_text())["twosided"]["quotient_dim"] == 4096

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
