"""Tests of the benchmark's oracle and tracer, including the negative control.

    python3 -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fcslab import fixtures, linalg, purity, serialize  # noqa: E402

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _input(tmp_path, kind, sys_, name="case"):
    path = tmp_path / f"{name}.json"
    path.write_text(serialize.dumps_system(sys_), encoding="utf-8")
    return workloads.Input(name, kind, sys_, path)


@pytest.fixture(scope="module")
def battery_report(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("battery")
    inp = _input(tmp, "random", fixtures.random_system(2, 2, 5))
    code, error, _ = workloads._analyze("battery", inp.path, tmp / "report.json")
    assert (code, error) == (0, None)
    return (tmp / "report.json").read_bytes()


@pytest.fixture(scope="module")
def twosided_report(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("twosided")
    path = tmp / "p2.json"
    path.write_text(serialize.dumps_system(fixtures.period_two()), encoding="utf-8")
    from fcslab import cli
    assert cli.main(["analyze", str(path), "--level", "2",
                     "-o", str(tmp / "report.json")]) == 0
    return (tmp / "report.json").read_bytes()


def _corrupt(report: bytes, edit) -> bytes:
    doc = json.loads(report)
    edit(doc)
    return json.dumps(doc).encode()


def test_correct_reports_pass(battery_report, twosided_report):
    assert oracle.check_report("random", 0, None, battery_report, twosided=False) == []
    assert oracle.check_report("period-two", 0, None, twosided_report,
                               twosided=True) == []


@pytest.mark.parametrize("edit", [
    lambda d: d.update(is_pure=False),
    lambda d: d.update(invariant_multiplicity=2),
    lambda d: d.update(gauge_group="Z_2"),
    lambda d: d["residuals"].update(kms_duality=1e-3),
    lambda d: d.update(twosided={}),
])
def test_corrupted_battery_report_fails(battery_report, edit):
    bad = _corrupt(battery_report, edit)
    assert oracle.check_report("random", 0, None, bad, twosided=False)


@pytest.mark.parametrize("edit", [
    lambda d: d["twosided"].update(gram_min_eigenvalue=-1e-3),
    lambda d: d["twosided"]["interior_residuals"].update(commutation=1e-4),
    lambda d: d["twosided"].update(moment_deviation=1e-4),
    lambda d: d.pop("twosided"),
])
def test_corrupted_twosided_report_fails(twosided_report, edit):
    bad = _corrupt(twosided_report, edit)
    assert oracle.check_report("period-two", 0, None, bad, twosided=True)


def test_exit_code_exception_and_missing_report_fail(battery_report):
    assert oracle.check_report("random", 4, None, battery_report, twosided=False)
    assert oracle.check_report("random", None, "RuntimeError()", None, twosided=False)
    assert oracle.check_report("random", 0, None, None, twosided=False)


def test_bytes_differing_between_passes_fail(battery_report):
    passes = oracle.PassComparison()
    assert passes.check("a", battery_report) == []
    assert passes.check("a", battery_report) == []
    assert passes.check("a", battery_report + b" ") != []


def test_wrong_verdict_counts_as_failed_case(tmp_path):
    """Negative control end to end: a random system filed under the block
    kind runs to completion and is counted as failed."""
    inp = _input(tmp_path, "block", fixtures.random_system(2, 2, 5))
    outcome = workloads.run_case("battery", inp, tmp_path, oracle.PassComparison())
    assert any("invariant_multiplicity" in p for p in outcome.problems)


def test_chain_oracle(tmp_path):
    sys_ = fixtures.random_system(3, 2, 5)
    out = workloads._chain_calls(sys_)
    assert oracle.check_chain("random", sys_, out) == []
    assert oracle.check_chain("block", sys_, out)
    out["spectrum"] = out["spectrum"][1:]
    assert any("spectrum" in p for p in oracle.check_chain("random", sys_, out))


def test_generation_is_seeded():
    for workload in workloads.WORKLOADS:
        a = workloads.generate(workload, 11)
        b = workloads.generate(workload, 11)
        c = workloads.generate(workload, 12)
        for (na, _, sa), (nb, _, sb), (_, _, sc) in zip(a, b, c):
            assert na == nb and (sa.ops == sb.ops).all()
            assert not (sa.ops == sc.ops).all()


def test_tracer_wraps_every_binding_and_restores():
    original = linalg.solve_linear_space
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # purity binds the helper through `from .linalg import ...`
        assert purity.solve_linear_space is not original
        assert linalg.solve_linear_space is purity.solve_linear_space
        with tracer.case(1, "aklt"):
            purity.purity_battery(fixtures.aklt())
    finally:
        tracer.remove()
    assert purity.solve_linear_space is original
    assert linalg.solve_linear_space is original
    totals = tracer.layer_totals()
    assert totals["algebras.commutant"]["calls"] == 3
    assert totals["linalg.solve_linear_space"]["calls"] > 0
    assert tracer.transfer_diagonalizations == 3
    case_span = tracer.spans[0]
    assert case_span["parent"] is None
    assert all(s["case"] == 1 for s in tracer.spans)
    assert all(s["self_s"] >= 0 for s in totals.values())


def test_tail_is_floored_at_the_slowest_input_median():
    few = [{"seconds": [1.0, 1.1, 2.0, 2.2], "failed": 0}] * 5  # 20 cases
    value, note = run.tail(few)
    assert value == 2.2 and "slowest input" in note
    # 24 cases: the ten-above percentile exists but sits below the floor
    assert run.tail(few + few[:1])[0] == 2.2
    many = [{"seconds": [1.0, 2.0 + 0.01 * k], "failed": 0} for k in range(25)]
    value, note = run.tail(many)
    assert value == pytest.approx(2.14) and note.startswith("p80.0")


def test_pass_rate_uses_input_medians_and_counts_failed_cases():
    passes = [{"seconds": [1.0, 3.0], "failed": 0},
              {"seconds": [1.0, 30.0], "failed": 0},
              {"seconds": [1.0, 3.0], "failed": 1}]
    assert run.pass_rate(passes) == pytest.approx(5 / 6 * 2 / 4)
