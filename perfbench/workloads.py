"""Seeded inputs and the case runners of the three workloads.

Every input is generated from the workload seed.  The CLI workloads see only
system JSON files written under the run directory; ``chain-large-n`` hands
``KrausSystem`` values to library calls.  One pass runs every input of the
workload once, in a fixed order.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np
from fcslab import chain, cli, fixtures, purity, serialize, systems

import oracle

WORKLOADS = ("twosided", "battery", "chain-large-n")

# chain-large-n call parameters
CLUSTER_MAX_GAP = 1
MOMENT_MAX_LEN = 3


@dataclass(frozen=True)
class Input:
    name: str
    kind: str  # key of oracle.EXPECTED
    system: systems.KrausSystem
    path: Path | None  # system file read by the CLI, None for library calls


@dataclass
class Outcome:
    seconds: float
    problems: list
    gns_dim: int | None = None  # read from the report of a correct CLI case


def _child_seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31, count)]


def _rotated(sys_: systems.KrausSystem, seed: int) -> systems.KrausSystem:
    """v_k -> U v_k U* for a seeded unitary U; the state's verdicts are unchanged."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(sys_.n, sys_.n)) + 1j * rng.normal(size=(sys_.n, sys_.n))
    q, r = np.linalg.qr(z)
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    return systems.KrausSystem(np.stack([u @ a @ u.conj().T for a in sys_.ops]))


def _block(n: int, d: int, seed_a: int, seed_b: int) -> systems.KrausSystem:
    return fixtures.block_sum(fixtures.random_system(n, d, seed_a),
                              fixtures.random_system(n, d, seed_b))


def generate(workload: str, seed: int) -> list[tuple[str, str, systems.KrausSystem]]:
    """(name, kind, system) for every input of a workload."""
    s = _child_seeds(seed, 6)
    if workload == "twosided":
        return [("aklt", "aklt", _rotated(fixtures.aklt(), s[0])),
                ("period-two", "period-two", _rotated(fixtures.period_two(), s[1]))]
    if workload == "battery":
        return [("random-n4-d2", "random", fixtures.random_system(4, 2, s[0])),
                ("random-n4-d3", "random", fixtures.random_system(4, 3, s[1])),
                ("block-3+3-d2", "block", _block(3, 2, s[2], s[3])),
                ("block-3+3-d3", "block", _block(3, 3, s[4], s[5]))]
    if workload == "chain-large-n":
        return [("random-n16-d2", "random", fixtures.random_system(16, 2, s[0])),
                ("random-n16-d3", "random", fixtures.random_system(16, 3, s[1])),
                ("random-n20-d2", "random", fixtures.random_system(20, 2, s[2])),
                ("random-n20-d3", "random", fixtures.random_system(20, 3, s[3])),
                ("block-8+8-d2", "block", _block(8, 2, s[4], s[5]))]
    raise ValueError(f"unknown workload {workload!r}")


def prepare(workload: str, seed: int, run_dir: Path) -> list[Input]:
    """Generate the inputs and, for the CLI workloads, write the system files."""
    inputs = []
    for name, kind, sys_ in generate(workload, seed):
        path = None
        if workload != "chain-large-n":
            path = run_dir / "inputs" / f"{name}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(serialize.dumps_system(
                sys_, metadata={"name": name, "seed": seed}), encoding="utf-8")
        inputs.append(Input(name, kind, sys_, path))
    return inputs


def warm_up(workload: str, run_dir: Path) -> None:
    """One untimed call on a 2x2 system, so lazy imports happen before timing."""
    tiny = fixtures.random_system(2, 2, 0)
    if workload == "chain-large-n":
        _chain_calls(tiny)
        return
    path = run_dir / "inputs" / "warm-up.json"
    path.write_text(serialize.dumps_system(tiny), encoding="utf-8")
    _analyze("battery", path, run_dir / "warm-up.report.json")


def _analyze(workload: str, path: Path, report: Path):
    """`fcslab analyze` in-process; returns (exit code, error, seconds)."""
    argv = ["analyze", str(path), "-o", str(report)]
    if workload == "battery":
        argv.append("--no-amalgam")
    report.unlink(missing_ok=True)
    sink = io.StringIO()
    code, error = None, None
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = perf_counter()
        try:
            code = cli.main(argv)
        except (Exception, SystemExit) as exc:  # a failed case, counted below
            error = repr(exc)
        seconds = perf_counter() - start
    return code, error, seconds


def _chain_calls(sys_: systems.KrausSystem) -> dict:
    search = systems.invariant_states(sys_)
    compressed, state, _ = systems.compress_to_support(sys_, search.mean_state)
    spectrum = purity.channel_spectrum(sys_)
    mixing = purity.kolmogorov_proxy(sys_)
    gauge = chain.gauge_group(compressed, state)
    cluster = chain.cluster_decay(compressed, state, CLUSTER_MAX_GAP)
    moments = systems.moment_table(compressed, state, MOMENT_MAX_LEN)
    return {"search": search, "compressed": compressed, "state": state,
            "spectrum": spectrum, "mixing": mixing, "gauge": gauge,
            "cluster": cluster, "moments": moments}


def run_case(workload: str, inp: Input, run_dir: Path,
             passes: oracle.PassComparison) -> Outcome:
    """Run one case and check its output."""
    if workload == "chain-large-n":
        start = perf_counter()
        try:
            out = _chain_calls(inp.system)
        except Exception as exc:  # a failed case, counted by the caller
            return Outcome(perf_counter() - start, [f"exception: {exc!r}"])
        seconds = perf_counter() - start
        problems = oracle.check_chain(inp.kind, inp.system, out)
        problems += passes.check(inp.name, oracle.chain_digest(out))
        return Outcome(seconds, problems)
    report_path = run_dir / "reports" / f"{inp.name}.json"
    report_path.parent.mkdir(parents=True, exist_ok=True)
    code, error, seconds = _analyze(workload, inp.path, report_path)
    report = report_path.read_bytes() if report_path.exists() else None
    problems = oracle.check_report(inp.kind, code, error, report,
                                   twosided=workload == "twosided")
    if not problems:
        problems += passes.check(inp.name, report)
    gns_dim = None if problems else json.loads(report)["gns_dim"]
    return Outcome(seconds, problems, gns_dim)
