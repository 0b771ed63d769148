"""fcslab benchmark: one closed-loop workload per invocation.

    python3 perfbench/run.py --workload twosided --seed 1 --seconds 30 --trace 0

A single caller runs the workload's cases one after another, each starting
when the previous one has returned, in whole passes over the seeded inputs
until --seconds is used up (at least two passes, so every output can be
compared with an earlier pass).  Every case's output is checked by the
oracle.  With --trace 0 nothing is instrumented and the end-to-end metrics
are printed; with --trace 1 untraced and traced passes alternate and the
per-layer metrics are printed, with the tracing overhead.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.

The package is imported from ``src/`` of the checkout this file sits in;
the run stops with a nonzero exit code when it is not there.
"""

from __future__ import annotations

import os

# Cap the BLAS pools before NumPy is imported.
NPROC = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

import argparse
import gc
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 5
# At least two passes, so every output is compared with an earlier pass.
MIN_PASSES = 2
TAIL_ABOVE = 10


def _import_package():
    sys.path.insert(0, str(SRC))
    try:
        import fcslab
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import fcslab from {SRC}: {exc}")
    if Path(fcslab.__file__).resolve().parent != SRC / "fcslab":
        raise SystemExit(f"perfbench: fcslab resolved to {fcslab.__file__}, "
                         f"not to {SRC / 'fcslab'}")


_import_package()

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def environment() -> dict:
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
        git_sha = proc.stdout.strip() or None
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "fcslab").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha,
        "source_sha256": src_hash.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": NPROC,
    }


def _input_medians(passes: list) -> list[float]:
    return [statistics.median(col) for col in zip(*(p["seconds"] for p in passes))]


def pass_rate(passes: list) -> float:
    """Cases per second of one pass with every input at its median case time,
    scaled by the share of cases that passed the oracle."""
    attempted = sum(len(p["seconds"]) for p in passes)
    passed = attempted - sum(p["failed"] for p in passes)
    medians = _input_medians(passes)
    return passed / attempted * len(medians) / sum(medians)


def tail(passes: list) -> tuple[float, str]:
    """The highest percentile above the median that leaves ten case times
    above it, but never less than the median case time of the slowest input.

    With 20 cases or fewer no such percentile exists; the slowest input's
    median then stands in, and the floor keeps the value from jumping when
    a run's case count crosses 20."""
    xs = sorted(t for p in passes for t in p["seconds"])
    n = len(xs)
    slowest = max(_input_medians(passes))
    if n - TAIL_ABOVE > n / 2 and xs[n - TAIL_ABOVE - 1] >= slowest:
        return xs[n - TAIL_ABOVE - 1], f"p{100.0 * (n - TAIL_ABOVE) / n:.1f} of {n} cases"
    return slowest, f"median of the slowest input over {len(passes)} passes ({n} cases)"


def measure_setup(args, run_dir: Path) -> list[float]:
    """Wall seconds of fresh processes doing this run's set-up and no more."""
    times = []
    for k in range(SETUP_PROBES):
        cmd = [sys.executable, __file__, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "1", "--trace", "0",
               "--setup-probe", str(run_dir / f"probe-{k}")]
        start = perf_counter()
        # a blocking wait: Popen.wait with a timeout polls in 50 ms steps
        code = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL).wait()
        times.append(perf_counter() - start)
        if code != 0:
            raise SystemExit(f"perfbench: set-up probe exited with {code}")
        shutil.rmtree(run_dir / f"probe-{k}")
    return times


class Loop:
    """Closed loop over whole passes; collects per-case times and failures."""

    def __init__(self, workload, inputs, run_dir):
        self.workload = workload
        self.inputs = inputs
        self.run_dir = run_dir
        self.comparison = oracle.PassComparison()
        self.gns_dim = {}
        self.case_id = 0

    def run_pass(self, tracer=None) -> dict:
        stats = {"seconds": [], "failed": 0}
        for inp in self.inputs:
            self.case_id += 1
            gc.collect()  # start every case from the same collector state
            if tracer is None:
                outcome = workloads.run_case(self.workload, inp, self.run_dir,
                                             self.comparison)
            else:
                with tracer.case(self.case_id, inp.name):
                    outcome = workloads.run_case(self.workload, inp,
                                                 self.run_dir, self.comparison)
            stats["seconds"].append(outcome.seconds)
            if outcome.problems:
                stats["failed"] += 1
                print(f"FAILED case {self.case_id} {inp.name}: "
                      + "; ".join(outcome.problems))
            if outcome.gns_dim is not None:
                self.gns_dim.setdefault(inp.name, outcome.gns_dim)
        print("pass " + " ".join(f"{inp.name}={t:.3f}"
                                 for inp, t in zip(self.inputs, stats["seconds"])))
        return stats


def run_untraced(loop: Loop, seconds: float):
    passes = []
    start = perf_counter()
    while True:
        t = perf_counter()
        passes.append(loop.run_pass())
        passes[-1]["wall"] = perf_counter() - t
        elapsed = perf_counter() - start
        typical = statistics.median(p["wall"] for p in passes)
        if len(passes) >= MIN_PASSES and elapsed + typical > seconds:
            break
    samples = [s for p in passes for s in p["seconds"]]
    tail_s, tail_note = tail(passes)
    metrics = {
        "cases_per_s": (pass_rate(passes), "1/s"),
        "case_s.p50": (statistics.median(samples), "s"),
        "case_s.tail": (tail_s, "s"),
    }
    notes = {"cases_per_s": f"{len(passes)} passes of {len(loop.inputs)} inputs",
             "case_s.p50": f"median of {len(samples)} cases",
             "case_s.tail": tail_note}
    return metrics, passes, notes


def run_traced(loop: Loop, seconds: float):
    plain, traced = [], []
    tracer = tracing.Tracer()
    start = perf_counter()
    while True:
        t = perf_counter()
        plain.append(loop.run_pass())
        tracer.install()
        try:
            traced.append(loop.run_pass(tracer))
        finally:
            tracer.remove()
        pair = perf_counter() - t
        if perf_counter() - start + pair > seconds:
            break
    n_traced = len(traced)
    cases_per_pass = len(loop.inputs)
    metrics = {}
    totals = tracer.layer_totals()
    for name, agg in totals.items():
        metrics[f"{name}.self_s"] = (agg["self_s"] / n_traced, "s")
        metrics[f"{name}.calls"] = (agg["calls"] / n_traced, "count")
        for key, unit in tracing.SIZES.get(name, ()):
            metrics[f"{name}.{key}"] = (agg[key], unit)
    for name in ("algebras.commutant", "modular.dual_system"):
        metrics[f"{name}.calls_per_case"] = (
            totals[name]["calls"] / (n_traced * cases_per_pass), "count")
    metrics["purity.transfer_diagonalizations_per_case"] = (
        tracer.transfer_diagonalizations / (n_traced * cases_per_pass), "count")
    untraced_rate, traced_rate = pass_rate(plain), pass_rate(traced)
    metrics["trace.untraced_cases_per_s"] = (untraced_rate, "1/s")
    metrics["trace.cases_per_s"] = (traced_rate, "1/s")
    metrics["trace.overhead_frac"] = (untraced_rate / traced_rate - 1.0, "1")
    return metrics, plain + traced, tracer


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", type=Path, default=None,
                   help="do only the set-up, in this directory, and exit")
    args = p.parse_args(argv)

    run_dir = args.setup_probe or OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    inputs = workloads.prepare(args.workload, args.seed, run_dir)
    workloads.warm_up(args.workload, run_dir)
    if args.setup_probe:
        return 0

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("environment " + json.dumps(environment(), sort_keys=True))

    loop = Loop(args.workload, inputs, run_dir)
    if args.trace:
        metrics, passes, tracer = run_traced(loop, args.seconds)
        tracer.write_jsonl(run_dir / "spans.jsonl")
        notes = {}
    else:
        setup = measure_setup(args, run_dir)
        metrics, passes, notes = run_untraced(loop, args.seconds)
        metrics["setup_s"] = (statistics.median(setup), "s")
        notes["setup_s"] = (f"median of {len(setup)} fresh processes: "
                            + " ".join(f"{t:.3f}" for t in setup))
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = (rss_kib / 1024.0, "MB")

    for inp in inputs:
        gns = loop.gns_dim.get(inp.name)
        print(f"input {inp.name} kind={inp.kind} n={inp.system.n} "
              f"d={inp.system.d}" + (f" gns_dim={gns}" if gns else ""))
    attempted = sum(len(p["seconds"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    for name, (value, unit) in metrics.items():
        note = notes.get(name)
        print(f"metric {name} = {value:.6g} {unit}" + (f"  [{note}]" if note else ""))
    print(f"metric failed_frac = {failed / attempted:.6g} ({failed}/{attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
