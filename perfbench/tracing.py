"""Spans around calls into fcslab's public functions, recorded from outside.

The package is not modified.  While a :class:`Tracer` is installed, each
listed function is replaced by a timing wrapper in every ``fcslab`` module
namespace that binds it; this matters because ``purity``, ``algebras`` and
``systems`` call ``linalg`` helpers through ``from .linalg import ...``, so
patching ``fcslab.linalg`` alone would miss those calls.  Everything is put
back when the tracer is removed.

A span records its name, start, end, parent span and case.  Spans are kept
in memory and written as JSON lines once the run ends.  A span's self time
is its duration minus the durations of its direct children (calls are
synchronous, so children never overlap).
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np
import scipy.linalg

# module -> public functions timed in the traced run
LAYERS = {
    "cli": ("main",),
    "serialize": ("loads_system", "dumps_report"),
    "purity": ("purity_battery", "ergodicity", "channel_spectrum",
               "kolmogorov_proxy"),
    "systems": ("validate", "invariant_states", "compress_to_support",
                "canonicalize", "moment_table", "word_operators"),
    "algebras": ("generated_algebra", "commutant", "center_and_factor",
                 "channel_fixed_points"),
    "linalg": ("solve_linear_space", "subspace_contains", "subspace_equal",
               "subspace_intersection", "pos_power"),
    "modular": ("modular_data", "dual_system", "dual_channel"),
    "chain": ("gauge_group", "cluster_decay", "two_point",
              "local_expectation"),
    "twosided": ("build", "check_relations", "moment_check", "shift_check",
                 "compression_residual"),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)

# Dense eigensolvers fcslab reaches through module attributes; a call counts
# as a transfer diagonalization when its argument is a superoperator that
# KrausSystem.transfer_super or predual_super returned during the same case.
_EIG_FUNCS = ((np.linalg, "eig"), (np.linalg, "eigvals"),
              (scipy.linalg, "eig"), (scipy.linalg, "eigvals"))
_SUPER_METHODS = ("transfer_super", "predual_super")


# Exact sizes recorded on a span, as (key, unit); the largest value over a
# run's calls is reported.  Byte figures are computed from shapes, not measured.
SIZES = {
    "twosided.build": (("raw_dim", "count"), ("gram_bytes", "B")),
    "algebras.commutant": (("stack_bytes", "B"),),
    "systems.canonicalize": (("gns_dim", "count"),),
}


def _sizes(name, args, result) -> dict:
    if name == "twosided.build":
        raw_dim = len(result.raw_index)
        return {"raw_dim": raw_dim, "gram_bytes": raw_dim * raw_dim * 16}
    if name == "algebras.commutant":
        space = args[0]
        return {"stack_bytes": space.dim * space.ambient_dim**4 * 16}
    if name == "systems.canonicalize":
        return {"gns_dim": result.gns_dim}
    return {}


class Tracer:
    """In-memory span recorder for one traced run."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._case = None
        self._supers: list = []
        self.transfer_diagonalizations = 0
        self._patches: list = []

    # -- recording -------------------------------------------------------
    def _open(self, name: str) -> dict:
        rec = {"id": len(self.spans), "case": self._case, "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "start": perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        return rec

    def _close(self, rec: dict) -> None:
        rec["end"] = perf_counter()
        self._stack.pop()

    @contextmanager
    def case(self, case_id: int, label: str):
        """A root span grouping every span of one case."""
        self._case = case_id
        rec = self._open(f"case:{label}")
        try:
            yield
        finally:
            self._close(rec)
            self._case = None
            self._supers.clear()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            rec.update(_sizes(name, args, result))
            return result
        return wrapper

    # -- installation ----------------------------------------------------
    def _patch(self, owner, attr, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if name == "fcslab" or name.startswith("fcslab.")]
        for mod, fns in LAYERS.items():
            home = sys.modules[f"fcslab.{mod}"]
            for fn in fns:
                original = getattr(home, fn)
                wrapper = self._wrap(f"{mod}.{fn}", original)
                for ns in namespaces:
                    for attr in [a for a, v in vars(ns).items() if v is original]:
                        self._patch(ns, attr, wrapper)
        kraus = sys.modules["fcslab.systems"].KrausSystem
        for meth in _SUPER_METHODS:
            self._patch(kraus, meth, self._remember_super(getattr(kraus, meth)))
        for owner, attr in _EIG_FUNCS:
            self._patch(owner, attr, self._count_eig(getattr(owner, attr)))

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _remember_super(self, method):
        @functools.wraps(method)
        def wrapper(obj, *args, **kwargs):
            out = method(obj, *args, **kwargs)
            self._supers.append(out)
            return out
        return wrapper

    def _count_eig(self, fn):
        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            if any(a is s for s in self._supers):
                self.transfer_diagonalizations += 1
            return fn(a, *args, **kwargs)
        return wrapper

    # -- results ---------------------------------------------------------
    def layer_totals(self) -> dict:
        """name -> {"self_s": total, "calls": total, size key: largest value}."""
        child_time = defaultdict(float)
        for rec in self.spans:
            if rec["parent"] is not None:
                child_time[rec["parent"]] += rec["end"] - rec["start"]
        out = {name: {"self_s": 0.0, "calls": 0} for name in SPAN_NAMES}
        for name, sizes in SIZES.items():
            out[name].update((key, 0) for key, _ in sizes)
        for rec in self.spans:
            if rec["name"] not in out:
                continue
            agg = out[rec["name"]]
            agg["self_s"] += rec["end"] - rec["start"] - child_time[rec["id"]]
            agg["calls"] += 1
            for key, _ in SIZES.get(rec["name"], ()):
                agg[key] = max(agg[key], rec[key])
        return out

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
