"""Correctness oracle: every case's output is checked, and a failed case is
counted, never dropped.

A case fails on any of:
  - a nonzero exit code or an exception;
  - a verdict that differs from the expected table;
  - a residual above its threshold;
  - output bytes that differ from the first pass over the same input.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np
from fcslab import systems


@dataclass(frozen=True)
class Expected:
    is_pure: bool
    is_ergodic: bool
    invariant_multiplicity: int
    gauge: str
    strongly_mixing: bool


# Verdicts per input kind, as the package reports them today.  Generic
# seeded random systems are primitive; a block sum of two of them has two
# invariant densities.  AKLT's detected gauge group is trivial (its word
# moments have odd length differences); period-two is the Z_2 system.
EXPECTED = {
    "aklt": Expected(True, True, 1, "trivial {1}", True),
    "period-two": Expected(True, True, 1, "Z_2", False),
    "random": Expected(True, True, 1, "trivial {1}", True),
    "block": Expected(False, False, 2, "trivial {1}", False),
}

RESIDUAL_MAX = 1e-8
# The package rejects a Gram matrix with min eigenvalue below -1e-6 * top,
# top = max(largest eigenvalue, 1).  The report omits top, so the oracle
# applies the bound at top = 1, which is never looser.
GRAM_MIN_FLOOR = -1e-6
TWOSIDED_RESIDUALS = ("compression_residual", "moment_deviation",
                      "shift_isometry_residual", "shift_omega_residual",
                      "shift_covariance_residual")


def check_report(kind: str, exit_code, error, report: bytes | None,
                 twosided: bool) -> list[str]:
    """Problems with one `fcslab analyze` outcome; empty when it is correct."""
    if error is not None:
        return [f"exception: {error}"]
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    if not report:
        return ["no report written"]
    try:
        doc = json.loads(report)
    except ValueError as exc:
        return [f"report is not JSON: {exc}"]
    try:
        return _report_problems(EXPECTED[kind], doc, twosided)
    except (KeyError, TypeError, AttributeError) as exc:
        return [f"malformed report: {exc!r}"]


def _report_problems(want: Expected, doc: dict, twosided: bool) -> list[str]:
    problems = []
    got = {
        "is_pure": doc["is_pure"],
        "is_ergodic": doc["is_ergodic"],
        "invariant_multiplicity": doc["invariant_multiplicity"],
        "gauge": doc["gauge_group"],
        "strongly_mixing": doc["strongly_mixing"],
    }
    for key, value in got.items():
        if value != getattr(want, key):
            problems.append(f"{key} = {value!r}, expected {getattr(want, key)!r}")
    if doc["support_identity_ok"] is not True:
        problems.append("support identity not certified")
    for name, value in doc["residuals"].items():
        if not value <= RESIDUAL_MAX:
            problems.append(f"residual {name} = {value:.3e} > {RESIDUAL_MAX:.0e}")
    two = doc.get("twosided")
    if (two is not None) != twosided:
        problems.append("two-sided section " + ("present" if two is not None
                                                else "missing"))
    elif twosided:
        if not two["gram_min_eigenvalue"] >= GRAM_MIN_FLOOR:
            problems.append(f"gram min eigenvalue {two['gram_min_eigenvalue']:.3e}")
        named = [(f"interior {k}", v) for k, v in two["interior_residuals"].items()]
        named += [(k, two[k]) for k in TWOSIDED_RESIDUALS]
        for name, value in named:
            if not value <= RESIDUAL_MAX:
                problems.append(f"two-sided {name} = {value:.3e} > {RESIDUAL_MAX:.0e}")
    return problems


def check_chain(kind: str, sys_, out: dict) -> list[str]:
    """Problems with one chain-large-n outcome; empty when it is correct."""
    want = EXPECTED[kind]
    problems = []
    for label, state, on in (("mean", out["search"].mean_state, sys_),
                             ("compressed", out["state"], out["compressed"])):
        try:
            state.check(on)
        except systems.ValidationError as exc:
            problems.append(f"{label} invariant density: {exc}")
    if out["search"].multiplicity != want.invariant_multiplicity:
        problems.append(f"invariant_multiplicity = {out['search'].multiplicity}, "
                        f"expected {want.invariant_multiplicity}")
    dist = float(np.min(np.abs(out["spectrum"] - 1.0)))
    if not dist <= RESIDUAL_MAX:
        problems.append(f"spectrum misses 1 by {dist:.3e}")
    if out["mixing"].strongly_mixing != want.strongly_mixing:
        problems.append(f"strongly_mixing = {out['mixing'].strongly_mixing}")
    if out["gauge"].describe() != want.gauge:
        problems.append(f"gauge = {out['gauge'].describe()!r}, expected {want.gauge!r}")
    if not np.all(np.isfinite(out["cluster"].values)):
        problems.append("cluster decay values are not finite")
    vals = out["moments"][1]
    moment_res = max(abs(vals[0, 0] - 1.0), float(np.max(np.abs(vals - vals.conj().T))))
    if not moment_res <= RESIDUAL_MAX:
        problems.append(f"moment table: phi(1) or Hermiticity off by {moment_res:.3e}")
    return problems


def chain_digest(out: dict) -> bytes:
    """Bytes standing for a chain-large-n outcome, compared across passes."""
    h = hashlib.sha256()
    h.update(repr((out["search"].multiplicity, out["gauge"].describe(),
                   out["mixing"])).encode())
    for arr in (out["spectrum"], out["cluster"].values, out["moments"][1]):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.digest()


class PassComparison:
    """Flags output bytes that differ from the first pass over an input."""

    def __init__(self):
        self._first: dict = {}

    def check(self, input_name: str, payload: bytes | None) -> list[str]:
        if payload is None:
            return []
        digest = hashlib.sha256(payload).hexdigest()
        first = self._first.setdefault(input_name, digest)
        if digest != first:
            return ["output bytes differ from the first pass"]
        return []
