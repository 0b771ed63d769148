"""File formats: system files and analysis reports.

Complex numbers are serialized as [re, im] pairs and matrices row-major, so
files are unambiguous across languages.  Reports are emitted with sorted
keys and fixed indentation; identical inputs and flags produce
byte-identical report files.
"""

from __future__ import annotations

import json

import numpy as np

from .purity import PurityReport
from .systems import InvariantState, KrausSystem, ValidationError, validate

FORMAT_VERSION = 1


class ParseError(ValueError):
    """System file is malformed."""


def _encode_matrix(m: np.ndarray):
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m)]


def _decode_matrix(rows, what: str) -> np.ndarray:
    try:
        out = np.array(
            [[complex(entry[0], entry[1]) for entry in row] for row in rows],
            dtype=np.complex128,
        )
    except (TypeError, IndexError, ValueError) as exc:
        raise ParseError(f"bad {what}: entries must be [re, im] pairs") from exc
    if not np.isfinite(out).all():
        raise ParseError(f"bad {what}: entries must be finite")
    return out


def system_to_dict(sys: KrausSystem, rho=None, metadata=None, tol: float = 1e-9):
    doc = {
        "version": FORMAT_VERSION,
        "n": sys.n,
        "d": sys.d,
        "tol": tol,
        "v": [_encode_matrix(a) for a in sys.ops],
    }
    if rho is not None:
        doc["rho"] = _encode_matrix(rho)
    if metadata:
        doc["metadata"] = metadata
    return doc


def system_from_dict(doc) -> tuple:
    """Parse and validate, rho included; returns (system, rho or None, metadata)."""
    if not isinstance(doc, dict):
        raise ParseError("system file must be a JSON object")
    try:
        n = int(doc["n"])
        d = int(doc["d"])
        mats = doc["v"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"missing or malformed field: {exc}") from exc
    if doc.get("version", FORMAT_VERSION) != FORMAT_VERSION:
        raise ParseError(f"unsupported format version {doc.get('version')}")
    if n < 1 or d < 1:
        raise ParseError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
    if not isinstance(mats, list):
        raise ParseError("field v must be a list of operators")
    if len(mats) != d:
        raise ParseError(f"expected {d} operators, found {len(mats)}")
    ops = np.stack([_decode_matrix(m, f"operator {k}") for k, m in enumerate(mats)])
    if ops.shape != (d, n, n):
        raise ParseError(f"operator shapes {ops.shape[1:]} do not match n={n}")
    sys = KrausSystem(ops)
    tol = float(doc.get("tol", 1e-9))
    diag = validate(sys, tol=tol)
    if not diag.ok:
        raise ValidationError(
            f"system fails validation at tol {tol:.1e}: "
            f"unit residual {diag.unit_residual:.3e}"
        )
    rho = None
    if "rho" in doc:
        rho = _decode_matrix(doc["rho"], "rho")
        if rho.shape != (n, n):
            raise ParseError(f"rho has shape {rho.shape}, expected ({n}, {n})")
        InvariantState(rho).check(sys, tol=tol)
    return sys, rho, doc.get("metadata", {})


def dumps_system(sys: KrausSystem, **kw) -> str:
    return json.dumps(system_to_dict(sys, **kw), indent=2, sort_keys=True) + "\n"


def loads_system(text: str):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    return system_from_dict(doc)


def _complex_list(values) -> list:
    return [[float(z.real), float(z.imag)] for z in values]


def report_to_dict(report: PurityReport, provenance: dict,
                   twosided: dict | None = None) -> dict:
    doc = {
        "validated": report.validated,
        "invariant_multiplicity": report.invariant_multiplicity,
        "is_factor": report.is_factor,
        "is_ergodic": report.is_ergodic,
        "support_identity_ok": report.support_identity_ok,
        "dual_identity_ok": report.dual_identity_ok,
        "is_pure": report.is_pure,
        "purity_reason": report.purity_reason,
        "channel_spectrum": _complex_list(report.channel_spectrum),
        "mixing_gap": report.mixing_gap,
        "strongly_mixing": report.strongly_mixing,
        "gauge_group": report.gauge.describe() if report.gauge else None,
        "gns_dim": report.gns_dim,
        "residuals": {k: float(v) for k, v in sorted(report.residuals.items())},
        "notes": list(report.notes),
        "provenance": provenance,
    }
    if twosided is not None:
        doc["twosided"] = twosided
    return doc


def dumps_report(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
