"""Command-line front end.

Exit codes are a stable contract: 0 on completed analysis (regardless of the
purity verdict), 2 on parse failure, 3 on validation failure, 4 on
internal-consistency failure, a refused budget or a failed allocation.
"""

from __future__ import annotations

import os

# Honor the thread cap before any numerics library spins up its pools.
_threads = os.environ.get("FCS_LAB_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, _threads)

import argparse
import functools
import hashlib
import sys as _sys

import numpy as np

from . import (__version__, fixtures, linalg, modular, purity, serialize,
               systems, twosided)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_INTERNAL = 4


def _load(path: str, seed=None):
    if path.startswith("fixture:"):
        name = path.split(":", 1)[1]
        parts = name.split(":")
        if seed is not None and parts[0] in ("random", "random-seeded"):
            # the override replaces the seed and keeps the shape n:d
            name = ":".join(["random-seeded", str(seed), *parts[2:]])
        sys_ = fixtures.by_name(name)
        text = serialize.dumps_system(sys_, metadata={"name": name})
        return sys_, text
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    sys_, _rho, _meta = serialize.loads_system(text)
    return sys_, text


def _default_level(d: int) -> int:
    return 3 if d == 2 else 2


def _int_at_least(low: int, what: str):
    """Argparse type: an integer no smaller than ``low``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(
                f"{what} must be >= {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _positive_float(text: str) -> float:
    """Argparse type: a finite number above zero."""
    value = float(text)
    if not 0 < value < np.inf:  # also false for nan
        raise argparse.ArgumentTypeError(
            f"tol must be a positive finite number, got {text}")
    return value


_positive_float.__name__ = "float"  # as in "invalid float value"


def cmd_analyze(args) -> int:
    try:
        sys_, text = _load(args.input, seed=args.seed)
    except (serialize.ParseError, FileNotFoundError, KeyError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_PARSE
    except systems.ValidationError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_VALIDATION

    level = args.level
    if level is None and not args.no_twosided:
        level = _default_level(sys_.d)
    two_doc = None
    try:
        report = purity.purity_battery(
            sys_, tol=args.tol, gauge_cutoff=args.cutoff)
        if not args.no_twosided and report.is_ergodic:
            two_doc = _run_twosided(report.pipeline, level)
    except systems.ValidationError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_VALIDATION
    except (purity.InternalConsistencyError, modular.ModularError,
            systems.TruncationError, linalg.NotPositiveError,
            linalg.NonHermitianError, MemoryError) as exc:
        return _internal_failure(exc)

    provenance = {
        "input_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "tol": args.tol,
        "cutoff": args.cutoff,
        "level": level,
        "fcslab_version": __version__,
    }
    doc = serialize.report_to_dict(report, provenance, twosided=two_doc)
    payload = serialize.dumps_report(doc)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        print(payload, end="")
    _print_summary(report, two_doc)
    return EXIT_OK


def _internal_failure(exc: Exception) -> int:
    """Report an exit-4 failure in one line; a failed allocation may carry
    no message, and is then named by its type."""
    print(f"internal consistency failure: {str(exc) or type(exc).__name__}",
          file=_sys.stderr)
    return EXIT_INTERNAL


def _run_twosided(p: purity.Pipeline, level: int) -> dict:
    rep = twosided.build(p.md, p.dual, level)
    rel = twosided.check_relations(rep)
    shift = twosided.shift_check(rep)
    window = level - 1
    deviation = twosided.moment_check(rep, p.comp_sys, p.comp_state, window)
    return {
        "level": level,
        "quotient_dim": rep.quotient_dim,
        "gram_min_eigenvalue": rep.gram_min_eigenvalue,
        "interior_residuals": {k: float(v) for k, v in sorted(rel.interior.items())},
        "boundary_residuals": {k: float(v) for k, v in sorted(rel.boundary.items())},
        "compression_residual": twosided.compression_residual(rep),
        "moment_window": window,
        "moment_deviation": deviation,
        "shift_isometry_residual": shift.isometry_residual,
        "shift_omega_residual": shift.omega_residual,
        "shift_covariance_residual": shift.covariance_residual,
    }


def _print_summary(report, two_doc) -> None:
    err = _sys.stderr
    print("== certificate chain ==", file=err)
    print(f"invariant multiplicity : {report.invariant_multiplicity}", file=err)
    print(f"factor                 : {report.is_factor}", file=err)
    print(f"ergodic                : {report.is_ergodic}", file=err)
    res = report.residuals
    print(f"fixed(transfer) = commutant : {report.support_identity_ok} "
          f"(density invariance {res['support_density_invariance']:.2e})",
          file=err)
    if report.dual_identity_ok is None:
        print("fixed(dual) = algebra  : n/a (state not ergodic)", file=err)
    else:
        print(f"fixed(dual) = algebra  : {report.dual_identity_ok} "
              f"(density invariance {res['dual_density_invariance']:.2e}, "
              f"support commutant angle {res['dual_identity_angle']:.2e})",
              file=err)
    print(f"pure                   : {report.is_pure} ({report.purity_reason})",
          file=err)
    print(f"mixing gap             : {report.mixing_gap:.6f} "
          f"(strongly mixing: {report.strongly_mixing})", file=err)
    print(f"gauge group            : {report.gauge.describe()}", file=err)
    for note in report.notes:
        print(f"note: {note}", file=err)
    if two_doc:
        print(f"two-sided check (L={two_doc['level']}): "
              f"gram min eig {two_doc['gram_min_eigenvalue']:.2e}, "
              f"max interior residual "
              f"{max(two_doc['interior_residuals'].values()):.2e}, "
              f"moment deviation {two_doc['moment_deviation']:.2e}", file=err)


def cmd_fixture(args) -> int:
    try:
        sys_ = fixtures.by_name(args.name)
    except KeyError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_PARSE
    print(serialize.dumps_system(sys_, metadata={"name": args.name}), end="")
    return EXIT_OK


def cmd_moments(args) -> int:
    try:
        sys_, _text = _load(args.input)
    except (serialize.ParseError, FileNotFoundError, KeyError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_PARSE
    except systems.ValidationError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_VALIDATION
    try:
        search = systems.invariant_states(sys_, tol=args.tol)
        ws, vals = systems.moment_table(sys_, search.mean_state, args.max_len,
                                        reverse=args.reverse_words)
    except systems.ValidationError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_VALIDATION
    except (systems.TruncationError, MemoryError) as exc:
        return _internal_failure(exc)
    order = "reversed" if args.reverse_words else "forward"
    print(f"# word moments, {order} products, lengths <= {args.max_len}")
    for a, b in zip(*np.nonzero(np.abs(vals) > args.tol)):
        ia, jb = (",".join(map(str, ws[k])) or "-" for k in (a, b))
        z = vals[a, b]
        print(f"I=({ia}) J=({jb})  {_rounded(z.real)}{_rounded(z.imag)}j")
    return EXIT_OK


def _rounded(x: float) -> str:
    """x with sign to 12 decimals, a value that rounds to zero as +0."""
    return f"{float(f'{x:.12f}') + 0.0:+.12f}"


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fcslab",
        description="Analyze translation-invariant chain states given by "
                    "Kraus families: spectra, purity certificates, moments.",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="run the full certificate battery")
    pa.add_argument("input", help="system file path, or fixture:<name>")
    pa.add_argument("--tol", type=_positive_float, default=1e-9)
    pa.add_argument("--cutoff", type=_int_at_least(0, "cutoff"), default=4,
                    help="word-length cutoff for gauge-group detection")
    pa.add_argument("--level", type=_int_at_least(2, "level"), default=None,
                    help="truncation level of the two-sided check, >= 2 "
                         "(default 3 for d = 2, else 2)")
    pa.add_argument("--seed", type=int, default=None,
                    help="seed override for the built-in random fixture")
    pa.add_argument("--no-amalgam", "--no-twosided", dest="no_twosided",
                    action="store_true",
                    help="skip the two-sided cross-validation")
    pa.add_argument("-o", "--output", default=None,
                    help="write the JSON report here instead of stdout")
    pa.set_defaults(func=cmd_analyze)

    pf = sub.add_parser("fixture", help="emit a built-in system file")
    pf.add_argument("name", help=", ".join(fixtures.fixture_names()))
    pf.set_defaults(func=cmd_fixture)

    pm = sub.add_parser("moments", help="print nonzero word moments")
    pm.add_argument("input", help="system file path, or fixture:<name>")
    pm.add_argument("--max-len", type=_int_at_least(0, "max-len"), default=3)
    pm.add_argument("--tol", type=_positive_float, default=1e-9)
    pm.add_argument("--reverse-words", action="store_true",
                    help="use the reversed word-product convention")
    pm.set_defaults(func=cmd_moments)
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built on first use and kept: parsing
    leaves it unchanged, and every call gets a fresh namespace."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
