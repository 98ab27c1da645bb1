"""Batch driver for the verification suites, reductions and simulations.

One process, one command.  Every run emits a metadata block (version, seed,
spec digest, RNG name) so results are traceable; CSV payloads are free of
timestamps and therefore byte-identical across reruns with the same seed.

Exit codes: 0 success / all checks passed, 1 verification failure,
2 usage or configuration error, 3 internal error.  A negative --degree or
--trials, an --out file that cannot be written, an inconsistent explicit
moment table and a Gram matrix that is not positive semidefinite are usage
errors (2), never a verification failure.  Any other exception is reported
as an internal error (3): an `internal error:` line and the traceback go to
stderr.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import random
import sys
import traceback
from pathlib import Path

from . import __version__
from .conjugate import (
    ConjugateCandidate,
    VerificationReport,
    check_conjugate,
    check_duality,
    fisher,
)
from .errors import ConjugateCheckFailed, NcfreeError
from .ncpoly import NcPoly
from .randmat import RNG_NAME, EnsembleConfig, empirical_margins, spectrum
from .reduction import extract_leading_coeff, relation_kernel
from .sweeps import rand_nonzero_poly, rand_word
from .trace import DEFAULT_DEGREE_BOUND, DistributionSpec, TraceFunctional

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


class ConfigError(Exception):
    """Bad spec file or flag combination: exit status 2."""


# ---------------------------------------------------------------------------
# spec loading
# ---------------------------------------------------------------------------


def load_spec_file(path: str) -> dict:
    try:
        raw = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read spec file: {exc}") from exc
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"spec file is not valid JSON: {exc}") from exc
    data["_digest"] = hashlib.sha256(raw.encode()).hexdigest()
    return data


def distribution_from(data: dict) -> DistributionSpec:
    if "trace" not in data:
        raise ConfigError("spec file is missing the 'trace' section")
    section = dict(data["trace"])
    section.setdefault("n", data.get("n"))
    if section["n"] is None:
        raise ConfigError("spec file is missing the generator count 'n'")
    try:
        return DistributionSpec.from_dict(section)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad trace section: {exc}") from exc


def ensemble_from(data: dict, seed: int) -> EnsembleConfig:
    if "ensemble" not in data:
        raise ConfigError("spec file is missing the 'ensemble' section")
    section = dict(data["ensemble"])
    section.setdefault("n", data.get("n"))
    try:
        return EnsembleConfig.from_dict(section, seed=seed)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad ensemble section: {exc}") from exc


def parse_xi(text: str | None, n: int) -> list[NcPoly]:
    if text is None:
        raise ConfigError("this command requires --xi")
    pieces = [piece.strip() for piece in text.split(";")]
    if len(pieces) != n:
        raise ConfigError(f"--xi must list {n} polynomials separated by ';'")
    try:
        return [NcPoly.from_text(piece, n) for piece in pieces]
    except (ValueError, NcfreeError) as exc:
        raise ConfigError(f"bad --xi polynomial: {exc}") from exc


def parse_poly(text: str | None, n: int) -> NcPoly:
    if text is None:
        raise ConfigError("this command requires --poly")
    try:
        return NcPoly.from_text(text, n)
    except (ValueError, NcfreeError) as exc:
        raise ConfigError(f"bad --poly: {exc}") from exc


def degree_bound_from(data: dict) -> int:
    return data.get("degree_bound", DEFAULT_DEGREE_BOUND)


def trace_from(data: dict) -> TraceFunctional:
    return TraceFunctional(distribution_from(data), degree_bound_from(data))


def candidate_from(args, data: dict, spec: DistributionSpec) -> ConjugateCandidate:
    """The conjugate candidate given by --xi for the spec's trace."""
    xi = parse_xi(args.xi, spec.n)
    return ConjugateCandidate(xi, spec, degree_bound=degree_bound_from(data))


def relations_block(trace: TraceFunctional, degree: int) -> dict:
    """The relation kernel up to `degree` as a result block."""
    kernel = relation_kernel(trace, degree)
    return {
        "degree": degree,
        "kernel_dimension": len(kernel),
        "kernel": [p.to_text() for p in kernel],
    }


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def make_metadata(args, data: dict) -> dict:
    return {
        "version": __version__,
        "command": args.command,
        "seed": args.seed,
        "spec_digest": data["_digest"],
        "rng": RNG_NAME,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def emit(args, data: dict, result: dict, csv_rows: list[list[str]] | None = None) -> None:
    metadata = make_metadata(args, data)
    if args.format == "csv":
        rows = csv_rows if csv_rows is not None else _flatten_csv(result)
        payload = "\n".join(",".join(row) for row in rows) + "\n"
        if args.out:
            write_out(args.out, payload)
        else:
            sys.stdout.write(payload)
        # metadata never enters the CSV payload, to keep reruns byte-identical
        print(json.dumps({"metadata": metadata}), file=sys.stderr)
    else:
        document = json.dumps({"metadata": metadata, "result": result}, indent=2)
        if args.out:
            write_out(args.out, document + "\n")
        else:
            print(document)


def write_out(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise ConfigError(f"cannot write --out file: {exc}") from exc


def _flatten_csv(result: dict, prefix: str = "") -> list[list[str]]:
    rows: list[list[str]] = []
    for key, value in result.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            rows.extend(_flatten_csv(value, prefix=f"{name}."))
        elif isinstance(value, (list, tuple)):
            rows.append([name, json.dumps(value)])
        else:
            rows.append([name, str(value)])
    return rows


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_verify_conjugate(args, data: dict) -> int:
    cand = candidate_from(args, data, distribution_from(data))
    report = check_conjugate(cand, args.degree)
    emit(args, data, report.to_dict())
    return EXIT_OK if report.passed else EXIT_FAILED


def cmd_duality(args, data: dict) -> int:
    trace = trace_from(data)
    n = trace.spec.n
    rng = random.Random(args.seed)
    failures = []
    for _ in range(args.trials):
        w1 = rand_word(rng, n, args.degree)
        w2 = rand_word(rng, n, args.degree, min_len=1)
        i = rng.randint(1, n)
        p1 = NcPoly.monomial(n, w1)
        p2 = NcPoly.monomial(n, w2)
        if not check_duality(trace, p1, p2, i):
            failures.append({"p1": p1.to_text(), "p2": p2.to_text(), "i": i})
    emit(
        args,
        data,
        {"trials": args.trials, "degree": args.degree, "failures": failures},
    )
    return EXIT_OK if not failures else EXIT_FAILED


def cmd_reduce(args, data: dict) -> int:
    trace = trace_from(data)
    poly = parse_poly(args.poly, trace.spec.n)
    if args.word is None:
        raise ConfigError("reduce requires --word")
    try:
        word = tuple(int(t) for t in args.word.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad --word: {exc}") from exc
    try:
        coeff = extract_leading_coeff(trace, poly, word)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    emit(args, data, {"word": list(word), "coefficient": str(coeff)})
    return EXIT_OK


def cmd_relations(args, data: dict) -> int:
    block = relations_block(trace_from(data), args.degree)
    emit(args, data, block)
    return EXIT_OK if not block["kernel"] else EXIT_FAILED


def cmd_spectrum(args, data: dict) -> int:
    spec = distribution_from(data)
    config = ensemble_from(data, args.seed)
    poly = parse_poly(args.poly, spec.n)
    try:
        report = spectrum(poly, config)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    rows = report.eigenvalue_rows() if args.format == "csv" else None
    emit(args, data, report.to_dict(), csv_rows=rows)
    return EXIT_OK


def cmd_margins(args, data: dict) -> int:
    spec = distribution_from(data)
    config = ensemble_from(data, args.seed)
    cand = candidate_from(args, data, spec)
    rng = random.Random(args.seed)
    results = []
    worst = float("inf")
    for _ in range(args.trials):
        p = rand_nonzero_poly(rng, spec.n, args.degree)
        j = rng.randint(1, spec.n)
        report = empirical_margins(cand, j, p, config)
        worst = min(worst, min(report.all_margins()))
        results.append({"poly": p.to_text(), "j": j, **report.to_dict()})
    emit(
        args,
        data,
        {"trials": args.trials, "worst_margin": worst, "reports": results},
    )
    return EXIT_OK if worst >= -args.slack else EXIT_FAILED


def cmd_report(args, data: dict) -> int:
    cand = candidate_from(args, data, distribution_from(data))
    try:
        info = fisher(cand, degree=args.degree)
    except ConjugateCheckFailed as exc:
        info, conjugate_report = None, exc.report
    else:
        conjugate_report = VerificationReport(info.degree_checked, ())
    kernel_degree = min(args.degree, cand.trace.degree_bound // 2)
    relations = relations_block(cand.trace, kernel_degree)
    result = {"conjugate": conjugate_report.to_dict(), "relations": relations}
    if info is not None:
        result["fisher_information"] = {
            "exact": str(info.exact),
            "value": info.value,
        }
    emit(args, data, result)
    passed = conjugate_report.passed and not relations["kernel"]
    return EXIT_OK if passed else EXIT_FAILED


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncfree",
        description="verification suites for non-commutative derivatives "
        "and conjugate variables",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--spec", required=True, help="JSON spec file")
        p.add_argument("--degree", type=int, default=4)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=["structured", "csv"], default="structured")

    p = sub.add_parser("verify-conjugate", help="check the conjugate relations")
    common(p)
    p.add_argument("--xi", help="candidate polynomials, ';'-separated")
    p.set_defaults(func=cmd_verify_conjugate)

    p = sub.add_parser("duality", help="random sweep of the duality identity")
    common(p)
    p.add_argument("--trials", type=int, default=200)
    p.set_defaults(func=cmd_duality)

    p = sub.add_parser("reduce", help="extract a leading coefficient")
    common(p)
    p.add_argument("--poly", help="polynomial in text form")
    p.add_argument("--word", help="comma-separated letters of a top-degree word")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("relations", help="Gram-kernel relation detection")
    common(p)
    p.set_defaults(func=cmd_relations)

    p = sub.add_parser("spectrum", help="matrix-model spectrum and atom scan")
    common(p)
    p.add_argument("--poly", help="self-adjoint polynomial in text form")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("margins", help="empirical norm-inequality margins")
    common(p)
    p.add_argument("--xi", help="candidate polynomials, ';'-separated")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--slack", type=float, default=0.05)
    p.set_defaults(func=cmd_margins)

    p = sub.add_parser("report", help="combined conjugate/relations/Fisher report")
    common(p)
    p.add_argument("--xi", help="candidate polynomials, ';'-separated")
    p.set_defaults(func=cmd_report)

    return parser


def check_counts(args) -> None:
    for flag in ("degree", "trials"):
        value = getattr(args, flag, 0)
        if value < 0:
            raise ConfigError(f"--{flag} must be non-negative, got {value}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        check_counts(args)
        data = load_spec_file(args.spec)
        return args.func(args, data)
    except (ConfigError, NcfreeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
