"""Batch driver for the verification suites, reductions and simulations.

One call, one command.  Every run emits a metadata block (version, seed,
spec digest, RNG name) so results are traceable; CSV payloads are free of
timestamps and therefore byte-identical across reruns with the same seed.

`main(argv)` returns the exit status and may be called many times in one
process: the argument parser is built on the first call and reused, and no
call sees another's flags.  Calls on one spec file text share the
TraceFunctional built from it (`trace_from`), and with it everything that
functional computed: its exact moment memo, the conjugate relations' left
sides and the free-family certificate of `relations`.  So a later call
reads the words and verdicts an earlier one computed.  The file is still
read and hashed on every call, so an edited file builds a new functional.
The first call on a text pays for all of this in full.  argparse still
raises SystemExit(2) on a bad flag and SystemExit(0) on --help.

Exit codes: 0 success / all checks passed, 1 verification failure, 2 usage
or configuration error, 3 internal error.  A negative --degree or --trials,
a duality --degree of 0 or on no generators, a --slack that is NaN or
infinite, an --out file that cannot be written, a spec file that is not
UTF-8, a spec file or a trace or ensemble section that is not a JSON object,
a number with a zero denominator, an inconsistent explicit moment table, an
ensemble whose matrix count differs from the trace's generator count and a
Gram matrix that is not positive semidefinite are usage errors (2), never a
verification failure. Any other exception is reported as an internal error
(3): an `internal error:` line and the traceback go to stderr.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import hashlib
import json
import math
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
from .randmat import (
    RNG_NAME,
    EnsembleConfig,
    check_matrix_count,
    empirical_margins,
    sample,
    spectrum,
)
from .reduction import extract_leading_coeff, relation_kernel
from .scalars import ONE
from .sweeps import rand_poly, rand_word
from .trace import DEFAULT_DEGREE_BOUND, DistributionSpec, TraceFunctional, json_int

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
        raw = Path(path).read_text(encoding="utf-8")  # JSON's encoding, RFC 8259
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read spec file: {exc}") from exc
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"spec file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("spec file must hold a JSON object")
    data["_digest"] = hashlib.sha256(raw.encode()).hexdigest()
    return data


def spec_section(data: dict, name: str) -> dict:
    """A copy of the spec file's section `name`, which must be a JSON object."""
    if name not in data:
        raise ConfigError(f"spec file is missing the '{name}' section")
    section = data[name]
    if not isinstance(section, dict):
        raise ConfigError(f"the '{name}' section must be a JSON object")
    return dict(section)


#: spec file texts whose trace functionals a process keeps
SHARED_DISTRIBUTIONS = 8

#: spec-file digest -> the TraceFunctional built from that file text, oldest first
_traces: dict[str, TraceFunctional] = {}


def trace_from(data: dict) -> TraceFunctional:
    """The spec file's trace functional, built once per file text in the process.

    It is keyed by the text's sha256 (`load_spec_file`), so a file edited
    between calls builds a new one, and a trace section or degree_bound that
    fails to parse is never kept.  At most SHARED_DISTRIBUTIONS texts are
    kept; the oldest goes first.
    """
    digest = data["_digest"]
    trace = _traces.get(digest)
    if trace is None:
        section = spec_section(data, "trace")
        section.setdefault("n", data.get("n"))
        if section["n"] is None:
            raise ConfigError("spec file is missing the generator count 'n'")
        try:
            spec = DistributionSpec.from_dict(section)
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"bad trace section: {exc}") from exc
        try:
            bound = json_int(data.get("degree_bound", DEFAULT_DEGREE_BOUND), "degree_bound", 0)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        trace = TraceFunctional(spec, bound)
        if len(_traces) >= SHARED_DISTRIBUTIONS:
            del _traces[next(iter(_traces))]
        _traces[digest] = trace
    return trace


def ensemble_from(data: dict, seed: int) -> EnsembleConfig:
    section = spec_section(data, "ensemble")
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


def candidate_from(args, data: dict) -> ConjugateCandidate:
    """The conjugate candidate given by --xi for the spec file's trace."""
    trace = trace_from(data)
    return ConjugateCandidate(parse_xi(args.xi, trace.spec.n), trace)


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


def _csv_field(text: str) -> str:
    """`text` as one CSV field, quoted where RFC 4180 asks for it."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _flatten_csv(result: dict, prefix: str = "") -> list[list[str]]:
    rows: list[list[str]] = []
    for key, value in result.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            rows.extend(_flatten_csv(value, prefix=f"{name}."))
        else:
            text = json.dumps(value) if isinstance(value, (list, tuple)) else str(value)
            rows.append([_csv_field(name), _csv_field(text)])
    return rows


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_verify_conjugate(args, data: dict) -> int:
    cand = candidate_from(args, data)
    report = check_conjugate(cand, args.degree)
    emit(args, data, report.to_dict())
    return EXIT_OK if report.passed else EXIT_FAILED


def cmd_duality(args, data: dict) -> int:
    trace = trace_from(data)
    n = trace.spec.n
    # the second word of every trial has at least one letter
    if args.degree < 1:
        raise ConfigError(f"--degree must be at least 1 for duality, got {args.degree}")
    if n < 1:
        raise ConfigError("duality needs at least one generator")
    # a trial reads tau(x y[:k]) with |x| <= degree and |y[:k]| < degree
    trace.check_sweep(2 * args.degree - 1)
    rng = random.Random(args.seed)
    bits, k = rng.getrandbits, n.bit_length()
    monomials = {}  # each distinct drawn word's monomial, valid by construction
    failures = []
    for _ in range(args.trials):
        w1 = rand_word(rng, n, args.degree)
        w2 = rand_word(rng, n, args.degree, min_len=1)
        i = bits(k)  # i = rng.randint(1, n), drawn inline as rand_word draws a letter
        while i >= n:
            i = bits(k)
        i += 1
        p1 = monomials.get(w1)
        if p1 is None:
            p1 = monomials[w1] = NcPoly._trusted(n, {w1: ONE})
        p2 = monomials.get(w2)
        if p2 is None:
            p2 = monomials[w2] = NcPoly._trusted(n, {w2: ONE})
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
    n = trace_from(data).spec.n
    config = ensemble_from(data, args.seed)
    poly = parse_poly(args.poly, n)
    try:
        report = spectrum(poly, config)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    rows = report.eigenvalue_rows() if args.format == "csv" else None
    emit(args, data, report.to_dict(), csv_rows=rows)
    return EXIT_OK


def cmd_margins(args, data: dict) -> int:
    """Margins of random polynomials, all measured on one resident ensemble."""
    n = trace_from(data).spec.n
    config = ensemble_from(data, args.seed)
    cand = candidate_from(args, data)
    rng = random.Random(args.seed)
    if args.trials:
        # every trial measures its norms on one seeded ensemble: draw it once
        check_matrix_count(config, n)
        try:
            samples = sample(config)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    results = []
    worst = float("inf")
    for _ in range(args.trials):
        p = rand_poly(rng, n, args.degree)
        j = rng.randint(1, n)
        report = empirical_margins(cand, j, p, samples)
        worst = min(worst, min(report.all_margins()))
        results.append({"poly": p.to_text(), "j": j, **report.to_dict()})
    # with no trials there is no margin; JSON has no infinity to stand for it
    emit(
        args,
        data,
        {"trials": args.trials, "worst_margin": worst if results else None, "reports": results},
    )
    return EXIT_OK if worst >= -args.slack else EXIT_FAILED


def cmd_report(args, data: dict) -> int:
    cand = candidate_from(args, data)
    try:
        info = fisher(cand, degree=args.degree)
    except ConjugateCheckFailed as exc:
        info, conjugate_report = None, exc.report
    else:
        conjugate_report = VerificationReport(info.degree_checked, ())
    kernel_degree = min(args.degree, cand.trace.max_word_length // 2)
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `ncfree` parser, built on the first call and shared after it.

    It holds no handlers: `main` finds `cmd_<command>` by name at call time.
    """
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

    p = sub.add_parser("duality", help="random sweep of the duality identity")
    common(p)
    p.add_argument("--trials", type=int, default=200)

    p = sub.add_parser("reduce", help="extract a leading coefficient")
    common(p)
    p.add_argument("--poly", help="polynomial in text form")
    p.add_argument("--word", help="comma-separated letters of a top-degree word")

    p = sub.add_parser("relations", help="Gram-kernel relation detection")
    common(p)

    p = sub.add_parser("spectrum", help="matrix-model spectrum and atom scan")
    common(p)
    p.add_argument("--poly", help="self-adjoint polynomial in text form")

    p = sub.add_parser("margins", help="empirical norm-inequality margins")
    common(p)
    p.add_argument("--xi", help="candidate polynomials, ';'-separated")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--slack", type=float, default=0.05)

    p = sub.add_parser("report", help="combined conjugate/relations/Fisher report")
    common(p)
    p.add_argument("--xi", help="candidate polynomials, ';'-separated")

    return parser


def check_flags(args) -> None:
    for flag in ("degree", "trials", "seed"):
        value = getattr(args, flag, 0)
        if value < 0:
            raise ConfigError(f"--{flag} must be non-negative, got {value}")
    slack = getattr(args, "slack", 0.0)
    if not math.isfinite(slack):
        raise ConfigError(f"--slack must be a finite number, got {slack}")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        check_flags(args)
        data = load_spec_file(args.spec)
        handler = globals()["cmd_" + args.command.replace("-", "_")]
        return handler(args, data)
    except (ConfigError, NcfreeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
