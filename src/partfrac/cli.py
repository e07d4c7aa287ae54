"""Command line front end.

Usage mirrors the library's input form: two positional strings, first the
comma-separated integers ``l, m_1, ..., m_n`` (numerator exponent followed by
the factor multiplicities), then the comma-separated roots.  The
decomposition variable is always ``x``; roots therefore must not mention
``x``.  Results go to stdout and, via the streaming writer, to ``result.out``
(overwritten; configurable with --output).

Exit status: 0 success, 1 usage or input error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from typing import Sequence

from .core import DuplicateRootError, RationalFunctionSpec, decompose
from .expr import Constant, symbols_in
from .oracle import check_by_substitution, compare_with_oracle
from .output import (
    VARIABLE,
    OutputFormat,
    StreamBuffer,
    StreamWriteError,
    term_chunks,
    write_streaming,
)
from .parser import ParseError, parse_root_list

__all__ = ["build_arg_parser", "run", "main"]

_VERIFY_SEED = 271828  # fixed so failures reproduce


class UsageError(ValueError):
    pass


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="partfrac",
        description=(
            "Exact partial fraction decomposition of x^l / ((x-a_1)^(m_1) * ... * "
            "(x-a_n)^(m_n)) with symbolic or rational roots."
        ),
        epilog='example: partfrac "3,5,7,11" "a1,a2,a3"',
    )
    ap.add_argument(
        "exponents",
        help="comma-separated integers l,m_1,...,m_n: numerator exponent then multiplicities",
    )
    ap.add_argument("roots", help="comma-separated roots a_1,...,a_n (expressions without x)")
    ap.add_argument(
        "--format",
        choices=("infix", "structured"),
        default="infix",
        help="output mode (default: infix)",
    )
    ap.add_argument(
        "--expand",
        action="store_true",
        help="expand coefficient products over sums in the output",
    )
    ap.add_argument(
        "--verify",
        type=int,
        metavar="N",
        help="check the result by N random substitutions (plus the exact "
        "undetermined-coefficients oracle when all roots are rational)",
    )
    ap.add_argument(
        "--buffer-capacity",
        type=int,
        default=65536,
        metavar="BYTES",
        help="streaming buffer capacity for the output file (default: 65536)",
    )
    ap.add_argument(
        "--output",
        default="result.out",
        metavar="PATH",
        help="output file, overwritten if present (default: result.out)",
    )
    ap.add_argument("--quiet", action="store_true", help="suppress stdout result")
    return ap


_VALUE_FLAGS = {"--format", "--verify", "--buffer-capacity", "--output"}
_BOOL_FLAGS = {"--expand", "--quiet", "-h", "--help"}


def _rearrange(argv: Sequence[str]) -> list[str]:
    """Move flags ahead of positionals and shield the positionals behind '--'
    so roots like "-1,-2,-3" are not mistaken for options."""
    flags: list[str] = []
    positionals: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--":
            positionals.extend(argv[i + 1 :])
            break
        if tok in _BOOL_FLAGS or tok.startswith("--"):
            flags.append(tok)
            if tok in _VALUE_FLAGS and i + 1 < len(argv):
                i += 1
                flags.append(argv[i])
        else:
            positionals.append(tok)
        i += 1
    return flags + ["--"] + positionals


def _parse_exponents(src: str) -> tuple[int, list[int]]:
    entries = [e.strip() for e in src.split(",")]
    if any(not e for e in entries):
        raise UsageError(f"empty entry in exponent list {src!r}")
    try:
        values = [int(e) for e in entries]
    except ValueError:
        raise UsageError(f"exponent list must contain only integers, got {src!r}") from None
    if len(values) < 2:
        raise UsageError(
            "exponent list needs the numerator exponent and at least one multiplicity"
        )
    l, mults = values[0], values[1:]
    if l < 0:
        raise UsageError(f"numerator exponent must be >= 0, got {l}")
    for m in mults:
        if m < 1:
            raise UsageError(f"multiplicities must be >= 1, got {m}")
    return l, mults


def _build_spec(exponents_src: str, roots_src: str) -> RationalFunctionSpec:
    l, mults = _parse_exponents(exponents_src)
    roots = parse_root_list(roots_src)
    if len(roots) != len(mults):
        raise UsageError(
            f"{len(mults) + 1} exponent entries require {len(mults)} roots, "
            f"{len(roots)} given"
        )
    for idx, root in enumerate(roots, start=1):
        if VARIABLE in symbols_in(root):
            raise UsageError(
                f"root {idx} contains the decomposition variable '{VARIABLE}'"
            )
    return RationalFunctionSpec(l, tuple(zip(roots, mults)))


def _verify(spec: RationalFunctionSpec, d, trials: int) -> list[str]:
    """Run the verification suite; returns failure messages (empty = pass)."""
    failures = []
    report = check_by_substitution(spec, d, trials=trials, seed=_VERIFY_SEED)
    if not report.passed:
        failures.append(str(report))
    if all(isinstance(r, Constant) for r in spec.roots):
        mismatch = compare_with_oracle(spec, d)
        if mismatch is not None:
            failures.append(f"oracle comparison failed: {mismatch}")
    return failures


def run(argv: Sequence[str] | None = None) -> int:
    ap = build_arg_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        ns = ap.parse_args(_rearrange(argv))
    except SystemExit as exc:  # argparse already printed its message
        return 0 if exc.code in (0, None) else 1

    try:
        if ns.verify is not None and ns.verify < 1:
            raise UsageError("--verify needs a positive trial count")
        if ns.buffer_capacity < 1:
            raise UsageError("--buffer-capacity must be >= 1")
        spec = _build_spec(ns.exponents, ns.roots)
    except (UsageError, ParseError, DuplicateRootError, ValueError) as err:
        print(f"partfrac: error: {err}", file=sys.stderr)
        return 1

    d = decompose(spec)
    # Rendered once; the same chunks go to the file and then to stdout.
    # Under --quiet they stream to the file and are never held whole.
    chunks = itertools.chain(
        term_chunks(d, OutputFormat(mode=ns.format, expand_coefficients=ns.expand)),
        ["\n"] if ns.format == "infix" else [],
    )
    if not ns.quiet:
        chunks = list(chunks)

    try:
        with open(ns.output, "wb") as sink:
            write_streaming(chunks, sink, StreamBuffer(capacity=ns.buffer_capacity))
    except (OSError, StreamWriteError) as err:
        print(f"partfrac: error: cannot write {ns.output!r}: {err}", file=sys.stderr)
        return 1

    if not ns.quiet:
        sys.stdout.write("".join(chunks))
        sys.stdout.flush()

    if ns.verify is not None:
        failures = _verify(spec, d, ns.verify)
        if failures:
            for msg in failures:
                print(f"partfrac: verification: {msg}", file=sys.stderr)
            return 2
        print(
            f"partfrac: verification passed ({ns.verify} substitution trials)",
            file=sys.stderr,
        )
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
