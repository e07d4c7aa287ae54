"""Command line front end.

Usage mirrors the library's input form: two positional strings, first the
comma-separated integers ``l, m_1, ..., m_n`` (numerator exponent followed by
the factor multiplicities), then the comma-separated roots.  The
decomposition variable is always ``x``; roots therefore must not mention
``x``.  Results go to stdout and, via the streaming writer, to ``result.out``
(overwritten; configurable with --output).  The file is written under a
temporary name in the same directory and renamed into place when complete,
so a failed write leaves no partial result.

Options may stand before, between or after the positionals and must be
spelled in full (``--verify 3``, or ``--format=structured``).  Any argument
that reads as an option is one, so ``-h`` anywhere prints the help; a root
or exponent list that reads as an option, such as the root ``-h``, goes after
``--``.  Every other argument is a positional, even one starting with ``-``
or ``--`` (``partfrac 0,1 --a`` decomposes the root ``--a``, that is ``a``).

Exit status: 0 success, 1 usage or input error (one line on stderr), 2
verification failure.  ``--verify`` evaluates modulo random 62-bit primes,
so no result is too large to verify.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import os
import shutil
import sys
from typing import Sequence

from .core import RationalFunctionSpec, decompose
from .expr import Constant
from .oracle import check_by_substitution, compare_with_oracle
from .output import OutputFormat, StreamBuffer, term_chunks, write_streaming
from .parser import parse_root_list

__all__ = ["build_arg_parser", "run", "main"]

_VERIFY_SEED = 271828  # fixed so failures reproduce


# Every option, as the keywords of its add_argument call.  The parser is built
# from this table and _rearrange reads it, so the two cannot disagree.
_OPTIONS = {
    ("-h", "--help"): dict(action="help", help="show this help message and exit"),
    ("--format",): dict(
        choices=("infix", "structured"), default="infix", help="output mode (default: infix)"
    ),
    ("--expand",): dict(
        action="store_true", help="expand coefficient products over sums in the output"
    ),
    ("--verify",): dict(
        type=int,
        metavar="N",
        help="check the result by N random substitutions (plus the exact "
        "undetermined-coefficients oracle when all roots are rational)",
    ),
    ("--output",): dict(
        default="result.out",
        metavar="PATH",
        help="output file, overwritten if present (default: result.out)",
    ),
    ("--quiet",): dict(action="store_true", help="suppress stdout result"),
}


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="partfrac",
        description=(
            "Exact partial fraction decomposition of x^l / ((x-a_1)^(m_1) * ... * "
            "(x-a_n)^(m_n)) with symbolic or rational roots."
        ),
        epilog='example: partfrac "3,5,7,11" "a1,a2,a3".  Options are spelled in '
        "full; arguments after -- are never options (partfrac 0,1 -- -h).",
        add_help=False,
        allow_abbrev=False,
    )
    ap.add_argument(
        "exponents",
        help="comma-separated integers l,m_1,...,m_n: numerator exponent then multiplicities",
    )
    ap.add_argument("roots", help="comma-separated roots a_1,...,a_n (expressions without x)")
    for names, keywords in _OPTIONS.items():
        ap.add_argument(*names, **keywords)
    return ap


def _rearrange(argv: Sequence[str]) -> list[str]:
    """Move options ahead of positionals and shield the positionals behind
    '--', so roots like "-1,-2,-3" or "--a" are not mistaken for options.  A
    token is an option only when it is one of the option strings, in full,
    or "--name=value" for one of them.  With more than two positionals, the
    first one before '--' that starts with '-' is named as an unrecognized
    option (ValueError), unless help was asked for."""
    # an option with an action (help, store_true) takes no value
    takes_value = {s: "action" not in kw for names, kw in _OPTIONS.items() for s in names}
    flags: list[str] = []
    positionals: list[str] = []
    stray = None
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--":
            positionals.extend(argv[i + 1 :])
            break
        name, eq, _ = tok.partition("=")
        if name in takes_value:
            flags.append(tok)
            if takes_value[name] and not eq and i + 1 < len(argv):
                i += 1
                flags.append(argv[i])
        else:
            if stray is None and tok.startswith("-"):
                stray = tok
            positionals.append(tok)
        i += 1
    if len(positionals) > 2 and stray is not None and not {"-h", "--help"} & set(flags):
        raise ValueError(f"unrecognized option: {stray}")
    return flags + ["--"] + positionals


def _parse_exponents(src: str) -> tuple[int, list[int]]:
    entries = [e.strip() for e in src.split(",")]
    if any(not e for e in entries):
        raise ValueError(f"empty entry in exponent list {src!r}")
    try:
        values = [int(e) for e in entries]
    except ValueError:
        raise ValueError(f"exponent list must contain only integers, got {src!r}") from None
    if len(values) < 2:
        raise ValueError(
            "exponent list needs the numerator exponent and at least one multiplicity"
        )
    return values[0], values[1:]


def _build_spec(exponents_src: str, roots_src: str) -> RationalFunctionSpec:
    l, mults = _parse_exponents(exponents_src)
    roots = parse_root_list(roots_src)
    if len(roots) != len(mults):
        raise ValueError(
            f"{len(mults) + 1} exponent entries require {len(mults)} roots, "
            f"{len(roots)} given"
        )
    return RationalFunctionSpec(l, tuple(zip(roots, mults)))


def _write_result(path: str, chunks) -> None:
    """Stream ``chunks`` to a temporary file beside ``path``, then rename it
    to ``path``.  Symbolic links are followed first, so the file they point
    to is replaced and keeps its permission bits.  Replacing by rename needs
    a writable directory and does not keep hard links to the old file.  An
    existing path that is not a regular file (a device or a pipe) is written
    in place, since renaming over it would replace it."""
    path = os.path.realpath(path)
    if os.path.exists(path) and not os.path.isfile(path):
        tmp = path
    else:
        head, tail = os.path.split(path)
        tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as sink:
            write_streaming(chunks, sink, StreamBuffer())
        if tmp != path:
            if os.path.exists(path):
                shutil.copymode(path, tmp)
            os.replace(tmp, path)
    except BaseException:
        if tmp != path:
            with contextlib.suppress(OSError):
                os.remove(tmp)
        raise


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
        with contextlib.redirect_stderr(io.StringIO()) as usage:
            ns = ap.parse_args(_rearrange(argv))
    except SystemExit as exc:  # argparse printed the usage, then its message
        if exc.code in (0, None):
            return 0
        print(usage.getvalue().splitlines()[-1], file=sys.stderr)
        return 1
    except ValueError as err:
        print(f"partfrac: error: {err}", file=sys.stderr)
        return 1

    try:
        if ns.verify is not None and ns.verify < 1:
            raise ValueError("--verify needs a positive trial count")
        spec = _build_spec(ns.exponents, ns.roots)
    except ValueError as err:
        print(f"partfrac: error: {err}", file=sys.stderr)
        return 1

    d = decompose(spec)
    # Rendered once; the same chunks go to the file and then to stdout.
    # Under --quiet they stream to the file and are never held whole.
    chunks = itertools.chain(
        term_chunks(d, OutputFormat(mode=ns.format, expand_coefficients=ns.expand)),
        ["\n"] if ns.format == "infix" else [],
    )
    try:
        if not ns.quiet:
            chunks = list(chunks)
        _write_result(ns.output, chunks)
    except OSError as err:
        print(f"partfrac: error: cannot write {ns.output!r}: {err}", file=sys.stderr)
        return 1
    except ValueError as err:  # an integer too long to convert to text
        print(f"partfrac: error: cannot render the result: {err}", file=sys.stderr)
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
