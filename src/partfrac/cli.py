"""Command line front end.  ``_HELP`` below is its documentation."""

from __future__ import annotations

import contextlib
import itertools
import os
import re
import shutil
import sys
from collections.abc import Sequence
from types import SimpleNamespace

from .core import RationalFunctionSpec, decompose
from .expr import Constant
from .oracle import check_by_substitution, compare_with_oracle
from .output import OutputFormat, StreamBuffer, term_chunks, write_streaming
from .parser import _max_digits, parse_root_list

__all__ = ["run", "main"]

_VERIFY_SEED = 271828  # fixed so failures reproduce
_INTEGER = re.compile(r"[+-]?([0-9]+)")

_HELP = """\
usage: partfrac [options] EXPONENTS ROOTS

Exact partial fraction decomposition of x^l / ((x-a_1)^(m_1) * ... *
(x-a_n)^(m_n)) with symbolic or rational roots; roots must not mention x.

  EXPONENTS      comma-separated integers l,m_1,...,m_n: the numerator
                 exponent, then the multiplicities
  ROOTS          comma-separated roots a_1,...,a_n

options:
  -h, --help     show this help message and exit
  --format MODE  output mode, infix or structured (default: infix)
  --expand       expand coefficient products over sums in the output
  --verify N     check the result by N random substitutions modulo 62-bit
                 primes, plus the exact undetermined-coefficients oracle
                 when all roots are rational
  --output PATH  result file, replaced when complete (default: result.out)
  --quiet        do not print the result on stdout

Options stand anywhere, spelled in full: --verify 3 or --verify=3.  A value
is never -- or an option, and a repeated option keeps its last value.  Every
other argument is a positional, even one that starts with -: partfrac 0,1 --a
decomposes the root --a, that is a.  -h prints this help wherever it stands.
Everything after -- is a positional: partfrac 0,1 -- -h.

exit status: 0 success, 1 usage or input error (one line on stderr),
2 verification failure

example: partfrac 3,5,7,11 a1,a2,a3
"""

# every option string, and whether it takes a value
_TAKES_VALUE = {
    "-h": False, "--help": False, "--expand": False, "--quiet": False,
    "--format": True, "--verify": True, "--output": True,
}


def _option_value(name: str, value: str):
    if name == "--format" and value not in ("infix", "structured"):
        raise ValueError(f"--format must be infix or structured, not {value!r}")
    if name == "--output" and not value:
        raise ValueError("--output needs a file name, not ''")
    if name == "--verify":
        try:
            value = int(value)
        except ValueError:
            raise ValueError(f"--verify needs an integer, not {value!r}") from None
        if value < 1:
            raise ValueError("--verify needs a positive trial count")
    return value


def _parse_args(argv: Sequence[str]) -> SimpleNamespace | None:
    """Read argv in one pass, by the rules in ``_HELP``; None when help was
    asked for.  Raises ValueError for every usage error.  With more than two
    positionals, the first one before ``--`` that starts with ``-`` is named
    as an unrecognized option."""
    head = argv[: argv.index("--")] if "--" in argv else argv
    if "-h" in head or "--help" in head:
        return None
    ns = SimpleNamespace(format="infix", expand=False, verify=None, output="result.out",
                         quiet=False)
    positionals: list[str] = []
    stray = None
    tokens = iter(argv)
    for tok in tokens:
        name, eq, value = tok.partition("=")
        if tok == "--":
            positionals.extend(tokens)
        elif name not in _TAKES_VALUE:
            if stray is None and tok.startswith("-"):
                stray = tok
            positionals.append(tok)
        elif not _TAKES_VALUE[name]:  # a flag; -h and --help alone returned above
            if eq:
                raise ValueError(f"{name} takes no value")
            setattr(ns, name[2:], True)
        else:
            if not eq:
                value = next(tokens, "--")
                if value == "--" or value.partition("=")[0] in _TAKES_VALUE:
                    raise ValueError(f"{name} needs a value")
            setattr(ns, name[2:], _option_value(name, value))
    if len(positionals) > 2 and stray is not None:
        raise ValueError(f"unrecognized option: {stray}")
    if len(positionals) != 2:
        raise ValueError(f"expected the arguments EXPONENTS and ROOTS, got {len(positionals)}")
    ns.exponents, ns.roots = positionals
    return ns


def _parse_exponents(src: str) -> tuple[int, list[int]]:
    """Read l,m_1,...,m_n; each entry is an optional sign and ASCII digits,
    as integers are in a root."""
    limit = _max_digits()
    values = []
    for index, entry in enumerate((e.strip() for e in src.split(",")), start=1):
        if not entry:
            raise ValueError(f"empty entry {index} in exponent list")
        match = _INTEGER.fullmatch(entry)
        if len(match[1] if match else entry) > limit:
            raise ValueError(f"exponent entry {index} is longer than {limit} digits")
        if match is None:
            raise ValueError(f"exponent list must contain only integers, not {entry!r}")
        values.append(int(entry))
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
            f"{len(mults) + 1} exponent entries require {len(mults)} "
            f"root{'' if len(mults) == 1 else 's'}, {len(roots)} given"
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


def _to_stdout(text: str) -> bool:
    """Write ``text`` to stdout; report a failure in one line and return
    False."""
    try:
        if sys.stdout is None:  # started with stdout closed
            raise OSError("stdout is closed")
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as err:
        # what the stream still holds would fail again when the interpreter
        # flushes it at exit
        sys.stdout = open(os.devnull, "w")
        print(f"partfrac: error: cannot write stdout: {err}", file=sys.stderr)
        return False
    return True


def run(argv: Sequence[str] | None = None) -> int:
    try:
        ns = _parse_args(sys.argv[1:] if argv is None else argv)
        if ns is None:
            return 0 if _to_stdout(_HELP) else 1
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
    except OSError as err:  # the reason alone: its file name may be the temporary file
        reason = err.strerror or err  # a StreamWriteError has no strerror
        print(f"partfrac: error: cannot write {ns.output!r}: {reason}", file=sys.stderr)
        return 1
    except ValueError as err:  # an integer too long to convert to text
        print(f"partfrac: error: cannot render the result: {err}", file=sys.stderr)
        return 1
    if not ns.quiet and not _to_stdout("".join(chunks)):
        return 1

    if ns.verify is not None:
        failures = _verify(spec, d, ns.verify)
        if failures:
            for msg in failures:
                print(f"partfrac: verification: {msg}", file=sys.stderr)
            return 2
        trials = f"{ns.verify} substitution trial" + ("" if ns.verify == 1 else "s")
        print(f"partfrac: verification passed ({trials})", file=sys.stderr)
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
