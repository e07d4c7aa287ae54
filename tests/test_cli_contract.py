"""The command line contract, fuzzed.

Every argv either decomposes exactly, with exit 0 and ``result.out`` equal
to stdout and in value to the input, or ends with exit 1, one line on
stderr, no traceback and no ``result.out``.  Arguments come from the input
grammar plus hostile mutations.  ``--verify`` is left out: the test checks
the value of every accepted input itself.
"""

import contextlib
import io
import os
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

import partfrac.cli as cli
from partfrac import (
    OutputFormat,
    check_by_substitution,
    decompose,
    term_chunks,
)

_grammar = st.recursive(
    st.sampled_from(["a", "b", "c", "0", "1", "2", "7", "1/2"]),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*/"), inner).map(lambda t: f"({''.join(t)})"),
        st.tuples(inner, st.integers(-3, 4)).map(lambda t: f"{t[0]}^{t[1]}"),
        inner.map(lambda s: f"-{s}"),
    ),
    max_leaves=5,
)
_hostile = st.sampled_from([
    "2^3^4^5", "(2*a)^(3^4^5)", "(-1)^(3^4^5)", "a^(3^4^5)", "(a+1)^(3^4^5)",
    "(" * 101 + "a" + ")" * 101, "-" * 1000 + "a", "((a+b)^2)^-1",
    "9" * 4301, "10^4300", "3^99999999", "(a+1)^100000", "a^999999",
    "α", "a·b", "１", "b²", "a\u200bb",
    "x", "a + x", "(x - a)^2",
    "1/(a-b)+1/(a+b)", "2*a/(a^2-b^2)", "(a^2-b^2)/(a-b)", "a+b",
    "1/0", "0^-1", "a/(a-a)", "", "(a", "a)", "a b", "2^a", "a^(1/2)",
])
_bad_exponents = st.sampled_from([
    "", "1", ",", "0,", "a,1", "-1,1", "1,0", "1,-2", "1.5,2", "1,,2", "0x1,1",
    "--1,1", "1,1,1,1,1,1", "１,1", "0,1;1", "0,1 1",
])
_bad_flags = st.sampled_from([
    ["--buffer-capacity", "0"], ["--verify", "0"], ["--verify", "x"], ["--format", "latex"],
    ["--bogus"], ["--output"], ["-q"],
])


@st.composite
def _argv(draw):
    """An argv from the grammar, then at most one hostile mutation."""
    roots = draw(st.lists(_grammar, min_size=1, max_size=3))
    mults = draw(st.lists(st.integers(1, 3), min_size=len(roots), max_size=len(roots)))
    exponents = ",".join(map(str, [draw(st.integers(0, 8)), *mults]))
    flags = draw(st.sampled_from(
        [[], ["--expand"], ["--format", "structured"], ["--format=structured"]]
    ))
    mutation = draw(st.sampled_from(["none", "root", "exponents", "flags"]))
    if mutation == "root":
        roots[draw(st.integers(0, len(roots) - 1))] = draw(_hostile)
    elif mutation == "exponents":
        exponents = draw(_bad_exponents)
    elif mutation == "flags":
        flags = draw(_bad_flags)
    return [*flags, exponents, ",".join(roots)]


@settings(max_examples=300, deadline=None)
@given(_argv())
@example(["0,1", "2^3^4^5"])
@example(["0,1", "(2*a)^(3^4^5)"])
@example(["0,1", "(-1)^(3^4^5)"])
@example(["--1,1", "a"])
@example(["1,1,1", "1/(a-b)+1/(a+b),2*a/(a^2-b^2)"])
@example(["0,1", "--a"])
@example(["0,1", "--", "-h"])
@example(["--expand", "0,1,1", "(a+1)^100000,b"])
@example(["--expand", "40,1,1", "a+b+c+d,e"])
@example(["--expand", "60,1,1", "a+b+c+d,e"])
@example(["99999999,1", "a"])
@example(["0,99999999", "a"])
@example(["0,1,1", "(a+b+c)^30/(a+b+d)^30,(a+c+d)^30/(b+c+d)^30"])
@example(["--quiet=1", "0,1", "a"])
@example(["--expand=yes", "0,1", "a"])
@example(["--format=latex", "0,1", "a"])
@example(["0,1", "a", "--output"])
@example(["0,1", "a", "--verify"])
@example([])
def test_every_argv_decomposes_exactly_or_ends_in_one_line(argv):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "result.out")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(["--output", path, *argv])  # argv may end in "-- ..."
        out, err = out.getvalue(), err.getvalue()
        if code == 1:
            assert err.count("\n") == 1 and err.startswith("partfrac: error: "), err
            assert "Traceback" not in err and out == ""
            assert os.listdir(tmp) == []
            return
        assert code == 0 and err == "", err
        assert os.listdir(tmp) == ["result.out"]
        with open(path, encoding="ascii") as f:
            assert f.read() == out
    ns = cli._parse_args(argv)
    spec = cli._build_spec(ns.exponents, ns.roots)
    d = decompose(spec)
    form = OutputFormat(mode=ns.format, expand_coefficients=ns.expand)
    assert out == "".join(term_chunks(d, form)) + ("\n" if ns.format == "infix" else "")
    report = check_by_substitution(spec, d, trials=2)
    assert report.passed, report
