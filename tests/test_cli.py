import os
import stat
import subprocess
import sys
import threading
import time
from fractions import Fraction

import pytest

import partfrac.cli as cli
from partfrac import (
    Decomposition,
    PoleTerm,
    StreamWriteError,
    evaluate,
    parse_expr,
)


@pytest.fixture
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_single_pole(in_tmp, capsys):
    code, out, err = run_cli(capsys, "0,1", "a")
    assert code == 0
    assert out == "(x - a)^(-1)\n"
    assert (in_tmp / "result.out").read_text() == out


def test_documented_invocation_writes_result_out(in_tmp, capsys):
    code, out, _ = run_cli(capsys, "3,5,7,11", "a1,a2,a3")
    assert code == 0
    assert (in_tmp / "result.out").read_bytes() == out.encode()
    # spot-check the output by exact evaluation at one rational point
    e = parse_expr(out)
    bind = {
        "a1": Fraction(3, 7),
        "a2": Fraction(12, 5),
        "a3": Fraction(-9, 4),
        "x": Fraction(15, 2),
    }
    expected = bind["x"] ** 3
    for name, mult in (("a1", 5), ("a2", 7), ("a3", 11)):
        expected *= (bind["x"] - bind[name]) ** -mult
    assert evaluate(e, bind) == expected


def test_arity_mismatch_exits_1_naming_counts(in_tmp, capsys):
    code, out, err = run_cli(capsys, "3,5,7", "a1,a2,a3")
    assert code == 1
    assert out == ""
    assert "3 exponent entries require 2 roots" in err and "3 given" in err


def test_arity_mismatch_names_one_root_in_the_singular(in_tmp, capsys):
    code, out, err = run_cli(capsys, "0,1", "a,b")
    assert code == 1 and out == ""
    assert err == "partfrac: error: 2 exponent entries require 1 root, 2 given\n"


def test_duplicate_roots_exit_1(in_tmp, capsys):
    for roots in ("a,(2*a)/2", "1/(a-b)+1/(a+b),2*a/(a^2-b^2)"):
        code, out, err = run_cli(capsys, "--verify", "3", "0,1,1", roots)
        assert code == 1, roots
        assert out == ""
        assert err.count("\n") == 1 and "share the root" in err, roots


def test_root_containing_x_rejected(in_tmp, capsys):
    code, _, err = run_cli(capsys, "0,1", "x + 1")
    assert code == 1
    assert "decomposition variable" in err


def test_parse_error_reported_with_span(in_tmp, capsys):
    code, _, err = run_cli(capsys, "0,1", "a +")
    assert code == 1
    assert "offset" in err


def test_bad_exponent_lists(in_tmp, capsys):
    # int() would read 1_0 as 10 and the Arabic-Indic digit three as 3
    for exponents in ("", "1", "a,b", "1,,2", "-1,1", "0,0", "0,-2", "1_0,1", "\u0663,1"):
        code, _, err = run_cli(capsys, exponents, "r")
        assert code == 1, exponents
        assert err.startswith("partfrac: error:"), exponents
    assert run_cli(capsys, " +0 , 01 ", "r")[:2] == (0, "(x - r)^(-1)\n")


def test_overlong_exponent_is_named_by_its_index(in_tmp, capsys):
    code, out, err = run_cli(capsys, "0," + "9" * 5000, "a")
    assert code == 1 and out == ""
    assert err == "partfrac: error: exponent entry 2 is longer than 4300 digits\n"
    assert os.listdir(in_tmp) == []


def test_help_exits_0(in_tmp, capsys):
    assert run_cli(capsys, "-h")[0] == 0
    # -h is an option wherever it stands; the root -h goes after "--"
    code, out, _ = run_cli(capsys, "0,1", "-h")
    assert code == 0 and out.startswith("usage: partfrac")
    assert os.listdir(in_tmp) == []
    # ... even after an option with a bad value; it names every option
    code, out, _ = run_cli(capsys, "--format", "latex", "0,1", "a", "--help")
    assert code == 0 and out == cli._HELP
    for option in cli._TAKES_VALUE:
        assert option in out, option


def test_unknown_flag_exits_1(in_tmp, capsys):
    # unknown options, abbreviations of known ones included
    for argv in (["--bogus", "0,1", "a"], ["--verif", "3", "0,1", "a"],
                 ["--buffer-capacity", "8", "0,1", "a"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == "", argv
        assert err.startswith("partfrac: error: ") and err.count("\n") == 1, argv
        assert os.listdir(in_tmp) == [], argv


@pytest.mark.parametrize("argv", [["--bogus", "0,1", "a"], ["--verif", "3", "0,1", "a"]])
def test_unknown_option_is_named(in_tmp, capsys, argv):
    # the option displaces a positional; the message names the option
    assert run_cli(capsys, *argv) == (
        1, "", f"partfrac: error: unrecognized option: {argv[0]}\n"
    )
    assert os.listdir(in_tmp) == []


def test_roots_that_look_like_options(in_tmp, capsys):
    assert run_cli(capsys, "0,1", "--a")[:2] == (0, "(x - a)^(-1)\n")
    assert run_cli(capsys, "0,1", "--", "-h")[:2] == (0, "(x + h)^(-1)\n")
    assert (in_tmp / "result.out").read_text() == "(x + h)^(-1)\n"
    assert run_cli(capsys, "0,1", "--", "--verify") == (0, "(x - verify)^(-1)\n", "")


def test_quiet_suppresses_stdout_but_writes_file(in_tmp, capsys):
    code, out, _ = run_cli(capsys, "--quiet", "0,1", "a")
    assert code == 0
    assert out == ""
    assert (in_tmp / "result.out").read_text() == "(x - a)^(-1)\n"


def test_output_path_and_overwrite(in_tmp, capsys):
    target = in_tmp / "decomp.txt"
    target.write_text("stale content that must vanish")
    code, out, _ = run_cli(capsys, "--output", str(target), "0,1,2", "a,b")
    assert code == 0
    assert target.read_bytes() == out.encode()


def test_failed_write_leaves_no_partial_file(in_tmp, capsys, monkeypatch):
    def failing_write(chunks, sink, buffer=None):
        sink.write(next(iter(chunks)).encode("ascii"))  # part of the result
        raise StreamWriteError(1, OSError("no space left on device"))

    monkeypatch.setattr(cli, "write_streaming", failing_write)
    code, out, err = run_cli(capsys, "3,1,2", "a,b")
    assert code == 1 and out == ""
    assert "cannot write 'result.out'" in err and "no space left" in err
    assert os.listdir(in_tmp) == []
    # an existing result survives a failed overwrite, byte for byte
    (in_tmp / "result.out").write_text("previous result\n")
    assert run_cli(capsys, "3,1,2", "a,b")[0] == 1
    assert os.listdir(in_tmp) == ["result.out"]
    assert (in_tmp / "result.out").read_text() == "previous result\n"


def test_write_error_names_the_path_and_the_reason(in_tmp, capsys):
    target = in_tmp / "missing" / "x"
    code, out, err = run_cli(capsys, "--output", str(target), "0,1", "a")
    assert code == 1 and out == ""
    assert err == f"partfrac: error: cannot write {str(target)!r}: No such file or directory\n"
    assert ".tmp" not in err


def test_empty_output_name_is_refused_as_an_option_error(in_tmp, capsys):
    for argv in (("--output", ""), ("--output=",)):
        code, out, err = run_cli(capsys, *argv, "0,1", "a")
        assert (code, out) == (1, "")
        assert err == "partfrac: error: --output needs a file name, not ''\n"
        assert os.listdir(in_tmp) == []


def test_huge_integers_end_in_one_line(in_tmp, capsys):
    # the root itself is too long to render, or (3^99999999) would take
    # minutes to compute: both are refused while parsing, with the span
    for root in ("2^99999999", "3^99999999"):
        code, out, err = run_cli(capsys, "0,1", root)
        assert code == 1 and out == "", root
        assert err.count("\n") == 1 and "Traceback" not in err, root
        assert "more than 4300 digits (at offset 0..10)" in err, root
        assert os.listdir(in_tmp) == [], root
    # exponents too large for a float are compared exactly
    for root, span in (("2^3^4^5", "0..7"), ("(2*a)^(3^4^5)", "0..13")):
        code, out, err = run_cli(capsys, "0,1", root)
        assert code == 1 and out == "", root
        assert err.count("\n") == 1 and "Traceback" not in err, root
        assert f"more than 4300 digits (at offset {span})" in err, root
        assert os.listdir(in_tmp) == [], root
    assert run_cli(capsys, "0,1", "(-1)^(3^4^5)")[:2] == (0, "(x + 1)^(-1)\n")
    os.remove(in_tmp / "result.out")
    # the root renders, but the quotient coefficients 10^(500*j) do not; and
    # a root folded to 8001 digits is accepted, then cannot be rendered
    for argv in (("10,1", "10^500"), ("0,1,1", "10^4000*10^4000,b")):
        for quiet in ((), ("--quiet",)):
            code, out, err = run_cli(capsys, *quiet, *argv)
            assert code == 1 and out == "", (argv, quiet)
            assert err.startswith("partfrac: error: cannot render the result:"), (argv, quiet)
            assert err.count("\n") == 1 and "Traceback" not in err, (argv, quiet)
            assert os.listdir(in_tmp) == [], (argv, quiet)


def test_work_without_bound_ends_in_one_line(in_tmp, capsys):
    # roots are compared by evaluation mod a prime, so (a+1)^100000 is never
    # multiplied out unless --expand asks for it, and then it is refused
    # before anything is expanded
    code, out, err = run_cli(capsys, "0,1", "(a+1)^100000")
    assert code == 0 and err == "" and out == "(x - (1 + a)^100000)^(-1)\n"
    os.remove(in_tmp / "result.out")
    # a^999999 is evaluated mod a 62-bit prime, so verifying it is cheap
    code, out, err = run_cli(capsys, "0,1,1", "a,a^999999", "--verify", "1")
    assert code == 0
    assert err == "partfrac: verification passed (1 substitution trial)\n"
    assert (in_tmp / "result.out").read_text() == out


def test_rational_composition_hole_is_summed_by_series(in_tmp, capsys):
    # 20 rational roots of multiplicity 20: the composition sum of each pole
    # has C(39, 20) terms, the truncated series 19 products of 20 terms
    exponents = ",".join(["0"] + ["20"] * 20)
    roots = ",".join(str(k) for k in range(1, 21))
    code, out, err = run_cli(capsys, exponents, roots, "--quiet")
    assert code == 0 and out == "" and err == ""
    assert (in_tmp / "result.out").read_text().count("(x - ") == 400


@pytest.mark.parametrize("argv, message", [
    (("0,1,1", "(a+1)^100000,b", "--expand"),
     "cannot render the result: a coefficient would expand to more than 500 terms"),
    (("40,1,1", "a+b+c+d,e", "--expand"),
     "cannot render the result: a coefficient would expand to more than 500 terms"),
    (("60,1,1", "a+b+c+d,e", "--expand"),
     "cannot render the result: a coefficient would expand to more than 500 terms"),
    (("99999999,1", "a"), "the result could have 100000000 terms, more than 100000"),
    (("0,99999999", "a"), "the result could have 99999999 terms, more than 100000"),
])
def test_work_too_large_is_refused_up_front(in_tmp, capsys, argv, message):
    for quiet in ((), ("--quiet",)):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *quiet, *argv)
        assert time.perf_counter() - start < 1, quiet
        assert code == 1 and out == "", quiet
        assert err == f"partfrac: error: {message}\n", quiet
        assert os.listdir(in_tmp) == [], quiet


def test_large_rational_function_roots_are_compared_by_evaluation(in_tmp, capsys):
    # both roots are 496 terms over 496: cross-multiplying them would take
    # 2 * 496 * 496 products of terms, and evaluating them mod a prime takes
    # a few hundred operations
    roots = "(a+b+c)^30/(a+b+d)^30,(a+c+d)^30/(b+c+d)^30"
    code, out, err = run_cli(capsys, "0,1,1", roots, "--verify", "2")
    assert code == 0
    assert err == "partfrac: verification passed (2 substitution trials)\n"
    assert (in_tmp / "result.out").read_text() == out


def test_output_through_a_symlink_replaces_its_target(in_tmp, capsys):
    real_dir = in_tmp / "real"
    real_dir.mkdir()
    target = real_dir / "result.txt"
    target.write_text("previous result\n")
    target.chmod(0o640)
    os.symlink(target, in_tmp / "link.out")
    code, out, _ = run_cli(capsys, "--output", "link.out", "0,1", "a")
    assert code == 0
    assert os.path.islink(in_tmp / "link.out")
    assert target.read_bytes() == out.encode()
    assert stat.S_IMODE(os.stat(target).st_mode) == 0o640
    assert sorted(os.listdir(in_tmp)) == ["link.out", "real"]
    assert os.listdir(real_dir) == ["result.txt"]


def test_output_to_a_pipe_is_written_in_place(in_tmp, capsys):
    fifo = in_tmp / "pipe"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    code, out, _ = run_cli(capsys, "--output", str(fifo), "0,1", "a")
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert code == 0 and received == [out.encode()]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)  # not renamed over
    assert os.listdir(in_tmp) == ["pipe"]


def test_structured_format(in_tmp, capsys):
    code, out, _ = run_cli(capsys, "--format", "structured", "0,1", "a")
    assert code == 0
    assert out == "P 1 1 1\n"
    code, out, _ = run_cli(capsys, "--format", "structured", "3,2,1", "a+b,a-b")
    assert code == 0
    assert (in_tmp / "result.out").read_bytes() == out.encode()
    assert run_cli(capsys, "0,1", "a", "--format=structured")[:2] == (0, "P 1 1 1\n")
    # a repeated option keeps its last value
    argv = ("--format", "infix", "--format", "structured", "0,1", "a")
    assert run_cli(capsys, *argv)[:2] == (0, "P 1 1 1\n")
    assert (in_tmp / "result.out").read_text() == "P 1 1 1\n"


def test_expand_flag(in_tmp, capsys):
    # x / ((x-(a+b))(x-(a-b))) has the product coefficient (1/2)*(a+b)*b^(-1)
    plain = run_cli(capsys, "1,1,1", "a+b,a-b")[1]
    expanded = run_cli(capsys, "--expand", "1,1,1", "a+b,a-b")[1]
    assert plain != expanded
    assert (in_tmp / "result.out").read_bytes() == expanded.encode()
    bind = {"a": Fraction(2, 3), "b": Fraction(5, 7), "x": Fraction(19, 4)}
    assert evaluate(parse_expr(plain), bind) == evaluate(parse_expr(expanded), bind)


def test_verify_passes_on_symbolic_and_numeric(in_tmp, capsys):
    code, _, err = run_cli(capsys, "--verify", "5", "1,2,1", "a,b")
    assert code == 0
    assert "verification passed" in err
    code, _, err = run_cli(capsys, "--verify", "5", "0,1,1,1", "-1,-2,-3")
    assert code == 0
    assert "verification passed" in err


def test_verify_rejects_bad_trial_count(in_tmp, capsys):
    assert run_cli(capsys, "--verify", "0", "0,1", "a")[0] == 1


def test_verify_failure_exits_2(in_tmp, capsys, monkeypatch):
    real = cli.decompose

    def sabotage(spec):
        d = real(spec)
        first = d.poles[0]
        return Decomposition(
            d.roots,
            d.monomials,
            (PoleTerm(first.pole_index, first.order, first.coefficient + 1),)
            + d.poles[1:],
        )

    monkeypatch.setattr(cli, "decompose", sabotage)
    code, _, err = run_cli(capsys, "--verify", "5", "0,1,1", "a,b")
    assert code == 2
    assert "verification" in err and "FAILED" in err
    # numeric roots additionally hit the oracle comparison
    code, _, err = run_cli(capsys, "--verify", "5", "0,1,1", "1,2")
    assert code == 2
    assert "oracle" in err


class _BrokenPipe:
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    flush = write


@pytest.mark.parametrize("stdout", [_BrokenPipe(), None])
def test_unwritable_stdout_ends_in_one_line(in_tmp, capsys, stdout):
    # set by hand: monkeypatch would restore it after capsys has finished
    captured, sys.stdout = sys.stdout, stdout
    try:
        code = cli.run(["0,1", "a"])
        assert sys.stdout.name == os.devnull  # what is left goes nowhere
        sys.stdout.close()
    finally:
        sys.stdout = captured
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("partfrac: error: cannot write stdout: ") and err.count("\n") == 1
    # the result file was complete before stdout was written, and it stays
    assert (in_tmp / "result.out").read_text() == "(x - a)^(-1)\n"


def _child_env():
    # The child runs from in_tmp, where a relative PYTHONPATH (such as
    # PYTHONPATH=src) no longer resolves; point it at the package under test.
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    pythonpath = [package_root, os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, pythonpath)))


def test_stdout_pipe_without_reader_ends_in_one_line(in_tmp):
    # buffered, so the interpreter would flush what is left again at exit
    env = {k: v for k, v in _child_env().items() if k != "PYTHONUNBUFFERED"}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "partfrac", "0,1,1", "p,q"],
                              stdout=write_end, stderr=subprocess.PIPE, text=True,
                              cwd=in_tmp, env=env)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == "partfrac: error: cannot write stdout: [Errno 32] Broken pipe\n"
    assert (in_tmp / "result.out").exists()


def test_importing_the_cli_leaves_argparse_out(in_tmp):
    # every command line invocation pays for what the cli imports
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, partfrac.cli; print('argparse' in sys.modules)"],
        capture_output=True, text=True, cwd=in_tmp, env=_child_env(),
    )
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


def test_module_entry_point(in_tmp):
    proc = subprocess.run(
        [sys.executable, "-m", "partfrac", "0,1,1", "p,q"],
        capture_output=True,
        text=True,
        cwd=in_tmp,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout == "(p - q)^(-1)*(x - p)^(-1) + (q - p)^(-1)*(x - q)^(-1)\n"
    assert (in_tmp / "result.out").read_text() == proc.stdout


def test_import_loads_no_typing_or_dataclasses(in_tmp):
    # each CLI call pays for its imports; these took a third of import partfrac.cli
    code = (
        "import partfrac.cli, sys\n"
        "print(sorted({'typing', 'dataclasses', 'inspect', 'ast'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        cwd=in_tmp,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
