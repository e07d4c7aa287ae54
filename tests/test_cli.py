import os
import subprocess
import sys
from fractions import Fraction

import pytest

import partfrac.cli as cli
from partfrac import (
    Decomposition,
    PoleTerm,
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
    for exponents in ("", "1", "a,b", "1,,2", "-1,1", "0,0", "0,-2"):
        code, _, err = run_cli(capsys, exponents, "r")
        assert code == 1, exponents
        assert err.startswith("partfrac: error:"), exponents


def test_help_exits_0(in_tmp, capsys):
    assert run_cli(capsys, "-h")[0] == 0


def test_unknown_flag_exits_1(in_tmp, capsys):
    assert run_cli(capsys, "--bogus", "0,1", "a")[0] == 1


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


def test_structured_format(in_tmp, capsys):
    code, out, _ = run_cli(capsys, "--format", "structured", "0,1", "a")
    assert code == 0
    assert out == "P 1 1 1\n"
    code, out, _ = run_cli(capsys, "--format", "structured", "3,2,1", "a+b,a-b")
    assert code == 0
    assert (in_tmp / "result.out").read_bytes() == out.encode()


def test_expand_flag(in_tmp, capsys):
    # x / ((x-(a+b))(x-(a-b))) has the product coefficient (1/2)*(a+b)*b^(-1)
    plain = run_cli(capsys, "1,1,1", "a+b,a-b")[1]
    expanded = run_cli(capsys, "--expand", "1,1,1", "a+b,a-b")[1]
    assert plain != expanded
    assert (in_tmp / "result.out").read_bytes() == expanded.encode()
    bind = {"a": Fraction(2, 3), "b": Fraction(5, 7), "x": Fraction(19, 4)}
    assert evaluate(parse_expr(plain), bind) == evaluate(parse_expr(expanded), bind)


def test_tiny_buffer_capacity_same_bytes(in_tmp, capsys):
    big = run_cli(capsys, "--buffer-capacity", "8", "2,3,2", "a,b")[1]
    normal = run_cli(capsys, "2,3,2", "a,b")[1]
    assert big == normal
    assert run_cli(capsys, "--buffer-capacity", "0", "0,1", "a")[0] == 1


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


def test_module_entry_point(in_tmp):
    # The child runs from in_tmp, where a relative PYTHONPATH (such as
    # PYTHONPATH=src) no longer resolves; point it at the package under test.
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    pythonpath = [package_root, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, pythonpath)))
    proc = subprocess.run(
        [sys.executable, "-m", "partfrac", "0,1,1", "p,q"],
        capture_output=True,
        text=True,
        cwd=in_tmp,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout == "(p - q)^(-1)*(x - p)^(-1) + (q - p)^(-1)*(x - q)^(-1)\n"
    assert (in_tmp / "result.out").read_text() == proc.stdout
