"""Tests of the benchmark's independent output checker and input generator.

    python3 -m pytest -q bench/test_checker.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checker  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from checker import Problem  # noqa: E402

WORKED = Problem((("1", 0),), ("-1", "-2", "-3"), (1, 1, 1))
WORKED_INFIX = "(1/2)*(x + 1)^(-1) - (x + 2)^(-1) + (1/2)*(x + 3)^(-1)"

# 1/((x-a)^2 (x-b)), decomposed by hand
DOUBLE = Problem((("1", 0),), ("a", "b"), (2, 1))
DOUBLE_INFIX = (
    "(a - b)^(-1)*(x - a)^(-2) - (a - b)^(-2)*(x - a)^(-1) + (a - b)^(-2)*(x - b)^(-1)"
)


def test_accepts_worked_example():
    assert checker.check(WORKED_INFIX, "infix", WORKED, seed=1) == []


def test_accepts_worked_example_structured():
    text = "P 1 1 1/2\nP 2 1 -1\nP 3 1 1/2\n"
    assert checker.check(text, "structured", WORKED, seed=1) == []


def test_rejects_changed_coefficient():
    text = WORKED_INFIX.replace("(1/2)*(x + 3)", "(1/3)*(x + 3)")
    errors = checker.check(text, "infix", WORKED, seed=1)
    assert any("value mismatch" in e for e in errors)


def test_accepts_symbolic_decomposition():
    assert checker.check(DOUBLE_INFIX, "infix", DOUBLE, seed=2) == []


def test_rejects_swapped_pole_order():
    swapped = (
        "(a - b)^(-1)*(x - a)^(-1) - (a - b)^(-2)*(x - a)^(-2) + (a - b)^(-2)*(x - b)^(-1)"
    )
    errors = checker.check(swapped, "infix", DOUBLE, seed=2)
    assert any("value mismatch" in e for e in errors)


def test_rejects_pole_order_above_multiplicity():
    text = "P 1 1 1/2\nP 2 2 -1\nP 3 1 1/2\n"
    errors = checker.check(text, "structured", WORKED, seed=1)
    assert any("outside 1..1" in e for e in errors)


def test_rejects_pole_at_no_root():
    text = WORKED_INFIX.replace("(x + 3)", "(x + 4)")
    errors = checker.check(text, "infix", WORKED, seed=1)
    assert any("no input root" in e for e in errors)


def test_improper_quotient():
    # x^3/((x-1)(x-2)) = x + 3 - 1/(x-1) + 8/(x-2)
    problem = Problem((("1", 3),), ("1", "2"), (1, 1))
    good = "3 + x - (x - 1)^(-1) + 8*(x - 2)^(-1)"
    assert checker.check(good, "infix", problem, seed=3) == []
    assert checker.check("M 0 3\nM 1 1\nP 1 1 -1\nP 2 1 8\n", "structured", problem, seed=3) == []
    errors = checker.check("3 + 2*x - (x - 1)^(-1) + 8*(x - 2)^(-1)", "infix", problem, seed=3)
    assert any("leading coefficient" in e for e in errors)


def test_rejects_monomial_for_proper_input():
    errors = checker.check(WORKED_INFIX + " + 0*x", "infix", WORKED, seed=1)
    assert any("has monomial terms" in e for e in errors)


def test_weighted_sum_identity():
    # (c0 + c1*x)/((x-1)(x-2)) = -(c0 + c1)/(x-1) + (c0 + 2*c1)/(x-2)
    problem = Problem((("c0", 0), ("c1", 1)), ("1", "2"), (1, 1))
    good = "(-c0 - c1)*(x - 1)^(-1) + (c0 + 2*c1)*(x - 2)^(-1)"
    assert checker.check(good, "infix", problem, seed=4) == []
    bad = "(-c0 - c1)*(x - 1)^(-1) + (c0 + c1)*(x - 2)^(-1)"
    assert any("value mismatch" in e for e in checker.check(bad, "infix", problem, seed=4))


def test_rejects_unparseable_text():
    assert checker.check("(1/2)*(x + 1", "infix", WORKED, seed=1)


def test_inputs_repeat_per_seed():
    for name in ("proper_symbolic", "improper_symbolic", "small_verified", "cli"):
        assert workloads.make(name, 7) == workloads.make(name, 7)
        assert workloads.make(name, 7) != workloads.make(name, 8)


def test_small_verified_make_up():
    cases = workloads.small_verified(5)
    assert len(cases) == 200
    rational = [c for c in cases if c.label.startswith("q")]
    assert len(rational) == 100
    for c in cases:
        p = c.problem
        assert 1 <= len(p.roots) <= 6 and all(1 <= m <= 3 for m in p.mults)
        assert len(set(p.roots)) == len(p.roots)
    degrees = [c.problem.degree >= c.problem.m for c in cases]
    assert 0 < sum(degrees) < len(degrees)  # both proper and improper


def test_metric_names_match_benchmark_json():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
