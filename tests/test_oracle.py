import random
from fractions import Fraction

import pytest

from partfrac import (
    Constant,
    Decomposition,
    DensePolynomial,
    DuplicateRootError,
    PoleTerm,
    RationalFunctionSpec,
    check_by_substitution,
    compare_with_oracle,
    decompose,
    decomposition_value,
    oracle_decompose,
    rational_function_value,
    symbols,
)
from helpers import distinct_rationals, random_rational_spec

a, b = symbols("a b")


# --- dense polynomial helpers ----------------------------------------------------


def test_polynomial_normalization():
    p = DensePolynomial((Fraction(1), Fraction(2), Fraction(0), Fraction(0)))
    assert p.degree == 1
    assert DensePolynomial((Fraction(0),)).degree == -1
    assert DensePolynomial(()).coefficients == ()


def test_polynomial_multiply_divide_round_trip():
    rng = random.Random(61)
    for _ in range(40):
        A = DensePolynomial(
            tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rng.randint(0, 5)))
        )
        B = DensePolynomial(
            tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rng.randint(1, 5)))
        )
        if B.degree < 0:
            continue
        quotient, remainder = divmod(A * B, B)
        assert quotient == A
        assert remainder.degree == -1


def test_polynomial_division_with_remainder():
    rng = random.Random(62)
    for _ in range(30):
        A = DensePolynomial(
            tuple(Fraction(rng.randint(-9, 9)) for _ in range(rng.randint(1, 7)))
        )
        B = DensePolynomial(
            tuple(Fraction(rng.randint(-9, 9)) for _ in range(rng.randint(1, 4)))
        )
        if B.degree < 0:
            continue
        quotient, remainder = divmod(A, B)
        assert remainder.degree < B.degree
        assert quotient * B + remainder == A


def test_polynomial_evaluation_horner():
    p = DensePolynomial((Fraction(1), Fraction(-2), Fraction(3)))  # 3x^2 - 2x + 1
    assert p(Fraction(2)) == 9
    assert p(Fraction(0)) == 1


# --- undetermined coefficients ----------------------------------------------------


def test_oracle_cover_up_two_roots():
    d = oracle_decompose(0, [Fraction(1), Fraction(2)], [1, 1])
    # cover-up: residues 1/(1-2) = -1 and 1/(2-1) = 1
    assert d.poles == (
        PoleTerm(0, 1, Constant(-1)),
        PoleTerm(1, 1, Constant(1)),
    )


def test_oracle_worked_example_numeric():
    d = oracle_decompose(0, [Fraction(-1), Fraction(-2), Fraction(-3)], [1, 1, 1])
    assert [(p.pole_index, p.order, p.coefficient.value) for p in d.poles] == [
        (0, 1, Fraction(1, 2)),
        (1, 1, Fraction(-1)),
        (2, 1, Fraction(1, 2)),
    ]


def test_oracle_x_over_x_squared():
    d = oracle_decompose(1, [Fraction(0)], [2])
    assert d.poles == (PoleTerm(0, 1, Constant(1)),)


def test_oracle_validates_input():
    with pytest.raises(ValueError):
        oracle_decompose(2, [Fraction(1)], [2])  # improper
    with pytest.raises(ValueError):
        oracle_decompose(0, [Fraction(1), Fraction(1)], [1, 1])  # duplicate
    with pytest.raises(ValueError):
        oracle_decompose(0, [Fraction(1)], [0])


def test_oracle_is_self_consistent():
    rng = random.Random(63)
    for _ in range(10):
        roots = distinct_rationals(rng, 3)
        mults = [rng.randint(1, 3) for _ in range(3)]
        l = rng.randint(0, sum(mults) - 1)
        d = oracle_decompose(l, roots, mults)
        spec = RationalFunctionSpec(
            l, tuple((Constant(r), m) for r, m in zip(roots, mults))
        )
        assert check_by_substitution(spec, d, trials=5, seed=rng.randint(0, 999)).passed


def test_engine_matches_oracle_exactly():
    rng = random.Random(64)
    for _ in range(30):
        spec = random_rational_spec(rng, max_n=5, max_mult=3, numerator="proper")
        assert compare_with_oracle(spec, decompose(spec)) is None


def test_engine_matches_oracle_on_improper_inputs():
    # improper reference values come from dense long division + linear solves
    rng = random.Random(65)
    for _ in range(20):
        spec = random_rational_spec(rng, max_n=4, max_mult=3, numerator="improper")
        assert compare_with_oracle(spec, decompose(spec)) is None


def test_compare_with_oracle_detects_mismatch():
    for spec in (
        RationalFunctionSpec(0, ((Constant(1), 1), (Constant(2), 1))),
        RationalFunctionSpec(5, ((Constant(1), 1), (Constant(2), 2))),  # improper
    ):
        d = decompose(spec)
        assert compare_with_oracle(spec, d) is None
        bad = Decomposition(
            d.roots,
            d.monomials,
            (PoleTerm(0, 1, d.poles[0].coefficient + 1),) + d.poles[1:],
        )
        message = compare_with_oracle(spec, bad)
        assert message is not None and "mismatch" in message


def test_compare_with_oracle_requires_rational_roots():
    spec = RationalFunctionSpec(0, ((a, 1),))
    with pytest.raises(ValueError):
        compare_with_oracle(spec, decompose(spec))


# --- substitution checking ----------------------------------------------------------


def test_substitution_check_passes_on_correct_decomposition():
    spec = RationalFunctionSpec(1, ((a, 2), (b, 1)))
    report = check_by_substitution(spec, decompose(spec), trials=20, seed=7)
    assert report.passed
    assert report.points_checked == 20
    assert report.counterexample is None
    assert "passed" in str(report)


def test_substitution_check_catches_perturbed_coefficient():
    spec = RationalFunctionSpec(1, ((a, 2), (b, 1)))
    d = decompose(spec)
    bad = Decomposition(
        d.roots,
        d.monomials,
        (PoleTerm(d.poles[0].pole_index, d.poles[0].order, d.poles[0].coefficient + 1),)
        + d.poles[1:],
    )
    report = check_by_substitution(spec, bad, trials=20, seed=7)
    assert not report.passed
    ce = report.counterexample
    assert ce is not None
    assert ce.original != ce.decomposed
    assert set(ce.bindings) == {"a", "b"}
    assert "FAILED" in str(report)


def test_substitution_check_is_deterministic_per_seed():
    spec = RationalFunctionSpec(0, ((a, 1), (b, 2)))
    d = decompose(spec)
    r1 = check_by_substitution(spec, d, trials=3, seed=11)
    r2 = check_by_substitution(spec, d, trials=3, seed=11)
    assert r1 == r2


def test_colliding_roots_never_reach_checker():
    # the distinctness gate fires at spec construction ((a) vs (a + 0*b))
    with pytest.raises(DuplicateRootError):
        RationalFunctionSpec(0, ((a, 1), (a + 0 * b, 1)))


def test_value_helpers_agree():
    spec = RationalFunctionSpec(2, ((a, 2), (b, 1)))
    d = decompose(spec)
    bind = {"a": Fraction(3, 2), "b": Fraction(7, 3)}
    x = Fraction(11, 5)
    assert rational_function_value(spec, bind, x) == decomposition_value(d, bind, x)
