import random
from fractions import Fraction

import pytest

from partfrac import (
    ONE,
    Constant,
    DuplicateRootError,
    MonomialTerm,
    PoleTerm,
    RationalFunctionSpec,
    binomial,
    check_by_substitution,
    compositions,
    decompose,
    decompose_batch,
    decompose_proper,
    evaluate,
    oracle_decompose,
    poly_div,
    proper_contributions,
    serialize,
    symbols,
)
from helpers import random_rational_spec, random_symbolic_spec

a, b, c = symbols("a b c")


def spec_of(l, *factors):
    return RationalFunctionSpec(l, tuple(factors))


# --- spec validation -----------------------------------------------------------


def test_spec_invariants():
    with pytest.raises(ValueError):
        spec_of(-1, (a, 1))
    with pytest.raises(ValueError):
        spec_of(0, (a, 0))
    with pytest.raises(ValueError):
        RationalFunctionSpec(0, ())
    # a root whose denominator is zero: 1/(a-b) + 1/(b-a) is a nonzero Sum
    with pytest.raises(ValueError, match="undefined"):
        spec_of(0, (1 / (1 / (a - b) + 1 / (b - a)), 1), (c, 1))
    # ... also under a second inversion, where it becomes a zero numerator
    with pytest.raises(ValueError, match="undefined"):
        spec_of(0, (1 / (c + 1 / (1 / (a - b) + 1 / (b - a))), 1), (c, 1))


def test_duplicate_roots_rejected():
    with pytest.raises(DuplicateRootError):
        spec_of(0, (a, 1), (a, 2))
    # equal only after canonicalization: (2a)/2 == a
    with pytest.raises(DuplicateRootError):
        spec_of(0, (a, 1), (2 * a / 2, 1))
    # equal only after expansion: a*(b+c) == a*b + a*c
    with pytest.raises(DuplicateRootError) as err:
        spec_of(0, (a * (b + c), 1), (a * b + a * c, 1))
    assert err.value.first == 0 and err.value.second == 1
    # equal rational functions: 1/(a-b) + 1/(a+b) == 2a/(a^2 - b^2)
    with pytest.raises(DuplicateRootError):
        spec_of(0, (1 / (a - b) + 1 / (a + b), 1), (2 * a / (a**2 - b**2), 1))


def test_distinct_roots_accepted():
    s = spec_of(0, (a, 1), (a + 1, 1), (2 * a, 2))
    assert s.denominator_degree == 4
    assert s.is_proper


# --- proper decomposition --------------------------------------------------------


def test_three_simple_poles_worked_example():
    spec = spec_of(0, (Constant(-1), 1), (Constant(-2), 1), (Constant(-3), 1))
    d = decompose(spec)
    assert d.monomials == ()
    assert [(p.pole_index, p.order, p.coefficient) for p in d.poles] == [
        (0, 1, Constant(Fraction(1, 2))),
        (1, 1, Constant(-1)),
        (2, 1, Constant(Fraction(1, 2))),
    ]


def test_single_factor_identity():
    d = decompose_proper(spec_of(0, (a, 1)))
    assert d.poles == (PoleTerm(0, 1, ONE),)
    assert d.monomials == ()


def test_single_factor_high_multiplicity_fixed_point():
    d = decompose(spec_of(0, (a, 5)))
    assert d.poles == (PoleTerm(0, 5, ONE),)


def test_two_factor_multiplicity_example():
    # x^2 / ((x-a)^2 (x-b)); coefficients known in closed form
    spec = spec_of(2, (a, 2), (b, 1))
    d = decompose_proper(spec)
    by_key = {(p.pole_index, p.order): p.coefficient for p in d.poles}
    assert set(by_key) == {(0, 1), (0, 2), (1, 1)}
    assert by_key[(0, 2)] == a**2 * (a - b) ** -1
    assert by_key[(1, 1)] == b**2 * (b - a) ** -2
    # the (a, 1) coefficient collects two contributions; check it by value
    # against the expected closed form (a^2 - 2ab)/(a-b)^2
    expected = (a**2 - 2 * a * b) * (a - b) ** -2
    for seed in range(10):
        rng = random.Random(seed)
        bind = {"a": Fraction(rng.randint(1, 99), 7), "b": Fraction(rng.randint(100, 199), 7)}
        assert evaluate(by_key[(0, 1)], bind) == evaluate(expected, bind)
    # and the whole decomposition against the numeric oracle
    mismatch_free = check_by_substitution(spec, d, trials=10, seed=99)
    assert mismatch_free.passed


def test_proper_requires_proper_input():
    with pytest.raises(ValueError):
        decompose_proper(spec_of(2, (a, 1), (b, 1)))
    with pytest.raises(ValueError):
        list(proper_contributions(spec_of(1, (a, 1))))


def test_contribution_count_matches_composition_enumeration():
    rng = random.Random(7)
    for _ in range(20):
        spec = random_symbolic_spec(rng, max_n=4, max_mult=3, numerator="proper")
        n = len(spec.factors)
        expected = 0
        for _, m_i in spec.factors:
            for comp in compositions(m_i - 1, n + 1):
                if comp[0] <= spec.numerator_degree:
                    expected += 1
        assert sum(1 for _ in proper_contributions(spec)) == expected
        # candidate count per factor is C(m_i - 1 + n, n) before pruning
        for _, m_i in spec.factors:
            assert sum(1 for _ in compositions(m_i - 1, n + 1)) == binomial(
                m_i - 1 + n, n
            )


def test_pole_orders_bounded_by_multiplicity():
    rng = random.Random(8)
    for _ in range(20):
        spec = random_symbolic_spec(rng, max_n=4, max_mult=3, numerator="any")
        d = decompose(spec)
        for p in d.poles:
            assert 1 <= p.order <= spec.multiplicities[p.pole_index]


# --- symbolic polynomial division -------------------------------------------------


def test_poly_div_cubic_by_linear():
    d = poly_div(ONE, 3, 1, a)
    assert d.monomials == (
        MonomialTerm(0, a**2),
        MonomialTerm(1, a),
        MonomialTerm(2, ONE),
    )
    assert d.poles == (PoleTerm(0, 1, a**3),)


def test_poly_div_linear_over_square():
    d = poly_div(ONE, 1, 2, a)
    assert d.monomials == ()
    assert d.poles == (PoleTerm(0, 1, ONE), PoleTerm(0, 2, a))


def test_poly_div_already_decomposed():
    d = poly_div(ONE, 0, 3, a)
    assert d.monomials == ()
    assert d.poles == (PoleTerm(0, 3, ONE),)


def test_poly_div_scales_by_coefficient():
    d = poly_div(b, 1, 2, a)
    assert d.poles == (PoleTerm(0, 1, b), PoleTerm(0, 2, a * b))


def test_poly_div_against_long_division():
    # independent oracle: dense polynomial long division with numeric roots
    from partfrac import DensePolynomial

    rng = random.Random(31)
    for _ in range(40):
        p = rng.randint(0, 8)
        q = rng.randint(1, 4)
        root = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        d = poly_div(ONE, p, q, Constant(root))
        divisor = DensePolynomial((Fraction(1),))
        for _ in range(q):
            divisor = divisor * DensePolynomial.linear_factor(root)
        quotient, remainder = divmod(DensePolynomial.monomial(p), divisor)
        got_quotient = {m.degree: m.coefficient.value for m in d.monomials}
        want_quotient = {
            i: coeff
            for i, coeff in enumerate(quotient.coefficients)
            if coeff != 0
        }
        assert got_quotient == want_quotient
        # remainder check by evaluation: sum of pole terms == remainder/divisor
        for x in (Fraction(7, 2), Fraction(-13, 3)):
            if x == root:
                continue
            pole_value = sum(
                (p_.coefficient.value * (x - root) ** -p_.order for p_ in d.poles),
                Fraction(0),
            )
            assert pole_value == remainder(x) / divisor(x)


def test_poly_div_validation():
    with pytest.raises(ValueError):
        poly_div(ONE, -1, 1, a)
    with pytest.raises(ValueError):
        poly_div(ONE, 0, 0, a)


# --- full decomposition (improper route) -------------------------------------------


def test_improper_single_factor_long_division():
    d = decompose(spec_of(3, (a, 1)))
    assert d.monomials == (
        MonomialTerm(0, a**2),
        MonomialTerm(1, a),
        MonomialTerm(2, ONE),
    )
    assert d.poles == (PoleTerm(0, 1, a**3),)


def test_proper_passthrough():
    spec = spec_of(2, (a, 2), (b, 2))
    assert decompose(spec) == decompose_proper(spec)


def test_improper_two_factors_quotient_is_one():
    spec = spec_of(2, (a, 1), (b, 1))
    d = decompose(spec)
    assert [m.degree for m in d.monomials] == [0]
    # the constant quotient collects to the value 1 for any distinct roots
    for seed in range(10):
        rng = random.Random(seed)
        bind = {"a": Fraction(rng.randint(1, 500)), "b": Fraction(rng.randint(501, 999))}
        assert evaluate(d.monomials[0].coefficient, bind) == 1
    by_key = {(p.pole_index, p.order): p.coefficient for p in d.poles}
    assert by_key[(0, 1)] == a**2 * (a - b) ** -1
    assert by_key[(1, 1)] == b**2 * (b - a) ** -1


def test_improper_rational_roots_structural_quotient():
    # with all-rational roots everything folds: quotient of x^4 by
    # (x-1)(x-2) is x^2 + 3x + 7 with remainder poles at 1 and 2
    spec = spec_of(4, (Constant(1), 1), (Constant(2), 1))
    d = decompose(spec)
    assert {m.degree: m.coefficient for m in d.monomials} == {
        0: Constant(7),
        1: Constant(3),
        2: ONE,
    }
    assert {(p.pole_index, p.order): p.coefficient for p in d.poles} == {
        (0, 1): Constant(-1),
        (1, 1): Constant(16),
    }


def test_improper_shape_and_reconstruction():
    rng = random.Random(1234)
    for _ in range(15):
        spec = random_symbolic_spec(rng, max_n=3, max_mult=2, numerator="improper")
        d = decompose(spec)
        l, m = spec.numerator_degree, spec.denominator_degree
        assert d.monomials and d.monomials[-1].degree == l - m
        assert check_by_substitution(spec, d, trials=3, seed=rng.randint(0, 9999),
                                     points_per_trial=3).passed


def test_reconstruction_identity_symbolic():
    rng = random.Random(4321)
    for _ in range(15):
        spec = random_symbolic_spec(rng, max_n=4, max_mult=3, numerator="any")
        d = decompose(spec)
        report = check_by_substitution(spec, d, trials=3, seed=rng.randint(0, 9999),
                                       points_per_trial=3)
        assert report.passed, str(report)


def test_agreement_with_oracle_on_rational_roots():
    rng = random.Random(5678)
    for _ in range(40):
        spec = random_rational_spec(rng, max_n=4, max_mult=3, numerator="proper")
        d = decompose(spec)
        reference = oracle_decompose(
            spec.numerator_degree,
            [root.value for root in spec.roots],
            list(spec.multiplicities),
        )
        assert d.poles == reference.poles
        assert d.monomials == ()


def test_decompose_is_deterministic():
    rng = random.Random(99)
    spec = random_symbolic_spec(rng, max_n=4, max_mult=3)
    assert decompose(spec) == decompose(spec)
    assert serialize(decompose(spec)) == serialize(decompose(spec))


# --- batch decomposition -------------------------------------------------------------


def test_batch_cancellation():
    spec = spec_of(0, (a, 1), (b, 1))
    d = decompose_batch([(ONE, spec), (Constant(-1), spec)])
    assert d.monomials == () and d.poles == ()


def test_batch_scalar_multiple():
    spec = spec_of(0, (Constant(-1), 1), (Constant(-2), 1))
    d = decompose_batch([(Constant(2), spec)])
    assert [(p.order, p.coefficient) for p in d.poles] == [
        (1, Constant(2)),
        (1, Constant(-2)),
    ]


def test_batch_disjoint_merge():
    d = decompose_batch(
        [(ONE, spec_of(0, (a, 1))), (ONE, spec_of(0, (b, 1)))]
    )
    assert d.roots == (a, b)
    assert d.poles == (PoleTerm(0, 1, ONE), PoleTerm(1, 1, ONE))


def test_batch_merges_shared_roots_across_specs():
    d = decompose_batch(
        [(ONE, spec_of(0, (a, 1), (b, 1))), (ONE, spec_of(0, (a, 1), (c, 1)))]
    )
    # pole at a receives 1/(a-b) + 1/(a-c)
    pole_a = [p for p in d.poles if d.roots[p.pole_index] == a]
    assert len(pole_a) == 1
    assert pole_a[0].coefficient == (a - b) ** -1 + (a - c) ** -1


def test_batch_symbolic_weights():
    spec = spec_of(0, (a, 1))
    d = decompose_batch([(b, spec), (c, spec)])
    assert d.poles == (PoleTerm(0, 1, b + c),)


def test_improper_rational_reconstruction():
    rng = random.Random(777)
    for _ in range(10):
        spec = random_rational_spec(rng, max_n=3, max_mult=2, numerator="improper")
        d = decompose(spec)
        # exact check at a few x points avoiding the poles
        roots = [root.value for root in spec.roots]
        for k in range(4):
            x = Fraction(1000 + k, 7)
            if x in roots:
                continue
            lhs = x**spec.numerator_degree
            for r, m in zip(roots, spec.multiplicities):
                lhs *= (x - r) ** -m
            rhs = sum(
                (m.coefficient.value * x**m.degree for m in d.monomials),
                Fraction(0),
            ) + sum(
                (
                    p.coefficient.value * (x - roots[p.pole_index]) ** -p.order
                    for p in d.poles
                ),
                Fraction(0),
            )
            assert lhs == rhs
