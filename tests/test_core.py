import random
from collections import Counter
from fractions import Fraction
from itertools import permutations
from math import lcm

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from partfrac import (
    ONE,
    ZERO,
    Constant,
    Decomposition,
    DuplicateRootError,
    MonomialTerm,
    OutputFormat,
    PoleTerm,
    Power,
    Product,
    RationalFunctionSpec,
    binomial,
    check_by_substitution,
    collect,
    compare_with_oracle,
    compositions,
    decompose,
    decompose_batch,
    decompose_proper,
    evaluate,
    oracle_decompose,
    poly_div,
    product_of,
    proper_contributions,
    serialize,
    Sum,
    Symbol,
    expand,
    symbols,
)
from partfrac import core, expr, oracle, output
from partfrac.core import MAX_EXPANDED_TERMS, MAX_OUTPUT_TERMS, _expanded_terms
from helpers import MIXED_ROOTS, random_rational_spec, random_symbolic_spec, roots23_spec
from test_expr import _canonical_or_skip, _shared_dag, raw_trees

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
    # non-integral degrees and multiplicities are refused, not truncated
    with pytest.raises(TypeError):
        spec_of(0, (a, 2.7), (b, 1))
    with pytest.raises(TypeError):
        spec_of(1.5, (a, 1))
    with pytest.raises(TypeError, match="root must be an Expr"):
        spec_of(0, (a, 1), (2, 1))
    assert spec_of(True, (a, True)) == spec_of(1, (a, 1))
    # a root whose denominator is zero: 1/(a-b) + 1/(b-a) is a nonzero Sum
    with pytest.raises(ValueError, match="undefined"):
        spec_of(0, (1 / (1 / (a - b) + 1 / (b - a)), 1), (c, 1))
    # ... also under a second inversion, where it becomes a zero numerator
    with pytest.raises(ValueError, match="undefined"):
        spec_of(0, (1 / (c + 1 / (1 / (a - b) + 1 / (b - a))), 1), (c, 1))


def test_coefficients_too_large_to_expand_are_refused_up_front():
    # (a + 1)^100000 is a valid root, but multiplying it out would take
    # hours: --expand refuses before it expands any coefficient, whether the
    # power is in a coefficient or, inverted, in the base of one
    expanded = OutputFormat(expand_coefficients=True)
    for root in ((a + 1) ** 100000, 1 / (c + (a + 1) ** 100000), b * (a + b + c) ** 40):
        d = decompose(spec_of(1, (root, 1), (b + 1, 1)))
        serialize(d)
        with pytest.raises(ValueError, match=f"more than {MAX_EXPANDED_TERMS} terms"):
            serialize(d, expanded)
    d = decompose(spec_of(1, ((a + b + c) ** 30, 1), ((a - 1) ** 3 / (b + 2) ** 2, 2)))
    serialize(d, expanded)  # 496 terms


def test_output_size_is_bounded_up_front():
    for l, m in ((99999999, 1), (0, 99999999), (MAX_OUTPUT_TERMS, 1)):
        with pytest.raises(ValueError, match=f"more than {MAX_OUTPUT_TERMS}"):
            spec_of(l, (a, m))
    spec_of(MAX_OUTPUT_TERMS - 1, (a, 1))
    spec_of(0, (a, MAX_OUTPUT_TERMS))


def _term_count(e):
    return len(e.terms) if isinstance(e, Sum) else 1


@settings(max_examples=150)
@given(raw_trees)
def test_expanded_term_estimate_is_an_upper_bound(tree):
    e = _canonical_or_skip(tree)
    try:
        assert _term_count(expand(e)) <= _expanded_terms(e)
    except ValueError:
        return
    for node in _power_nodes([e]):
        if node.exponent < 0:
            assert _term_count(expand(node.base)) <= _expanded_terms(node.base)


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


def test_root_containing_x_rejected():
    x = symbols("x")[0]
    for root in (x, a + x, 1 / (a - x), (b * x) ** 2):
        with pytest.raises(ValueError, match="root 2 contains the decomposition variable 'x'"):
            spec_of(0, (a, 1), (root, 1))


def test_distinct_roots_accepted():
    s = spec_of(0, (a, 1), (a + 1, 1), (2 * a, 2))
    assert s.denominator_degree == 4
    assert s.is_proper


def test_roots_whose_constants_vanish_mod_a_fixed_prime_are_accepted():
    # these denominators are 0 mod 2^61 - 1, the first trial's prime; the
    # later trials' primes are drawn from the spec, so no constant can be
    # built against them
    for denominator in (2**61 - 1, (2**61 - 1) * (2**89 - 1) * (2**107 - 1)):
        spec = spec_of(0, (1 / Constant(denominator), 1), (a, 1))
        assert spec.roots[0] == Constant(Fraction(1, denominator))


def test_roots_holding_integers_too_long_for_decimal_are_accepted():
    # the spec seeds its root check without converting any int to decimal
    huge = Constant(10**8000)  # 8001 digits, past the default 4300-digit limit
    for root in (huge, huge * a + Fraction(1, 3) * huge):
        spec = spec_of(0, (root, 1), (b, 1))
        d = decompose(spec)
        assert [(t.pole_index, t.order) for t in d.poles] == [(0, 1), (1, 1)]
        assert d.poles[0].coefficient == 1 / (root - b)


@settings(max_examples=150)
@given(raw_trees)
def test_roots_equal_as_rational_functions_are_refused(tree):
    e = _canonical_or_skip(tree)
    try:
        spec_of(0, (e, 1))
    except ValueError:
        assume(False)  # e divides by zero
    with pytest.raises(DuplicateRootError):
        spec_of(0, (e, 1), (expand(e), 1))
    spec_of(0, (e, 1), (e + 1, 1))


def test_distinct_roots_need_one_trial(monkeypatch):
    drawn = []
    real = core._random_prime
    monkeypatch.setattr(core, "_random_prime", lambda rng: drawn.append(1) or real(rng))
    roots = symbols(" ".join(f"a{i}" for i in range(80)))
    spec_of(0, *((root, 1) for root in roots))
    assert drawn == []
    with pytest.raises(DuplicateRootError):
        spec_of(0, *((root, 1) for root in roots), (roots[0], 1))
    assert len(drawn) == 3


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


def _series_count(spec):
    """The composition tuples of the symbolic pole path: one series of the
    differences per pole, sum_i C(m_i + n - 2, n - 1), and none for a single
    root, which has no difference."""
    n = len(spec.factors)
    return sum(binomial(m_i + n - 2, n - 1) for m_i in spec.multiplicities) if n > 1 else 0


def test_contribution_count_matches_composition_enumeration(monkeypatch):
    rng = random.Random(7)
    taken = []
    real = core.compositions
    monkeypatch.setattr(core, "compositions", lambda m, k: _counted(real(m, k), taken))
    for _ in range(20):
        spec = random_symbolic_spec(rng, max_n=4, max_mult=3, numerator="proper")
        n = len(spec.factors)
        expected = 0
        for _, m_i in spec.factors:
            for comp in real(m_i - 1, n + 1):
                if comp[0] <= spec.numerator_degree:
                    expected += 1
        taken.clear()
        coefficients = list(proper_contributions(spec))
        # one coefficient per key; every pole of Symbol roots is direct, so
        # each coefficient's summands are its contributions
        assert len({(i, order) for i, order, _ in coefficients}) == len(coefficients)
        assert sum(len(_summands(c)) for _, _, c in coefficients) == expected
        # the contributions come from one series of the differences per
        # pole, in n - 1 parts, shared by every order; nothing is pruned
        assert len(taken) == _series_count(spec)
        assert all(len(comp) == n - 1 for comp in taken)


def test_a_pole_series_serves_every_order_and_degree(monkeypatch):
    # x^0 / ((x-a)(x-b)(x-c)(x-d))^11: one series per pole, 4 * C(13, 3)
    # tuples, shared by all 11 orders and by every degree
    d = Symbol("d")
    spec = spec_of(0, (a, 11), (b, 11), (c, 11), (d, 11))
    taken = []
    real = core.compositions
    monkeypatch.setattr(core, "compositions", lambda m, k: _counted(real(m, k), taken))
    assert len(decompose(spec).poles) == 44
    assert len(taken) == _series_count(spec) == 4 * 286 == 1144
    taken.clear()
    list(core._pole_contributions(spec, (0, 3, 40, 41)))
    assert len(taken) == 1144


def _contributions_by_product_of(spec, degrees, residues_only):
    """The closed formula's contributions, each built by product_of."""
    roots, mults, n = spec.roots, spec.multiplicities, len(spec.factors)
    for i, a_i in enumerate(roots):
        others = [k for k in range(n) if k != i]
        for comp in compositions(mults[i] - 1, n + 1):
            j_num, j_pole = comp[0], comp[1]
            if residues_only and j_pole:
                continue
            rest = 1
            for k, j_k in zip(others, comp[2:]):
                rest *= binomial(mults[k] + j_k - 1, j_k) * (-1) ** j_k
            for l in degrees:
                scale = binomial(l, j_num) * rest
                if scale:
                    parts = [(a_i - roots[k]) ** -(mults[k] + j_k)
                             for k, j_k in zip(others, comp[2:])]
                    yield l, i, j_pole + 1, product_of([scale, a_i ** (l - j_num), *parts])


def _quotient_by_product_of(spec):
    """The quotient's monomials, each expanded-form term built by product_of,
    switching to the residue form where _quotient_contributions does."""
    l, m, n = spec.numerator_degree, spec.denominator_degree, len(spec.factors)
    residue_cost = 2 * (n + 1) * sum(binomial(m_k + n - 2, n - 1) for m_k in spec.multiplicities)
    j = 0
    while j <= l - m and binomial(j + n - 1, n - 1) * (min(j, n) + 1) <= residue_cost:
        for comp in compositions(j, n):
            scale, parts = 1, []
            for (a_k, m_k), c_k in zip(spec.factors, comp):
                scale *= binomial(m_k + c_k - 1, c_k)
                parts.append(a_k**c_k)
            yield MonomialTerm(l - m - j, product_of([scale, *parts]))
        j += 1
    for k, _, _, coefficient in _contributions_by_product_of(spec, range(j + m - 1, l), True):
        yield MonomialTerm(l - 1 - k, coefficient)


def _by_key(contributions):
    """Raw (l, pole_index, order, coefficient) contributions grouped by
    key, each group in the order given."""
    groups = {}
    for l, i, order, c in contributions:
        groups.setdefault((l, i, order), []).append(c)
    return groups


def _by_degree(monomials):
    """Raw monomials grouped by degree, each group in the order given."""
    groups = {}
    for t in monomials:
        groups.setdefault(t.degree, []).append(t.coefficient)
    return groups


def _summed(groups):
    """Each group's sum by _make_sum, the groups that sum to 0 left out."""
    sums = {key: expr._make_sum(terms) for key, terms in groups.items()}
    return {key: total for key, total in sums.items() if total != ZERO}


def _summands(c):
    """The terms of a Sum, or the one term that is not a Sum."""
    return c.terms if isinstance(c, Sum) else (c,)


def _count(coefficients):
    """The number of contributions in _pole_contributions' coefficients when
    every key is direct: the summands of each, as no two merged."""
    return sum(len(_summands(c)) for _, _, _, c in coefficients)


def _counted(items, taken):
    """Yield ``items``, appending each to ``taken``."""
    for item in items:
        taken.append(item)
        yield item


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 10), st.integers(1, 3)), min_size=1, max_size=5,
             unique_by=lambda pair: pair[0]),
    st.lists(st.integers(0, 20), min_size=1, max_size=3, unique=True),
    st.booleans(),
)
@example([(0, 3)], [0, 1, 5], False)
def test_pole_contributions_equal_their_product_of_form(factors, degrees, residues_only):
    # symbols, sums, differences, scaled symbols, rationals and zero, alone
    # or mixed; the distinct degrees make proper and improper numerators.
    # Every root kind yields one coefficient per key, the _make_sum of the
    # key's product_of terms, and a key that sums to 0 not at all
    spec = spec_of(0, *((MIXED_ROOTS[r], m) for r, m in factors))
    got = list(core._pole_contributions(spec, degrees, residues_only))
    sums = {(l, i, order): c for l, i, order, c in got}
    assert len(sums) == len(got)  # one coefficient per key
    assert sums == _summed(_by_key(_contributions_by_product_of(spec, degrees, residues_only)))
    for l in degrees:
        spec = spec_of(l, *spec.factors)
        monomials = list(core._quotient_contributions(spec))
        quotient = {t.degree: t.coefficient for t in monomials}
        assert len(quotient) == len(monomials)  # one coefficient per degree
        assert quotient == _summed(_by_degree(_quotient_by_product_of(spec)))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 10), st.integers(1, 3)), min_size=1, max_size=4,
             unique_by=lambda pair: pair[0]),
    st.integers(0, 16),
)
def test_each_pole_coefficient_is_the_make_sum_of_its_contributions(factors, l):
    # every key is summed where it is enumerated: a direct pole's terms by
    # one sort, the others' by _make_sum; both must be the general merge
    spec = spec_of(l, *((MIXED_ROOTS[r], m) for r, m in factors))
    want = {}
    for (_, i, order), terms in _by_key(_contributions_by_product_of(spec, [l], False)).items():
        total = expr._make_sum(terms)
        if total != ZERO:
            want[i, order] = total
    assert {(t.pole_index, t.order): t.coefficient for t in decompose(spec).poles} == want


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(st.fractions(-30, 30, max_denominator=8), st.integers(1, 4)),
             min_size=1, max_size=5, unique_by=lambda pair: pair[0]),
    st.integers(0, 40),
)
@example([(Fraction(0), 1), (Fraction(1), 12)], 0)
@example([(Fraction(0), 1), (Fraction(1), 12)], 26)
@example([(Fraction(1), 12), (Fraction(0), 1)], 17)
@example([(Fraction(0), 3), (Fraction(-2, 3), 2), (Fraction(5, 7), 1)], 9)
def test_constant_root_sums_equal_the_make_sum_of_their_compositions(factors, l):
    # distinct rational roots, proper and improper (l in [0, 2m]): every pole
    # coefficient and every quotient coefficient is the merge of its
    # product_of terms; the examples have skewed multiplicities and a root 0
    m = sum(mult for _, mult in factors)
    spec = spec_of(l % (2 * m + 1), *((Constant(r), k) for r, k in factors))
    d = decompose(spec)
    poles = _summed(_by_key(_contributions_by_product_of(spec, [spec.numerator_degree], False)))
    assert {(t.pole_index, t.order): t.coefficient for t in d.poles} == {
        (i, order): total for (_, i, order), total in poles.items()
    }
    quotient = _summed(_by_degree(_quotient_by_product_of(spec)))
    assert {t.degree: t.coefficient for t in d.monomials} == quotient


def _naive_series(cs, mults, count):
    """[t^j] prod_k (1 - c_k t)^-(m_k), j < count, as Fractions: the Cauchy
    product of the binomial series sum_j C(m_k + j - 1, j) c_k^j t^j."""
    series = [Fraction(int(j == 0)) for j in range(count)]
    for c_k, m_k in zip(cs, mults):
        factor = [binomial(m_k + j - 1, j) * c_k**j for j in range(count)]
        series = [sum(series[d - j] * factor[j] for j in range(d + 1)) for d in range(count)]
    return series


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.integers(-20, 20), st.integers(-9, 9).filter(bool),
                       st.integers(1, 4)), max_size=4),
    st.integers(-3, 12),
)
@example([(0, 1, 3), (-5, 2, 1)], 6)
@example([(3, -4, 2), (-1, 6, 1), (7, 1, 1)], 0)
@example([], 4)
def test_series_is_the_cauchy_product_of_binomial_series(factors, count):
    # c_k = r_k/s_k, zero and negative included, s_k of either sign
    cs = [(r, s) for r, s, _ in factors]
    mults = [m for _, _, m in factors]
    Q, h = core._series(cs, mults, count)
    assert Q == lcm(*(s for _, s in cs))
    naive = _naive_series([Fraction(r, s) for r, s in cs], mults, count)
    assert h == [Q**j * h_j for j, h_j in enumerate(naive)]
    assert all(type(h_j) is int for h_j in h)


def test_one_series_routine_serves_constant_poles_and_quotients(monkeypatch):
    calls = []
    real = core._series
    monkeypatch.setattr(core, "_series", lambda *args: calls.append(args[2]) or real(*args))
    third = Constant(Fraction(1, 3))
    # one call per pole, for every degree of the batch, and one per quotient
    decompose(spec_of(9, (third, 2), (Constant(-2), 3)))
    assert calls == [2, 3, 5]
    # a single root's quotient keeps the powers of its root
    calls.clear()
    decompose(spec_of(40, (Constant(Fraction(-7, 6)), 3)))
    assert calls == [3]
    calls.clear()
    assert len(list(core._quotient_contributions(spec_of(40, (third, 3))))) == 38
    assert calls == []


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
    # independent oracle: integer long division and a fraction-free linear
    # solve, sharing no code with the engine, check every coefficient exactly
    rng = random.Random(31)
    for _ in range(40):
        p = rng.randint(0, 8)
        q = rng.randint(1, 4)
        root = Constant(Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
        d = poly_div(ONE, p, q, root)
        assert compare_with_oracle(RationalFunctionSpec(p, ((root, q),)), d) is None


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


def _has_negative_power(e):
    if isinstance(e, Power):
        return e.exponent < 0 or _has_negative_power(e.base)
    children = e.terms if isinstance(e, Sum) else e.factors if isinstance(e, Product) else ()
    return any(map(_has_negative_power, children))


def test_leading_quotient_coefficients_are_polynomials_in_the_roots():
    # x^3 / ((x-a)(x-b)) = x + (a + b) + poles
    d = decompose(spec_of(3, (a, 1), (b, 1)))
    assert d.monomials == (MonomialTerm(0, a + b), MonomialTerm(1, ONE))
    # h_0, h_1 and h_2 always come from the expanded composition sum
    specs = [spec_of(5, (a + b, 2), (a - b, 1)), spec_of(9, (a, 2), (b, 1), (2 * c + 1, 3))]
    rng = random.Random(2468)
    specs += [random_symbolic_spec(rng, max_n=4, max_mult=3, numerator="improper")
              for _ in range(10)]
    for spec in specs:
        top = spec.numerator_degree - spec.denominator_degree
        by_degree = {t.degree: t.coefficient for t in decompose(spec).monomials}
        assert by_degree[top] == ONE
        if top >= 1:
            assert by_degree[top - 1] == sum((m * r for r, m in spec.factors), Constant(0))
        for degree in range(max(0, top - 2), top + 1):
            assert not _has_negative_power(by_degree[degree]), (spec, degree)


def test_deep_quotient_coefficients_stay_linear_in_the_roots():
    # x^43 / ((x-a)(x-b)(x-c)): expanded, h_j would have C(j+2, 2) terms;
    # from h_3 on the residue form gives at most one term per root
    spec = spec_of(43, (a, 1), (b, 1), (c, 1))
    d = decompose(spec)
    assert [t.degree for t in d.monomials] == list(range(41))
    for mono in d.monomials:
        if mono.degree <= 37:
            assert isinstance(mono.coefficient, Sum) and len(mono.coefficient.terms) == 3
    assert check_by_substitution(spec, d, trials=3, seed=5).passed
    rational = spec_of(40, (Constant(1), 2), (Constant(Fraction(-1, 2)), 1), (Constant(3), 1))
    assert compare_with_oracle(rational, decompose(rational)) is None


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


def test_batch_refuses_a_weight_that_contains_x():
    spec = spec_of(0, (a, 1), (b, 1))
    x = Symbol("x")
    for weight in (x, 2 * x, a * x**-1 + b):
        with pytest.raises(ValueError, match="weight of term 2 contains .* variable 'x'"):
            decompose_batch([(ONE, spec), (weight, spec)])
    # a longer name that starts with x is another symbol
    xa = Symbol("xa")
    assert decompose_batch([(xa, spec)]).poles[0].coefficient == xa * (a - b) ** -1


def test_batch_checks_every_weight_before_any_work(monkeypatch):
    spec = spec_of(0, (a, 1), (b, 1))
    calls = []
    real = core._pole_contributions
    monkeypatch.setattr(core, "_pole_contributions", lambda *args: calls.append(1) or real(*args))
    for weight in (1.5, "w", None, [a]):
        with pytest.raises(TypeError, match="weight of term 3 must be an Expr, int or Fraction"):
            decompose_batch([(ONE, spec), (2, spec), (weight, spec)])
    with pytest.raises(ValueError, match="weight of term 2 contains"):
        decompose_batch([(ONE, spec), (Symbol("x"), spec), (1.5, spec)])
    # a spec is itself a pair, (numerator_degree, factors), so each term's shape is checked
    for term in (spec, (1, (1, ((a, 1),))), (ONE, spec, ONE), (spec,), None, "ab"):
        with pytest.raises(TypeError, match=r"term 2 must be a \(weight, spec\) pair"):
            decompose_batch([(ONE, spec), term])
    assert calls == []
    assert decompose_batch([(2, spec), (Fraction(1, 2), spec)]) == decompose_batch(
        [(Constant(Fraction(5, 2)), spec)]
    )


def _batch_by_decompose(terms):
    """decompose_batch's result, merged from one decompose per term."""
    index, monomials, poles = {}, [], []
    for weight, spec in terms:
        d = decompose(spec)
        monomials += [MonomialTerm(t.degree, weight * t.coefficient) for t in d.monomials]
        for t in d.poles:
            pos = index.setdefault(d.roots[t.pole_index], len(index))
            poles.append(PoleTerm(pos, t.order, weight * t.coefficient))
    return collect(Decomposition(tuple(index), monomials, poles))


BATCH_WEIGHTS = (1, -2, Fraction(3, 4), Constant(Fraction(-1, 3)), a, a + b, b - 2 * c, a * b)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.tuples(st.integers(0, 10), st.integers(1, 3)), min_size=1, max_size=3,
                 unique_by=lambda pair: pair[0]),
        min_size=1, max_size=3,
    ),
    st.lists(st.tuples(st.integers(0, 2), st.integers(0, 12), st.sampled_from(BATCH_WEIGHTS),
                       st.integers(0, 5)),
             min_size=1, max_size=8),
)
def test_grouped_batch_equals_per_spec_decompose(denominators, terms):
    # denominators from MIXED_ROOTS, rational roots among them, each member
    # with its factors in one of their orders; the degrees repeat and make
    # proper and improper members of a group
    orders = [list(permutations((MIXED_ROOTS[r], m) for r, m in f)) for f in denominators]
    batch = []
    for d, l, w, p in terms:
        factors = orders[d % len(orders)]
        batch.append((w, RationalFunctionSpec(l, factors[p % len(factors)])))
    assert decompose_batch(batch) == _batch_by_decompose(batch)


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


# --- exact arithmetic stays in C -------------------------------------------------


@pytest.fixture
def fraction_calls(monkeypatch):
    """Counts of the Python-level Fraction methods ``__eq__``, ``__hash__``
    and ``__pow__``."""
    calls = Counter()
    for name in ("__eq__", "__hash__", "__pow__"):
        def counted(*args, _name=name, _method=getattr(Fraction, name)):
            calls[_name] += 1
            return _method(*args)

        monkeypatch.setattr(Fraction, name, counted)
    return calls


def _power_nodes(exprs):
    """Distinct Power nodes at any depth, by a walk written for the test."""
    found, stack = set(), list(exprs)
    while stack:
        e = stack.pop()
        if isinstance(e, Power):
            found.add(e)
            stack.append(e.base)
        elif isinstance(e, (Sum, Product)):
            stack.extend(e.terms if isinstance(e, Sum) else e.factors)
    return found


def test_integral_coefficients_make_no_python_level_fraction_calls(fraction_calls, monkeypatch):
    rng = random.Random(12)
    mults = [3, 3, 3] + [1] * 9
    rng.shuffle(mults)
    roots = [Symbol(f"a{i + 1}") for i in range(12)]
    spec = RationalFunctionSpec(rng.randint(0, sum(mults) - 1), tuple(zip(roots, mults)))
    batch = [
        (w, RationalFunctionSpec(l, tuple(zip(roots[:3], (5, 7, 11)))))
        for w, l in ((1, 0), (-2, 9), (3, 22), (5, 30))
    ]
    d = decompose(spec)
    decompose_batch(batch)
    assert fraction_calls["__eq__"] == 0 and fraction_calls["__hash__"] == 0
    assert len(d.poles) == 9 + 3 * 3

    # one substitution trial raises each distinct Power node once, mod p,
    # and never makes a Fraction; the prime is fixed, so the count holds no
    # pow of the prime search, which lives in expr too
    monkeypatch.setattr(oracle, "_random_prime", lambda rng: (1 << 61) - 1)
    raised = []
    monkeypatch.setattr(
        expr, "pow", lambda *args: raised.append(args) or pow(*args), raising=False
    )
    report = check_by_substitution(spec, d, trials=1, seed=5)
    assert report.passed
    coefficients = [t.coefficient for t in (*d.monomials, *d.poles)]
    powers = _power_nodes([*spec.roots, *coefficients])
    assert len(raised) == len(powers) and fraction_calls["__pow__"] == 0

    # a^2 is reached through both (a^2 + b)^-2 and (a^2 + b)^-3, and each
    # level of the shared DAG reaches the one below twice
    for factors in (
        (((a**2 + b) ** -2, 2), ((a**2 + b) ** -3, 1), (c, 1)),
        ((_shared_dag(12), 1), (c, 2)),
    ):
        spec = RationalFunctionSpec(1, factors)
        d = decompose(spec)
        raised.clear()
        assert check_by_substitution(spec, d, trials=1, seed=5).passed
        powers = _power_nodes([*spec.roots, *(t.coefficient for t in (*d.monomials, *d.poles))])
        assert len(raised) == len(powers) and fraction_calls["__pow__"] == 0
    assert len(powers) == 2 * 12 + 3  # the DAG's, and 3 of a root difference


# --- repeated work stays out --------------------------------------------------------


def test_symbol_root_contributions_are_built_without_product_of(monkeypatch):
    spec = roots23_spec()
    calls = []
    real = expr._make_product
    monkeypatch.setattr(expr, "_make_product", lambda fs: calls.append(1) or real(fs))
    assert _count(core._pole_contributions(spec, (0,))) == 1123
    # one call per root, to negate it once; none per difference, contribution
    # or key sum
    assert len(calls) == 23


def test_symbol_differences_are_built_without_make_sum(monkeypatch):
    spec = roots23_spec()
    calls = []
    real = expr._make_sum
    monkeypatch.setattr(expr, "_make_sum", lambda ts: calls.append(1) or real(ts))
    assert _count(core._pole_contributions(spec, (0,))) == 1123
    assert calls == []
    # Symbol and rational roots: only a Symbol less a Symbol is built
    # directly; the differences at the three rational poles, 5 each, and
    # those of the three Symbol poles to the three rational roots go
    # through _make_sum
    mixed = spec_of(2, (a, 2), (Constant(3), 1), (b, 1), (Constant(0), 2),
                    (Constant(Fraction(-1, 2)), 1), (c, 1))
    summed = []
    real_key_sum = core._key_sum
    monkeypatch.setattr(core, "_key_sum", lambda ts, d: summed.extend(ts) or real_key_sum(ts, d))
    list(core._pole_contributions(mixed, (2,)))
    assert len(calls) == 3 * 5 + 3 * 3
    assert len(summed) == sum(1 for _ in _contributions_by_product_of(mixed, (2,), False))


def test_symbol_root_quotient_terms_are_built_without_product_of(monkeypatch):
    spec = spec_of(40, (a, 5), (b, 7), (c, 11))
    calls = []
    real = expr._make_product
    monkeypatch.setattr(expr, "_make_product", lambda fs: calls.append(1) or real(fs))
    # all 18 quotient coefficients take the expanded form: C(20, 3) terms,
    # none of which merge, summed into one coefficient per degree
    monomials = list(core._quotient_contributions(spec))
    assert [t.degree for t in monomials] == list(range(17, -1, -1))
    assert sum(len(_summands(t.coefficient)) for t in monomials) == binomial(20, 3) == 1140
    assert calls == []


def test_constant_roots_are_summed_without_compositions_or_product_of(monkeypatch):
    factors = tuple((Constant(Fraction(k, 3)), 4) for k in range(1, 13))  # 12 roots, m = 48
    proper, improper = spec_of(30, *factors), spec_of(60, *factors)
    members = [spec_of(l, *factors) for l in (0, 7, 47, 48, 60)]
    members += [spec_of(l, *factors[::-1]) for l in (7, 52)]
    calls = []
    for module, name in ((expr, "_make_product"), (core, "compositions")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, name=name, real=real: calls.append(name)
                            or real(*args))
    real_new = expr.Power.__new__
    monkeypatch.setattr(expr.Power, "__new__", lambda *args: calls.append("Power")
                        or real_new(*args))
    d = decompose(proper)
    assert len(d.poles) == 48 and not d.monomials
    d = decompose(improper)
    assert len(d.monomials) == 13
    assert calls == []
    # a batch multiplies each term of each member by its weight, and makes
    # no other product
    shared = core._decompose_shared(members)
    assert calls == []
    decompose_batch([(Symbol(f"w{k}"), spec) for k, spec in enumerate(members)])
    assert calls == ["_make_product"] * sum(
        len(member.poles) + len(member.monomials) for member in shared.values()
    )


def test_batch_enumerates_a_shared_denominator_once(monkeypatch):
    # the proper_symbolic batch: w_l * x^l / ((x-a)^5 (x-b)^7 (x-c)^11), l = 0..22
    factors = ((a, 5), (b, 7), (c, 11))
    terms = [(Symbol(f"w{l}"), RationalFunctionSpec(l, factors)) for l in range(23)]
    calls, taken = [], []
    real = core.compositions
    monkeypatch.setattr(
        core, "compositions", lambda m, k: calls.append((m, k)) or _counted(real(m, k), taken)
    )
    d = decompose_batch(terms)
    # one series per pole, [t^r] for r < m_i over the 2 other differences,
    # serving every order and degree: 15 + 28 + 66 tuples
    per_pole = [(r, 2) for m_i in (5, 7, 11) for r in range(m_i)]
    assert calls == per_pole and len(taken) == 109
    # five members in each of two factor orders, with equal degrees across
    # the orders, or one member: still one series per pole
    mixed = terms[:5] + [(Symbol(f"v{l}"), RationalFunctionSpec(l, factors[::-1]))
                         for l in range(5)]
    for batch in (mixed, terms[:1]):
        calls.clear()
        taken.clear()
        decompose_batch(batch)
        assert calls == per_pole and len(taken) == 109
    monkeypatch.setattr(core, "compositions", real)
    assert d == _batch_by_decompose(terms)
    assert decompose_batch(mixed) == _batch_by_decompose(mixed)
    # each member keeps its poles in its own factor order
    assert decompose_batch(mixed[5:]).roots == (c, b, a)


def test_signed_binomials_and_root_powers_are_built_once_per_pole(monkeypatch):
    spec = roots23_spec()
    binomials, powers = [], []
    real_binomial, real_power = core.binomial, expr._make_power
    monkeypatch.setattr(
        core, "binomial", lambda *args: binomials.append(args) or real_binomial(*args)
    )
    monkeypatch.setattr(expr, "_make_power", lambda *args: powers.append(args) or real_power(*args))
    assert _count(core._pole_contributions(spec, (0,))) == 1123
    # one table of m_i signed binomials per distinct (m_k, m_i) among
    # multiplicities 1 and 3, 1 + 1 + 3 + 3, and m_i binomials C(l, j) per
    # pole.  The powers of the differences are Power nodes built directly,
    # so _make_power builds only one a_i^0 per pole
    assert len(binomials) == 8 + sum(spec.multiplicities) == 8 + 31
    assert len(powers) == 23


def test_serialize_renders_each_distinct_power_once(monkeypatch):
    d = decompose(roots23_spec())
    rendered = Counter()
    real = Power.exponent
    # the renderer reads a Power's exponent only when it makes the Power's text
    monkeypatch.setattr(
        Power, "exponent", property(lambda e: rendered.update([e]) or real.fget(e))
    )
    for mode in ("infix", "structured"):
        rendered.clear()
        serialize(d, OutputFormat(mode=mode))
        powers = _power_nodes([t.coefficient for t in d.poles])
        assert len(powers) == 682 and set(rendered) == powers
        assert max(rendered.values()) == 1


def test_collect_keeps_every_unmerged_contribution_as_it_is(monkeypatch):
    spec = roots23_spec()
    keys = []  # the contributions of each key, as _key_sum receives them
    real_key_sum = core._key_sum
    monkeypatch.setattr(core, "_key_sum", lambda ts, d: keys.append(ts) or real_key_sum(ts, d))
    sums = list(core._pole_contributions(spec, (0,)))
    poles = [
        PoleTerm(i, order, c) for (_, i, order, _), terms in zip(sums, keys) for c in terms
    ]
    calls = []
    real = expr._scale
    monkeypatch.setattr(expr, "_scale", lambda t, k: calls.append(1) or real(t, k))
    d = collect(Decomposition(spec.roots, (), poles))
    # no two contributions of a Symbol root share a rest, so nothing merges
    # and nothing is rebuilt: every summand is a contribution, by identity,
    # and each key's merge is the one sum its enumeration made
    assert calls == []
    assert [(p.pole_index, p.order, p.coefficient) for p in d.poles] == sorted(
        (i, order, c) for _, i, order, c in sums
    )
    summands = [t for p in d.poles for t in _summands(p.coefficient)]
    assert len(summands) == len(poles) == 1123
    assert {id(t) for t in summands} == {id(p.coefficient) for p in poles}


def test_roots23_is_decomposed_without_make_sum(monkeypatch):
    spec = roots23_spec()
    calls = []
    real = expr._make_sum
    monkeypatch.setattr(expr, "_make_sum", lambda ts: calls.append(1) or real(ts))
    monkeypatch.setattr(core, "_make_sum", lambda ts: calls.append(1) or real(ts))
    d = decompose(spec)
    # every pole is direct: each key is summed by one sort, and collect
    # keeps each key's one coefficient as it is
    assert calls == []
    assert len(d.poles) == 19 + 4 * 3


def test_symbol_root_quotient_is_decomposed_without_make_sum(monkeypatch):
    # the improper_symbolic l = 40 case: each quotient degree's 1,140 terms
    # in all are summed by one sort, as direct pole keys are
    spec = spec_of(40, (a, 5), (b, 7), (c, 11))
    calls = []
    real = expr._make_sum
    monkeypatch.setattr(expr, "_make_sum", lambda ts: calls.append(1) or real(ts))
    monkeypatch.setattr(core, "_make_sum", lambda ts: calls.append(1) or real(ts))
    d = decompose(spec)
    assert calls == []
    assert len(d.monomials) == 18 and len(d.poles) == 23


@pytest.mark.parametrize("factors", [
    ((a, 5), (b, 7), (c, 11)),
    ((a, 2), (2 * b, 1), (c + 1, 3)),
    ((a, 3), (Constant(Fraction(-1, 2)), 2), (b, 1), (Constant(0), 4)),
])
def test_residues_enumerate_what_residue_cost_counts(monkeypatch, factors):
    # the residue form takes sum_i C(m_i + n - 2, n - 1) compositions, the
    # count its cost model assumes, for any number of degrees; the full
    # pole formula takes the same series, as every order shares it
    spec = spec_of(0, *factors)
    n = len(factors)
    taken = []
    real = core.compositions
    monkeypatch.setattr(core, "compositions", lambda m, k: _counted(real(m, k), taken))
    residues = list(core._pole_contributions(spec, range(30, 90), residues_only=True))
    assert len(taken) == sum(binomial(m_i + n - 2, n - 1) for m_i in spec.multiplicities)
    assert {order for _, _, order, _ in residues} == {1}
    series = list(taken)
    taken.clear()
    list(core._pole_contributions(spec, (0, 7, 50)))
    assert taken == series


@pytest.mark.parametrize("terms", [
    [(1, spec_of(40, (a, 5), (b, 7), (c, 11)))],
    [(1, spec_of(83, (a, 5), (b, 7), (c, 11)))],
    [(1, spec_of(66, (a, 2), (2 * b, 1), (c + 1, 3)))],
    [(1, spec_of(9, (a, 2), (a + b, 1), (Constant(0), 2), (Constant(3), 1)))],
    [(1, spec_of(12, (Constant(Fraction(1, 3)), 2), (Constant(-2), 3)))],
    [(1, spec_of(3, (a, 1), (-a, 1)))],  # h_1 = a - a = 0
    [(Symbol(f"w{l}"), spec_of(l, *factors))
     for l in range(0, 30, 4) for factors in (((a, 2), (b - 1, 3)), ((b - 1, 3), (a, 2)))],
])
def test_collect_gets_one_coefficient_per_key_of_one_input(monkeypatch, terms):
    # every key of one input is summed where it is made, so collect merges
    # only across the inputs of a batch
    given = []
    real = core.collect
    monkeypatch.setattr(core, "collect", lambda d: given.append(d) or real(d))
    decompose_batch(terms)
    *members, _ = given  # the last merges the batch
    assert len(members) == len({spec for _, spec in terms})
    for member in members:
        monomials, poles = list(member.monomials), list(member.poles)
        assert len({t.degree for t in monomials}) == len(monomials)
        assert len({(t.pole_index, t.order) for t in poles}) == len(poles)
        assert ZERO not in [t.coefficient for t in (*monomials, *poles)]


def test_contribution_rests_hash_apart():
    # the rests that a merge would bucket by, keyed as _make_sum keys them;
    # with b^-1 and b^-2 hashing alike they shared 135 hashes
    rests = []
    for _, _, _, c in core._pole_contributions(roots23_spec(), (0,)):
        for t in _summands(c):
            key = t
            if isinstance(t, Product):
                key = t.factors
                if isinstance(key[0], Constant):
                    key = key[1:] if len(key) > 2 else key[1]
            rests.append(key)
    assert len(rests) == len({hash(r) for r in rests}) == 1123
