import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from partfrac import (
    ONE,
    ZERO,
    Constant,
    Power,
    Product,
    Sum,
    Symbol,
    UnboundSymbolError,
    canonicalize,
    evaluate,
    expand,
    parse_expr,
    product_of,
    sum_of,
    symbols,
    symbols_in,
)

a, b, c = symbols("a b c")


# --- raw (possibly non-canonical) tree strategy -------------------------------

_leaves = st.one_of(
    st.sampled_from("abc").map(Symbol),
    st.fractions(min_value=-4, max_value=4, max_denominator=6).map(Constant),
)

raw_trees = st.recursive(
    _leaves,
    lambda kids: st.one_of(
        st.lists(kids, min_size=0, max_size=3).map(lambda ts: Sum(tuple(ts))),
        st.lists(kids, min_size=0, max_size=3).map(lambda fs: Product(tuple(fs))),
        st.tuples(kids, st.integers(-3, 4)).map(lambda p: Power(p[0], p[1])),
    ),
    max_leaves=12,
)


def _canonical_or_skip(tree):
    try:
        return canonicalize(tree)
    except ZeroDivisionError:
        assume(False)  # raw tree contained 0^(-k)


def _random_bindings(rng):
    # nonzero values keep negative powers evaluable most of the time
    return {
        name: Fraction(rng.randint(1, 50), rng.randint(1, 20)) for name in "abc"
    }


# --- canonicalization ----------------------------------------------------------


def test_constant_folding():
    assert 2 * a * Fraction(1, 2) == a
    assert canonicalize(Product((Constant(2), a, Constant(Fraction(1, 2))))) == a
    assert canonicalize(Sum((Constant(2), Constant(3)))) == Constant(5)


def test_children_are_sorted():
    assert b + a == Sum((a, b))
    assert canonicalize(Sum((b, a))) == Sum((a, b))
    # fixed kind order: Constant < Symbol < Power < Product < Sum
    e = canonicalize(Sum((a * b, a**2, a, Constant(3))))
    assert e.terms == (Constant(3), a, a**2, a * b)


def test_identical_subtrees_cancel():
    assert (a - b) - (a - b) == ZERO
    assert a - a == ZERO
    assert a * b - b * a == ZERO


def test_like_terms_merge():
    assert a + a == 2 * a
    assert 2 * a * b + 3 * b * a == 5 * a * b
    assert a * 2 + a * -2 == ZERO


def test_power_normalization():
    assert a**1 == a
    assert a**0 == ONE
    assert (a**2) ** 3 == a**6
    assert (a * b) ** 2 == a**2 * b**2
    assert Constant(Fraction(2, 3)) ** -2 == Constant(Fraction(9, 4))
    assert a**2 * a**-2 == ONE


def test_products_keep_single_constant():
    e = 6 * a * b * Fraction(1, 4)
    assert isinstance(e, Product)
    constants = [f for f in e.factors if isinstance(f, Constant)]
    assert constants == [Constant(Fraction(3, 2))]
    assert e.factors[0] == constants[0]


def test_rational_multiple_of_sum_distributes():
    assert canonicalize(Product((Constant(-1), Sum((a, Product((Constant(-1), b))))))) \
        == b - a
    assert 2 * (a + b) == 2 * a + 2 * b


def test_zero_absorbs_product():
    assert 0 * (a + b) == ZERO
    assert canonicalize(Product((ZERO, a))) == ZERO


@settings(max_examples=200)
@given(raw_trees)
def test_canonicalize_idempotent(tree):
    canon = _canonical_or_skip(tree)
    assert canonicalize(canon) == canon


@settings(max_examples=150)
@given(raw_trees, st.integers(0, 2**32))
def test_canonicalize_preserves_value(tree, seed):
    canon = _canonical_or_skip(tree)
    rng = random.Random(seed)
    for _ in range(10):
        bindings = _random_bindings(rng)
        try:
            before = evaluate(tree, bindings)
        except ZeroDivisionError:
            continue
        assert evaluate(canon, bindings) == before


# --- evaluation ----------------------------------------------------------------


def test_evaluate_direct_arithmetic():
    e = (a + b) ** 2
    assert evaluate(e, {"a": Fraction(1, 2), "b": Fraction(1, 3)}) == Fraction(25, 36)


def test_evaluate_canonical_cancellation():
    assert evaluate(a * b - b * a, {"a": 17, "b": -3}) == 0


def test_evaluate_pole_is_division_by_zero():
    e = (a - b) ** -1
    with pytest.raises(ZeroDivisionError):
        evaluate(e, {"a": 1, "b": 1})


def test_evaluate_unbound_symbol_names_it():
    with pytest.raises(UnboundSymbolError) as err:
        evaluate(a + b, {"a": 1})
    assert err.value.name == "b"


@settings(max_examples=100)
@given(raw_trees, raw_trees, st.integers(0, 2**32))
def test_evaluate_is_a_homomorphism(t1, t2, seed):
    e1, e2 = _canonical_or_skip(t1), _canonical_or_skip(t2)
    bindings = _random_bindings(random.Random(seed))
    try:
        v1, v2 = evaluate(e1, bindings), evaluate(e2, bindings)
        assert evaluate(e1 + e2, bindings) == v1 + v2
        assert evaluate(e1 * e2, bindings) == v1 * v2
        assert evaluate(e1**3, bindings) == v1**3
    except ZeroDivisionError:
        assume(False)


# --- expansion -----------------------------------------------------------------


def test_expand_distributes():
    assert expand((a + b) * c) == a * c + b * c


def test_expand_binomial_square():
    assert expand((a + b) ** 2) == a**2 + 2 * a * b + b**2


def test_expand_leaves_negative_powers():
    e = (a - b) ** -2
    assert expand(e) == e


def test_expand_resolves_distributed_forms():
    assert expand(a * (b + c)) == expand(a * b + a * c)


@settings(max_examples=150)
@given(raw_trees, st.integers(0, 2**32))
def test_expand_preserves_value(tree, seed):
    canon = _canonical_or_skip(tree)
    expanded = expand(canon)
    rng = random.Random(seed)
    for _ in range(5):
        bindings = _random_bindings(rng)
        try:
            before = evaluate(canon, bindings)
        except ZeroDivisionError:
            continue
        assert evaluate(expanded, bindings) == before


# --- misc ----------------------------------------------------------------------


def test_sum_of_and_product_of():
    assert sum_of([a, b, 1]) == a + b + 1
    assert product_of([2, a, Fraction(1, 2)]) == a
    assert sum_of([]) == ZERO
    assert product_of([]) == ONE


def test_division_operator():
    assert a / b == a * b**-1
    assert (a / a) == ONE
    with pytest.raises(ZeroDivisionError):
        a / 0


def test_symbols_in():
    assert symbols_in((a + b) ** 2 * c) == {"a", "b", "c"}
    assert symbols_in(Constant(3)) == frozenset()


def test_symbol_names_follow_the_identifier_grammar():
    for name in ("a", "a1", "_tmp", "Alpha_2"):
        assert parse_expr(str(Symbol(name) + 1)) == Symbol(name) + 1
    # "p q" would render text that does not parse back
    with pytest.raises(ValueError, match="symbol name"):
        Symbol("p q")
    # non-ASCII names used to fail only in the ASCII writer, after part of
    # the result file was written
    with pytest.raises(ValueError, match="symbol name"):
        Symbol("\u03b1")
    for bad in ("", "1a", "a-b", "a\n", 3):
        with pytest.raises(ValueError):
            Symbol(bad)
    with pytest.raises(ValueError):
        symbols("a b+c")


def test_expressions_are_hashable_value_objects():
    d = {a + b: 1}
    assert d[b + a] == 1
    assert hash(2 * a) == hash(a * 2)
