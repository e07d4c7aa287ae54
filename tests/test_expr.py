import copy
import operator
import pickle
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
    RationalFunctionSpec,
    Sum,
    Symbol,
    UnboundSymbolError,
    canonicalize,
    decompose,
    evaluate,
    expand,
    parse_expr,
    product_of,
    sum_of,
    symbols,
    symbols_in,
)
from partfrac import expr
from partfrac.expr import _evaluator, _is_prime, _make_sum, _random_prime

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
    # a number less an expression
    assert 1 - a == Sum((ONE, Product((Constant(-1), a))))
    assert Fraction(1, 2) - a == Sum((Constant(Fraction(1, 2)), Product((Constant(-1), a))))
    assert (1 - a) + a == ONE


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
    with pytest.raises(TypeError, match="exponent must be an int"):
        a**1.5


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


def test_operators_refuse_what_is_not_an_expression():
    for name in ("add", "radd", "sub", "rsub", "mul", "rmul", "truediv", "rtruediv"):
        assert getattr(a, f"__{name}__")("s") is NotImplemented
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        # a plain tuple on the left must not concatenate with a node
        for left, right in ((a, "s"), ("s", a), (a + 1, 1.5), (("s",), a), (a, ("s",))):
            with pytest.raises(TypeError):
                op(left, right)


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
    assert str(err.value) == "no binding for symbol 'b'"


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


def _expand_power_by_repeated_products(base, k):
    """Reference for expand(base**k): the expanded base multiplied in k
    times, every term by every term."""
    base = expand(base)
    terms = base.terms if isinstance(base, Sum) else (base,)
    acc = ONE
    for _ in range(k):
        acc_terms = acc.terms if isinstance(acc, Sum) else (acc,)
        acc = sum_of(product_of([u, v]) for u in acc_terms for v in terms)
    return acc


@settings(max_examples=100, deadline=None)
@given(st.lists(raw_trees, min_size=2, max_size=4), st.integers(0, 5))
def test_expand_power_of_sum_matches_repeated_products(trees, k):
    base = _canonical_or_skip(Sum(tuple(trees)))
    expanded = expand(base)
    # the reference multiplies out up to t^k term pairs
    assume(not isinstance(expanded, Sum) or len(expanded.terms) <= 6)
    assert expand(base**k) == _expand_power_by_repeated_products(base, k)


def test_expand_keeps_a_node_with_nothing_to_expand():
    spec = RationalFunctionSpec(3, ((a, 5), (b, 7), (c, 11)))
    coefficients = [t.coefficient for t in decompose(spec).poles]
    assert len(coefficients) == 23
    for coefficient in coefficients:
        assert expand(coefficient) is coefficient
    kept = 3 * a * (a - b) ** -2 + c
    assert expand(kept) is kept


@settings(max_examples=150)
@given(raw_trees)
def test_expand_of_an_expanded_tree_is_that_tree(tree):
    expanded = expand(_canonical_or_skip(tree))
    assert expand(expanded) is expanded


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


def _shared_dag(depth):
    """a + b under ``depth`` levels of s -> s^2 + s^3: 2 * depth distinct
    Powers, each level reaching the one below twice.  Built from the node
    constructors, canonical as built, so that building it hashes nothing."""
    s = a + b
    for _ in range(depth):
        s = Sum((Power(s, 2), Power(s, 3)))
    return s


def test_symbols_in():
    assert symbols_in((a + b) ** 2 * c) == {"a", "b", "c"}
    assert symbols_in(Constant(3)) == frozenset()
    # a walk that revisits shared nodes would reach a + b 2^30 times
    assert symbols_in(_shared_dag(30)) == {"a", "b"}


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


# --- canonical order -----------------------------------------------------------


def _reference_key(e):
    """The canonical order spelled out as a recursive key, independent of how
    nodes compare: kind first, then the fields, children in order."""
    if isinstance(e, Constant):
        return (0, e.value)
    if isinstance(e, Symbol):
        return (1, e.name)
    if isinstance(e, Power):
        return (2, _reference_key(e.base), e.exponent)
    if isinstance(e, Product):
        return (3, tuple(map(_reference_key, e.factors)))
    return (4, tuple(map(_reference_key, e.terms)))


def _children(e):
    if isinstance(e, Sum):
        return e.terms
    if isinstance(e, Product):
        return e.factors
    return (e.base,) if isinstance(e, Power) else ()


@settings(max_examples=100)
@given(st.lists(raw_trees, min_size=2, max_size=8))
def test_sorting_follows_the_reference_order(trees):
    canon = [_canonical_or_skip(t) for t in trees]
    assert sorted(canon) == sorted(canon, key=_reference_key)
    for x in canon:
        for y in canon:
            assert (x < y) == (_reference_key(x) < _reference_key(y))
            assert (x == y) == (_reference_key(x) == _reference_key(y))
    # every node stores its children in that order
    stack = list(canon)
    while stack:
        node = stack.pop()
        kids = _children(node)
        if not isinstance(node, Power):
            assert list(kids) == sorted(kids, key=_reference_key)
        stack.extend(kids)


_monomial_factors = st.one_of(
    st.sampled_from("abc").map(Symbol),
    st.fractions(min_value=-4, max_value=4, max_denominator=6).map(Constant),
    st.tuples(st.sampled_from("abc").map(Symbol), st.integers(-3, 4)).map(
        lambda p: p[0] ** p[1]
    ),
)


@settings(max_examples=100)
@given(st.lists(raw_trees, min_size=1, max_size=5), st.randoms(use_true_random=False))
def test_operator_order_does_not_change_a_sum(trees, rnd):
    terms = [_canonical_or_skip(t) for t in trees]
    shuffled = list(terms)
    rnd.shuffle(shuffled)
    left = ZERO
    for t in terms:
        left = left + t
    right = ZERO
    for t in reversed(shuffled):
        right = t + right
    for other in (right, sum_of(shuffled)):
        assert left == other
        assert hash(left) == hash(other)
    assert left - right == ZERO


def _reference_make_sum(terms):
    """The merge as written before its keys were taken without building
    nodes: split every term into its coefficient and its rest node, sum the
    coefficients per rest, and rebuild every term from its rest."""
    constant, buckets = 0, {}
    stack = list(terms)[::-1]
    while stack:
        t = stack.pop()
        if isinstance(t, Sum):
            stack.extend(reversed(t.terms))
        elif isinstance(t, Constant):
            constant += t.value
        else:
            coeff, rest = 1, t
            if isinstance(t, Product) and isinstance(t.factors[0], Constant):
                coeff, rest = t.factors[0].value, t.factors[1:]
                rest = rest[0] if len(rest) == 1 else Product(rest)
            buckets[rest] = buckets.get(rest, 0) + coeff
    parts = []
    for rest, coeff in buckets.items():
        if coeff == 1:
            parts.append(rest)
        elif coeff:
            factors = rest.factors if isinstance(rest, Product) else (rest,)
            parts.append(Product((Constant(coeff),) + factors))
    if constant:
        parts.append(Constant(constant))
    parts.sort()
    return ZERO if not parts else parts[0] if len(parts) == 1 else Sum(tuple(parts))


@settings(max_examples=300)
@given(
    st.lists(
        st.tuples(raw_trees, st.lists(st.sampled_from(["again", "negated", "merged"]), max_size=3)),
        min_size=1,
        max_size=5,
    ),
    st.randoms(use_true_random=False),
)
def test_merge_matches_the_reference(drawn, rnd):
    terms = []
    for tree, variations in drawn:
        t = _canonical_or_skip(tree)
        terms.append(t)
        for variation in variations:
            terms.extend({"again": [t], "negated": [-t], "merged": [2 * t, -t]}[variation])
    rnd.shuffle(terms)
    merged = _make_sum(terms)
    assert merged == _reference_make_sum(terms)
    assert canonicalize(merged) == merged


def test_merge_keeps_a_term_seen_once_as_it_is():
    p, q, r = 3 * a * b, b**-2, -c
    s = _make_sum([p, q, a, -a + r])
    assert s == p + q + r
    assert all(map(operator.is_, s.terms, sorted([p, q, r])))  # a and -a cancelled
    assert _make_sum([q]) is q and _make_sum([p, 2 * a * b]) == 5 * a * b


@settings(max_examples=150)
@given(st.lists(_monomial_factors, min_size=1, max_size=6), st.randoms(use_true_random=False))
def test_operator_order_does_not_change_a_product(factors, rnd):
    shuffled = list(factors)
    rnd.shuffle(shuffled)
    left = ONE
    for f in factors:
        left = left * f
    right = ONE
    for f in reversed(shuffled):
        right = f * right
    for other in (right, product_of(shuffled)):
        assert left == other
        assert hash(left) == hash(other)


def test_nodes_are_tuples_without_instance_dicts():
    for e in (Constant(1), a, a**2, a * b, a + b):
        assert not hasattr(e, "__dict__")
        assert eval(repr(e)) == e
    assert repr(a**-2) == "Power(Symbol('a'), -2)"


def test_powers_to_minus_one_and_minus_two_hash_apart():
    # CPython hashes -1 and -2 alike; a Power stores its exponent less one
    assert hash(-1) == hash(-2)
    assert hash(a**-1) != hash(a**-2)
    assert hash((a - b) ** -1 * c**-2) != hash((a - b) ** -2 * c**-1)
    powers = [a**k for k in (-3, -2, -1, 2, 3)]
    assert sorted(reversed(powers)) == powers  # ordered as their exponents
    for e, k in zip(powers, (-3, -2, -1, 2, 3)):
        assert e.exponent == k and e == Power(a, k)
        assert copy.copy(e) == copy.deepcopy(e) == pickle.loads(pickle.dumps(e)) == e
    # raw nodes keep any exponent, and canonicalize reads it back
    assert canonicalize(Power(a, 1)) == a and canonicalize(Power(a, 0)) == ONE


# --- constant representation -----------------------------------------------------

_numbers = st.one_of(
    st.integers(-(10**30), 10**30),
    st.fractions(max_denominator=50),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
)


@settings(max_examples=300)
@given(_numbers)
def test_constant_stores_an_int_exactly_when_integral(v):
    stored = Constant(v).value
    assert stored == Fraction(v)
    assert type(stored) is (int if Fraction(v).denominator == 1 else Fraction)


@settings(max_examples=200)
@given(st.integers(-(10**6), 10**6), _numbers)
def test_equal_constants_are_one_node_whatever_their_type(n, w):
    y = Constant(w)
    for x in (Constant(n), Constant(Fraction(n)), Constant(Fraction(3 * n, 3))):
        assert x == Constant(n) and hash(x) == hash(Constant(n))
        assert (x < y) == (_reference_key(x) < _reference_key(y))
        assert (x == y) == (_reference_key(x) == _reference_key(y))


# --- evaluation returns exact Fractions ------------------------------------------


def test_evaluate_returns_a_fraction_for_every_node_kind():
    bindings = {"a": 2, "b": Fraction(1, 3)}
    for e in (Constant(3), a, a**2, a**-1, 3 * a * b, a + b, Power(Constant(2), -1)):
        assert type(evaluate(e, bindings)) is Fraction, e
    assert evaluate(Power(Constant(2), -1), {}) == Fraction(1, 2)
    assert evaluate(Power(a, -3), {"a": 2}) == Fraction(1, 8)
    assert evaluate(Constant(3), {}) == 3
    assert evaluate(a, {"a": 0.5}) == Fraction(1, 2)  # a float binding, exactly


@settings(max_examples=150)
@given(raw_trees, st.integers(0, 2**32))
def test_evaluate_returns_a_fraction_on_raw_trees(tree, seed):
    bindings = {k: int(v) if v.denominator == 1 else v
                for k, v in _random_bindings(random.Random(seed)).items()}
    try:
        assert type(evaluate(tree, bindings)) is Fraction
    except ZeroDivisionError:
        assume(False)


def _reference_value(e, bindings):
    """Plain recursive Fraction evaluation, no memo."""
    if isinstance(e, Constant):
        return Fraction(e.value)
    if isinstance(e, Symbol):
        return Fraction(bindings[e.name])
    if isinstance(e, Sum):
        return sum((_reference_value(t, bindings) for t in e.terms), Fraction(0))
    if isinstance(e, Product):
        total = Fraction(1)
        for f in e.factors:
            total *= _reference_value(f, bindings)
        return total
    return _reference_value(e.base, bindings) ** e.exponent


@settings(max_examples=150)
@given(st.lists(raw_trees, min_size=1, max_size=4), st.integers(0, 2**32))
def test_memoized_evaluation_matches_the_reference_on_shared_subtrees(trees, seed):
    canon = [_canonical_or_skip(t) for t in trees]
    # every tree reappears inside the others, as factors, terms and bases
    everything = Sum(tuple(canon))
    shared = canon + [
        Sum((Product((t, u)), Power(t, 2), Product((Constant(-1), u))))
        for t in canon for u in canon
    ] + [Power(everything, -1), Product((Product(tuple(canon)), everything))]
    bindings = _random_bindings(random.Random(seed))
    value = _evaluator(bindings)  # one memo across every expression
    for e in shared:
        try:
            want = _reference_value(e, bindings)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                value(e)
            continue
        assert value(e) == want


def _negative_power_bases(e):
    """Every base raised to a negative exponent in a raw tree."""
    stack = [e]
    while stack:
        e = stack.pop()
        if isinstance(e, Power):
            if e.exponent < 0:
                yield e.base
            stack.append(e.base)
        elif isinstance(e, (Sum, Product)):
            stack.extend(e.terms if isinstance(e, Sum) else e.factors)


def _zero_mod(e, bindings, p) -> bool:
    try:
        return _reference_value(e, bindings).numerator % p == 0
    except ZeroDivisionError:  # a zero base below e; it is 0 mod p too
        return True


@settings(max_examples=300)
@given(raw_trees, st.sampled_from([7, 11, 13, 2**61 - 1]), st.integers(0, 2**32))
def test_modular_evaluation_is_the_exact_value_mod_p(tree, p, seed):
    # p exceeds every constant's denominator, so only a negative power of a
    # base that is 0 mod p can fail
    rng = random.Random(seed)
    bindings = {name: rng.randrange(p) for name in "abc"}
    value = _evaluator(bindings, modulus=p)
    if any(_zero_mod(base, bindings, p) for base in _negative_power_bases(tree)):
        with pytest.raises(ZeroDivisionError):
            value(tree)
        return
    exact = evaluate(tree, bindings)
    assert value(tree) == exact.numerator * pow(exact.denominator, -1, p) % p


def test_zero_base_under_a_negative_power_still_raises():
    value = _evaluator({"a": 1, "b": 1})
    assert value((a - b) ** 2) == 0  # memoized before the negative power
    for e in ((a - b) ** -1, (a - b) ** -2, 3 * a * (a - b) ** -1):
        with pytest.raises(ZeroDivisionError):
            value(e)
        with pytest.raises(ZeroDivisionError):
            evaluate(e, {"a": 1, "b": 1})
    with pytest.raises(ZeroDivisionError):
        evaluate(Power(Constant(0), -1), {})


def test_two_bindings_never_share_memo_entries():
    e = (a + b) ** 2 * (a - b) ** -1
    one, two = _evaluator({"a": 3, "b": 1}), _evaluator({"a": 5, "b": 2})
    assert one(e) == 8 and two(e) == Fraction(49, 3)
    assert one(e) == 8 and one((a + b) ** 2) == 16 and two((a + b) ** 2) == 49


# --- the primes of modular checks -------------------------------------------------

# The primes that random.Random(seed) draws for seeds 0..19.  A change to the
# search must keep every one: each modular check, and so each counterexample,
# follows from its prime.
PINNED_PRIMES = [
    4082473410405074899,
    2596871869076782069,
    2728203307296892609,
    2907311992619572049,
    3704560884684531163,
    3483875223180573803,
    2677404662200243433,
    4126644998581914947,
    4014066235267966291,
    3537783113282313977,
    2456115104081998061,
    4389551810821806143,
    3546363268668683999,
    3646726173730169317,
    3444630867114913613,
    3269594736408271879,
    4469750179914629573,
    4215855692866698509,
    2872229448351440867,
    2505315977841352309,
]


def test_random_prime_is_pinned_per_seed():
    assert [_random_prime(random.Random(s)) for s in range(20)] == PINNED_PRIMES


def test_drawing_the_pinned_primes_makes_at_most_200_exponentiations(monkeypatch):
    # 7 Miller-Rabin bases per prime, and one per composite candidate that
    # no prime below 300 divides
    raised = []
    monkeypatch.setattr(
        expr, "pow", lambda *args: raised.append(args) or pow(*args), raising=False
    )
    assert [_random_prime(random.Random(s)) for s in range(20)] == PINNED_PRIMES
    assert len(raised) <= 200


def test_is_prime_agrees_with_sympy():
    isprime = pytest.importorskip("sympy").isprime
    rng = random.Random(3)
    drawn = [rng.randrange(1 << 61, (1 << 62) + (1 << 12)) | 1 for _ in range(20_000)]
    # a Miller-Rabin base that is 0 mod n, as 9780504 is mod 407521, is skipped
    for n in [*drawn, *range(301, 410_001, 2)]:
        assert _is_prime(n) == isprime(n), n


def test_is_prime_refuses_strong_pseudoprimes_and_semiprimes():
    # a strong pseudoprime to every prime base from 2 to 23
    n = 3825123056546413051
    assert 1 << 61 <= n < 1 << 62 and n == 149491 * 747451 * 34233211
    assert not _is_prime(n)
    p, q = 2147483647, 2147483659  # primes on either side of 2^31
    assert _is_prime(p) and _is_prime(q) and not _is_prime(p * q)
