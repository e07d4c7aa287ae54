import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partfrac import (
    Constant,
    Decomposition,
    DuplicateRootError,
    MonomialTerm,
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
from partfrac import oracle
from partfrac.expr import _evaluator
from partfrac.oracle import _decomposition_value, _instantiate, _spec_value

a, b, c = symbols("a b c")


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
    with pytest.raises(ValueError, match="l >= 0"):
        oracle_decompose(-1, [Fraction(1)], [1])
    with pytest.raises(ValueError, match="differ in length"):
        oracle_decompose(0, [Fraction(1), Fraction(2)], [1])


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
        symbolic = Decomposition(d.roots, d.monomials, (PoleTerm(0, 1, a),) + d.poles[1:])
        assert compare_with_oracle(spec, symbolic) == "coefficient a is not rational"


def test_compare_with_oracle_checks_the_roots():
    # 1/((x-3)(x-4)) and 1/((x-1)(x-2)) both have the coefficients -1 and 1
    spec = RationalFunctionSpec(0, ((Constant(1), 1), (Constant(2), 1)))
    other = decompose(RationalFunctionSpec(0, ((Constant(3), 1), (Constant(4), 1))))
    assert not check_by_substitution(spec, other, trials=1).passed
    assert compare_with_oracle(spec, other) == "root mismatch at factor 1: engine=3 spec=1"
    d = decompose(spec)
    swapped = Decomposition(d.roots[::-1], d.monomials, d.poles)
    assert compare_with_oracle(spec, swapped) == "root mismatch at factor 1: engine=2 spec=1"
    extra = Decomposition(d.roots + (Constant(5),), (), (PoleTerm(2, 1, Constant(1)),))
    assert compare_with_oracle(spec, extra) == "root mismatch at factor 3: engine=5 spec=None"


def test_compare_with_oracle_mismatch_message_prints_values_as_text():
    # x^2/(x - 1) = x + 1 + 1/(x - 1); the engine side claims 3/2 + x
    spec = RationalFunctionSpec(2, ((Constant(1), 1),))
    d = decompose(spec)
    bad = Decomposition(d.roots, (MonomialTerm(0, Constant(Fraction(3, 2))),) + d.monomials[1:],
                        d.poles)
    assert compare_with_oracle(spec, bad) == (
        "quotient mismatch: engine={0: 3/2, 1: 1} oracle={0: 1, 1: 1}"
    )
    wrong_pole = Decomposition(d.roots, d.monomials, (PoleTerm(0, 1, Constant(2)),))
    assert compare_with_oracle(spec, wrong_pole) == (
        "coefficient mismatch at factor 1 order 1: engine=2 oracle=1"
    )


def test_oracle_makes_one_fraction_per_result(monkeypatch):
    # 6 rational roots of multiplicity 3 (m = 18).  The integer solve makes a
    # Fraction per root and per nonzero term; elimination over Fraction made
    # more than 17,000.
    roots = [Fraction(1, 2), Fraction(-3, 4), Fraction(5, 3), Fraction(7), Fraction(-2, 5), 0]
    construct = Fraction.__new__
    for l in (0, 20):
        spec = RationalFunctionSpec(l, tuple((Constant(r), 3) for r in roots))
        d = decompose(spec)
        made = []

        def counted(cls, *args, **kwargs):
            made.append(None)
            return construct(cls, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(Fraction, "__new__", staticmethod(counted))
            assert compare_with_oracle(spec, d) is None
        assert 0 < len(made) <= 200


def _expanded(coefficient, roots, mults, shift=0) -> list:
    """Coefficients, x^0 first, of coefficient * x^shift * prod (x - roots[i])^mults[i]."""
    out = [0] * shift + [coefficient]
    for root, k in zip(roots, mults):
        for _ in range(k):
            out = [b - root * a for a, b in zip(out + [0], [0] + out)]
    return out


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_oracle_agrees_with_terms_that_multiply_back_to_the_numerator(data):
    # quotient*Q + sum c_ij*Q/(x - a_i)^j == x^l, checked by coefficient-list
    # products alone, for the terms the oracle agrees with
    roots = data.draw(st.lists(
        st.fractions(min_value=-9, max_value=9, max_denominator=7),
        min_size=1, max_size=4, unique=True,
    ))
    mults = data.draw(st.lists(st.integers(1, 4), min_size=len(roots), max_size=len(roots)))
    l = data.draw(st.integers(0, sum(mults) + 3))
    spec = RationalFunctionSpec(l, tuple((Constant(r), k) for r, k in zip(roots, mults)))
    d = decompose(spec)
    assert compare_with_oracle(spec, d) is None

    terms = [_expanded(t.coefficient.value, roots, mults, t.degree) for t in d.monomials]
    for p in d.poles:
        rest = list(mults)
        rest[p.pole_index] -= p.order
        terms.append(_expanded(p.coefficient.value, roots, rest))
    total = [0] * max(l + 1, sum(mults))
    for term in terms:
        for i, c in enumerate(term):
            total[i] += c
    assert total == [int(i == l) for i in range(len(total))]


def test_substitution_verifies_numbers_too_long_to_evaluate_exactly():
    # a^999999 at a rational of 40 bits has 40 million bits; mod p it has 62
    spec = RationalFunctionSpec(0, ((a, 1), (a**999999, 1)))
    assert check_by_substitution(spec, decompose(spec), trials=1).passed
    spec = RationalFunctionSpec(3, ((a, 2), ((a + b) ** 200, 1)))
    assert check_by_substitution(spec, decompose(spec), trials=1).passed


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
    assert [name for name, _ in ce.bindings] == ["a", "b"]
    assert "FAILED" in str(report)
    # a symbol that occurs only in a coefficient is bound too
    spec = RationalFunctionSpec(0, ((a, 1),))
    bad = decompose(spec)._replace(poles=(PoleTerm(0, 1, c),))
    report = check_by_substitution(spec, bad, trials=20, seed=7)
    assert not report.passed and dict(report.counterexample.bindings).keys() == {"a", "c"}


def test_substitution_check_refuses_to_check_nothing():
    # zero trials or zero points would pass a wrong decomposition unchecked
    spec = RationalFunctionSpec(1, ((a, 2), (b, 1)))
    d = decompose(spec)
    bad = d._replace(poles=d.poles[1:])
    for trials in (0, -1):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            check_by_substitution(spec, bad, trials=trials)
    for points in (0, -1):
        with pytest.raises(ValueError, match="points_per_trial must be >= 1"):
            check_by_substitution(spec, bad, trials=3, points_per_trial=points)


def test_substitution_check_is_deterministic_per_seed():
    spec = RationalFunctionSpec(0, ((a, 1), (b, 2)))
    d = decompose(spec)
    r1 = check_by_substitution(spec, d, trials=3, seed=11)
    r2 = check_by_substitution(spec, d, trials=3, seed=11)
    assert r1 == r2
    # evaluation meets b first; the counterexample lists the bindings by name
    spec = RationalFunctionSpec(0, ((b, 1), (a, 2)))
    d = decompose(spec)
    bad = d._replace(poles=d.poles[1:])
    r1 = check_by_substitution(spec, bad, trials=3, seed=11)
    r2 = check_by_substitution(spec, bad, trials=3, seed=11)
    assert r1 == r2 and not r1.passed
    assert [name for name, _ in r1.counterexample.bindings] == ["a", "b"]


def test_colliding_roots_never_reach_checker():
    # the distinctness gate fires at spec construction ((a) vs (a + 0*b))
    with pytest.raises(DuplicateRootError):
        RationalFunctionSpec(0, ((a, 1), (a + 0 * b, 1)))


def _plus_one(term):
    """``term`` with 1 added to its coefficient."""
    return term._replace(coefficient=term.coefficient + 1)


def test_substitution_catches_a_mutated_coefficient_in_one_trial():
    a1, a2, a3 = symbols("a1 a2 a3")
    poles = RationalFunctionSpec(3, ((a1, 5), (a2, 7), (a3, 11)))
    quotient = RationalFunctionSpec(12, ((a1, 3), (a2, 4)))
    rational = RationalFunctionSpec(
        2, ((Constant(Fraction(1, 2)), 2), (Constant(-3), 1), (Constant(5), 3))
    )
    for spec, side in ((poles, "poles"), (quotient, "monomials"), (rational, "poles")):
        d = decompose(spec)
        terms = getattr(d, side)
        for k in (0, len(terms) // 2, len(terms) - 1):
            mutated = d._replace(**{side: terms[:k] + (_plus_one(terms[k]),) + terms[k + 1 :]})
            for seed in range(3):
                report = check_by_substitution(spec, mutated, trials=1, seed=seed)
                assert not report.passed and report.points_checked == 1, (spec, side, k)


def test_substitution_passes_roots_that_differ_by_a_multiple_of_a_mersenne_prime():
    # a and a + (2^61 - 1) coincide mod 2^61 - 1 under every binding
    spec = RationalFunctionSpec(0, ((a, 1), (a + 2305843009213693951, 1)))
    for seed in range(5):
        assert check_by_substitution(spec, decompose(spec), trials=2, seed=seed).passed


def test_counterexample_names_the_prime():
    spec = RationalFunctionSpec(0, ((a, 1), (b, 2)))
    d = decompose(spec)
    ce = check_by_substitution(spec, d._replace(poles=d.poles[1:]), trials=1).counterexample
    assert 1 << 61 <= ce.modulus and f"mod p={ce.modulus}" in str(ce)
    for v in (ce.x, ce.original, ce.decomposed, *dict(ce.bindings).values()):
        assert type(v) is int and 0 <= v < ce.modulus


def test_counterexample_text_is_pinned():
    # the prime, the bindings, x and both sides all follow from the seed
    spec = RationalFunctionSpec(5, ((a, 2), (Constant(Fraction(1, 3)), 1), (b + c, 2)))
    d = decompose(spec)
    bad = d._replace(poles=d.poles[:-1] + (_plus_one(d.poles[-1]),))
    report = check_by_substitution(spec, bad, trials=3, seed=7, points_per_trial=2)
    assert str(report) == (
        "substitution check FAILED at x=2687635328174246392 with bindings "
        "{'a': 222681842206352464, 'b': 3787459155863482163, 'c': 434098205243707435} "
        "mod p=4126644998581914947: original=2033030441727761649 "
        "decomposed=3110843287429866746"
    )
    assert report.points_checked == 1


def test_decomposition_value_inverts_each_root_once(monkeypatch):
    spec = RationalFunctionSpec(4, ((a, 3), (b, 2), (c, 1)))
    d = decompose(spec)
    assert len(d.poles) == 6
    p = (1 << 61) - 1
    terms = _instantiate(d, _evaluator({"a": 3, "b": 5, "c": 7}, modulus=p))
    want = _spec_value(spec, [3, 5, 7], 11, p)
    raised = []
    monkeypatch.setattr(
        oracle, "pow", lambda *args: raised.append(args) or pow(*args), raising=False
    )
    assert _decomposition_value(*terms, 11, p) == want
    assert len([args for args in raised if args[1] < 0]) == 3
    # the exact path keeps Fractions
    monkeypatch.undo()
    bind = {"a": Fraction(1, 2), "b": 3, "c": Fraction(-7, 5)}
    x = Fraction(11, 3)
    got = _decomposition_value(*_instantiate(d, _evaluator(bind)), x)
    assert type(got) is Fraction and got == rational_function_value(spec, bind, x)


def test_value_helpers_agree():
    spec = RationalFunctionSpec(2, ((a, 2), (b, 1)))
    d = decompose(spec)
    bind = {"a": Fraction(3, 2), "b": Fraction(7, 3)}
    x = Fraction(11, 5)
    assert rational_function_value(spec, bind, x) == decomposition_value(d, bind, x)
