"""Differential test against ``sympy.apart`` on small symbolic inputs.

SymPy is an independent third oracle (after the undetermined-coefficients
solver and exact substitution).  Both decompositions are evaluated exactly
at random rational points; the partial fraction decomposition is unique, so
equal values at generic points mean equal terms.
"""

import random
from fractions import Fraction

import pytest

from partfrac import (
    Constant,
    Power,
    Product,
    RationalFunctionSpec,
    Sum,
    Symbol,
    decompose,
    decomposition_value,
    evaluate,
    symbols,
    symbols_in,
)

sympy = pytest.importorskip("sympy")

a, b, c = symbols("a b c")
ROOT_POOL = [a, b, c, a + b, a - b, 2 * a + 1, Constant(Fraction(1, 2)), Constant(-3)]


def to_sympy(e):
    """Rebuild a canonical Expr as a SymPy expression, node by node."""
    if isinstance(e, Constant):
        return sympy.Rational(e.value.numerator, e.value.denominator)
    if isinstance(e, Symbol):
        return sympy.Symbol(e.name)
    if isinstance(e, Sum):
        return sympy.Add(*map(to_sympy, e.terms))
    if isinstance(e, Product):
        return sympy.Mul(*map(to_sympy, e.factors))
    assert isinstance(e, Power)
    return sympy.Pow(to_sympy(e.base), e.exponent)


def small_specs(seed, count):
    """At most 3 roots of multiplicity at most 2; proper and improper (up to
    three degrees above the denominator, where sympy.apart stays fast)."""
    rng = random.Random(seed)
    for k in range(count):
        roots = rng.sample(ROOT_POOL, rng.randint(1, 3))
        mults = [rng.randint(1, 2) for _ in roots]
        m = sum(mults)
        l = rng.randint(0, m - 1) if k % 2 else rng.randint(m, m + 3)
        yield RationalFunctionSpec(l, tuple(zip(roots, mults)))


@pytest.mark.parametrize("spec", list(small_specs(2024, 12)))
def test_matches_sympy_apart(spec):
    x = sympy.Symbol("x")
    denominator = sympy.Integer(1)
    for root, mult in spec.factors:
        denominator *= (x - to_sympy(root)) ** mult
    reference = sympy.apart(x**spec.numerator_degree / denominator, x)
    d = decompose(spec)
    names = sorted(set().union(*(symbols_in(r) for r in spec.roots)))
    rng = random.Random(7)
    trials = 0
    while trials < 3:
        bind = {n: Fraction(rng.randint(-50, 50), rng.randint(1, 9)) for n in names}
        if len({evaluate(r, bind) for r in spec.roots}) < len(spec.roots):
            continue  # roots collide at this binding
        trials += 1
        point = Fraction(rng.randint(1000, 2000), rng.randint(1, 3))  # beyond every root
        value = reference.subs({sympy.Symbol(n): sympy.Rational(v.numerator, v.denominator)
                                for n, v in {**bind, "x": point}.items()})
        assert value.is_Rational
        assert Fraction(int(value.p), int(value.q)) == decomposition_value(d, bind, point)
