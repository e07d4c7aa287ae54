"""Checking results independently.

Two separate referees: random substitution modulo a random 62-bit prime
(works for symbolic roots, however large the expressions) and the classical
undetermined-coefficients method (rational roots), which shares no code with
the closed-formula engine.  A counterexample is printed with its prime.
"""

from fractions import Fraction

from partfrac import (
    Constant,
    Decomposition,
    PoleTerm,
    RationalFunctionSpec,
    check_by_substitution,
    compare_with_oracle,
    decompose,
    oracle_decompose,
    serialize,
    symbols,
)

a, b = symbols("a b")

spec = RationalFunctionSpec(2, ((a, 2), (b, 1)))
d = decompose(spec)
print("x^2/((x-a)^2 (x-b)) =", serialize(d))
print(check_by_substitution(spec, d, trials=20, seed=1))
print()

# Sabotage one coefficient; the checker pinpoints a counterexample.
bad = Decomposition(
    d.roots,
    d.monomials,
    (PoleTerm(d.poles[0].pole_index, d.poles[0].order, d.poles[0].coefficient + 1),)
    + d.poles[1:],
)
report = check_by_substitution(spec, bad, trials=20, seed=1)
print("after perturbing a coefficient:")
print(report)
print()

# Rational roots also allow an exact term-for-term oracle comparison.
numeric = RationalFunctionSpec(
    1, ((Constant(Fraction(1, 3)), 2), (Constant(-2), 1))
)
print("oracle comparison (None means exact agreement):",
      compare_with_oracle(numeric, decompose(numeric)))
print("oracle's own answer:", serialize(oracle_decompose(1, [Fraction(1, 3), Fraction(-2)], [2, 1])))
