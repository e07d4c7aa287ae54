"""Improper inputs: numerator degree >= denominator degree.

The pole terms come from the same closed formula as for proper inputs, at
the real numerator degree.  The quotient sum_j h_j * x^(l-m-j) is another
sum over weak compositions: h_j is the complete homogeneous symmetric
polynomial of the roots taken with multiplicity, so the leading quotient
coefficients are polynomials in the roots.  Deep coefficients, where that
polynomial would have many terms, are sums of residues instead, one term
per pole.  No polynomial division is done.
"""

from partfrac import (
    Constant,
    RationalFunctionSpec,
    decompose,
    poly_div,
    serialize,
    symbols,
)

a, b = symbols("a b")

# x^3 / (x - a): plain long division, done symbolically.
spec = RationalFunctionSpec(3, ((a, 1),))
d = decompose(spec)
print("x^3/(x - a)      =", serialize(d))

# x^3 / ((x - a)(x - b)): the quotient is x + (a + b), h_1 = a + b.
spec_ab = RationalFunctionSpec(3, ((a, 1), (b, 1)))
print("x^3/((x-a)(x-b)) =", serialize(decompose(spec_ab)))

# x^5 / ((x - 1)(x - 2)^2): numeric roots fold the quotient to plain numbers.
spec2 = RationalFunctionSpec(5, ((Constant(1), 1), (Constant(2), 2)))
d2 = decompose(spec2)
print("x^5/((x-1)(x-2)^2) =", serialize(d2))
print("quotient terms:", [(m.degree, str(m.coefficient)) for m in d2.monomials])

# poly_div is exposed directly: coefficient * x^p / (x - root)^q, the
# one-factor case of decompose.
fragment = poly_div(Constant(1), 4, 2, a)
print()
print("x^4/(x - a)^2    =", serialize(fragment))
