"""Independent verification of decompositions.

Two deliberately separate checks:

* :func:`oracle_decompose` — the classical undetermined-coefficients method
  in integers: clear the roots' denominators once, build each basis
  polynomial by exact division of the previous one, and solve the linear
  system by fraction-free (Bareiss) elimination; each coefficient becomes a
  Fraction only at the end.  It shares no code with the closed-formula
  engine, so agreement is meaningful.
* :func:`check_by_substitution` — draw a random 62-bit prime p, a random
  value in GF(p) for each symbol when evaluation first meets it and then
  for x, and compare the original rational function against the decomposed
  sum mod p.  Any disagreement is a real counterexample.  Each symbol gets
  one independent uniform value, so by the Schwartz-Zippel lemma a wrong
  result passes a trial with probability at most D/p, D the degree of the
  identity with its denominators cleared, plus the chance that p divides
  all of its integer coefficients.  No value grows past p.
"""

from __future__ import annotations

import random
from collections import namedtuple
from collections.abc import Callable, Mapping, Sequence
from fractions import Fraction
from math import gcd

from .core import Decomposition, PoleTerm, RationalFunctionSpec
from .expr import Constant, Expr, Numeric, _evaluator, _random_prime, _RandomBindings

__all__ = [
    "oracle_decompose",
    "rational_function_value",
    "decomposition_value",
    "Counterexample",
    "SubstitutionReport",
    "check_by_substitution",
    "compare_with_oracle",
]


def oracle_decompose(
    l: int, roots: Sequence[Fraction], mults: Sequence[int]
) -> Decomposition:
    """Decompose x^l / prod (x - roots[i])^mults[i] for rational roots by
    undetermined coefficients.  Requires a proper input (0 <= l < sum(mults)).
    """
    if l < 0:
        raise ValueError(f"need l >= 0, got l={l}")
    roots, cleared = _cleared_denominator(roots, mults)
    if l >= len(cleared) - 1:
        raise ValueError(f"need numerator degree < {len(cleared) - 1}, got {l}")
    poles = _undetermined_coefficients(l, roots, mults, cleared)[1]
    terms = tuple(PoleTerm(i, j, Constant(c)) for (i, j), c in poles.items())
    return Decomposition(tuple(Constant(r) for r in roots), (), terms)


def _cleared_denominator(
    roots: Sequence[Fraction], mults: Sequence[int]
) -> tuple[list[Fraction], list[int]]:
    """The roots as Fractions, and the integer coefficients, x^0 first, of
    prod L_k^mults[k] with L_k = q_k*x - p_k for the root p_k/q_k."""
    roots = [Fraction(r) for r in roots]
    if len(roots) != len(mults):
        raise ValueError("roots and multiplicities differ in length")
    if len(set(roots)) != len(roots):
        raise ValueError("roots must be pairwise distinct")
    if any(m < 1 for m in mults):
        raise ValueError("multiplicities must be >= 1")
    cleared = [1]
    for root, mult in zip(roots, mults):
        for _ in range(mult):
            cleared = [
                root.denominator * b - root.numerator * a
                for a, b in zip(cleared + [0], [0] + cleared)
            ]
    return roots, cleared


def _undetermined_coefficients(
    l: int, roots: list[Fraction], mults: Sequence[int], cleared: list[int]
) -> tuple[dict[int, Fraction], dict[tuple[int, int], Fraction]]:
    """The quotient {degree: coefficient} and the nonzero pole coefficients
    {(i, j): c_ij} of x^l / Q, where Q = prod (x - roots[i])^mults[i] is
    ``cleared`` over its leading coefficient S.  Dividing S^e * x^l by
    ``cleared`` stays in ints for e = max(l - m + 1, 0), and x^l / Q =
    factors / S^(e-1) + (rest / S^e) / Q.  As cleared / L_i^j equals
    (S / q_i^j) * Q / (x - roots[i])^j, the integer solve for rest / common
    gives y_ij = c_ij * q_i^j * D / S with D = S^e / common.
    """
    m, lead = len(cleared) - 1, cleared[-1]
    e = max(l - m + 1, 0)
    scale = lead**e
    rest = [0] * max(l + 1, m)
    rest[l] = scale
    factors = [0] * e
    for i in range(l, m - 1, -1):
        factors[i - m] = factor = rest[i] // lead
        for j, c in enumerate(cleared):
            rest[i - m + j] -= factor * c
    quotient = {k: Fraction(f, lead ** (e - 1)) for k, f in enumerate(factors) if f}
    common = gcd(scale, *rest[:m])  # D = scale // common: the lcm of the denominators

    keys, columns = [], []
    for i, (root, mult) in enumerate(zip(roots, mults)):
        column = cleared
        for j in range(1, mult + 1):
            # cleared / L_i^j by exact synthetic division of cleared / L_i^(j-1)
            below, carry = [0] * (len(column) - 1), 0
            for k in range(len(column) - 1, 0, -1):
                carry = below[k - 1] = (column[k] + root.numerator * carry) // root.denominator
            column = below
            keys.append((i, j))
            columns.append(column + [0] * (j - 1))
    rows = [list(row) for row in zip(*columns, (c // common for c in rest[:m]))]
    # Fraction-free Gauss-Jordan elimination (Bareiss): every division by the
    # previous pivot is exact, and at the end each diagonal entry is the last
    # pivot, the determinant up to sign, and the last column is it times y.
    previous = 1
    for k in range(m):
        found = next((r for r in range(k, m) if rows[r][k]), None)
        if found is None:  # cannot happen for distinct roots
            raise AssertionError(
                "undetermined-coefficients system was singular despite distinct roots"
            )
        rows[k], rows[found] = rows[found], rows[k]
        pivot = rows[k][k]
        for r in range(m):
            if r != k:
                f = rows[r][k]
                rows[r] = [(pivot * v - f * w) // previous for v, w in zip(rows[r], rows[k])]
        previous = pivot
    denominator = previous * (scale // common)
    poles = {
        (i, j): Fraction(row[m] * lead, denominator * roots[i].denominator**j)
        for (i, j), row in zip(keys, rows)
        if row[m]
    }
    return quotient, poles


# --- substitution checking ----------------------------------------------------


def rational_function_value(
    spec: RationalFunctionSpec, bindings: Mapping[str, Fraction], x: Fraction
) -> Fraction:
    """Exact value of x^l * prod (x - a_k)^(-m_k) at a rational point."""
    value = _evaluator(bindings)
    return _spec_value(spec, [value(root) for root in spec.roots], Fraction(x))


def decomposition_value(
    d: Decomposition, bindings: Mapping[str, Fraction], x: Fraction
) -> Fraction:
    """Exact value of the decomposed sum at a rational point."""
    return Fraction(_decomposition_value(*_instantiate(d, _evaluator(bindings)), Fraction(x)))


# pow(b, k, None) is b**k, so the two helpers below are exact for a Fraction
# x and compute mod p for an int x in [0, p) given p.


def _spec_value(
    spec: RationalFunctionSpec, root_values: Sequence, x: Numeric, p: int | None = None
) -> Numeric:
    value = pow(x, spec.numerator_degree, p)
    for root, mult in zip(root_values, spec.multiplicities):
        value *= pow(x - root, -mult, p)
        if p:
            value %= p
    return value


def _instantiate(d: Decomposition, value: Callable[[Expr], Numeric]) -> tuple[list, list]:
    """The terms of ``d`` under one binding: (degree, coefficient) per
    monomial and (root, order, coefficient) per pole."""
    monomials = [(m.degree, value(m.coefficient)) for m in d.monomials]
    roots = [value(root) for root in d.roots]
    poles = [(roots[p.pole_index], p.order, value(p.coefficient)) for p in d.poles]
    return monomials, poles


def _decomposition_value(
    monomials: list, poles: list, x: Numeric, p: int | None = None
) -> Numeric:
    total = 0
    for degree, coeff in monomials:
        total += coeff * pow(x, degree, p)
    inverses = {}  # 1 / (x - root), one inversion per distinct root
    for root, order, coeff in poles:
        inverse = inverses.get(root)
        if inverse is None:
            inverse = inverses[root] = pow(x - root, -1, p)
        total += coeff * pow(inverse, order, p)
    return total % p if p else total


class Counterexample(namedtuple("Counterexample", "bindings x original decomposed modulus")):
    """A point where the two sides differ mod ``modulus``: ``bindings`` is
    the sorted tuple of (name, value) pairs, given as a mapping or as pairs,
    and every value, x and both sides are ints in [0, modulus)."""

    __slots__ = ()

    def __new__(cls, bindings, x: int, original: int, decomposed: int, modulus: int):
        return super().__new__(
            cls, tuple(sorted(dict(bindings).items())), x, original, decomposed, modulus
        )

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace normalizes

    def __str__(self) -> str:
        return (
            f"x={self.x} with bindings {dict(self.bindings)} mod p={self.modulus}: "
            f"original={self.original} decomposed={self.decomposed}"
        )


class SubstitutionReport(namedtuple("SubstitutionReport", "trials points_checked counterexample")):
    """The outcome of :func:`check_by_substitution`; ``counterexample`` is None on a pass."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.counterexample is None

    def __str__(self) -> str:
        if self.passed:
            return (
                f"substitution check passed: {self.trials} trials, "
                f"{self.points_checked} points"
            )
        return f"substitution check FAILED at {self.counterexample}"


def check_by_substitution(
    spec: RationalFunctionSpec,
    d: Decomposition,
    trials: int = 20,
    seed: int = 0,
    points_per_trial: int = 1,
) -> SubstitutionReport:
    """Compare spec and decomposition values at random points mod a prime.

    Each trial draws a prime p of 62 bits, a value in GF(p) for every
    symbol, and ``points_per_trial`` values of x in GF(p), then evaluates
    both sides mod p.  The prime and the bindings are drawn again together
    while a Constant's denominator, the base of a negative power or the
    difference of two roots is 0 mod p; x is drawn again while it hits a
    root.  Stops at the first counterexample.  Each symbol is drawn when
    evaluation first meets it; one memo per binding keeps every power
    raised, and no value grows past p.

    One trial costs about 10 modular exponentiations for its prime (7
    Miller-Rabin bases, and one more per composite candidate that no prime
    below 300 divides; the 20 primes of seeds 0-19 take 196), one
    evaluation of each term with one ``pow`` per distinct Power node, and
    per point one ``pow`` per term plus one modular inversion per distinct
    root.

    A disagreement is a real counterexample.  Agreement is a proof up to
    chance: clear the denominators of the difference of the two sides to a
    polynomial of degree D in the symbols and x.  If it is not zero, a
    trial passes it with probability at most D/p (Schwartz-Zippel), plus the
    chance that p divides all of its integer coefficients.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if points_per_trial < 1:
        raise ValueError(f"points_per_trial must be >= 1, got {points_per_trial}")
    rng = random.Random(seed)
    checked = 0
    for _ in range(trials):
        for _ in range(100):
            p = _random_prime(rng)
            bindings = _RandomBindings(rng, p)
            value = _evaluator(bindings, modulus=p)  # one memo per binding
            try:
                spec_roots = [value(root) for root in spec.roots]
                # Instantiate every term once per binding; the x loop then
                # only does a few operations mod p per term.
                monomials, poles = _instantiate(d, value)
            except ZeroDivisionError:
                continue
            if len(set(spec_roots)) == len(spec_roots):
                break
        else:  # pragma: no cover - collision probability is negligible
            raise RuntimeError("could not draw non-colliding root values")
        avoid = set(spec_roots) | {root for root, _, _ in poles}
        for _ in range(points_per_trial):
            x = rng.randrange(p)
            while x in avoid:  # pragma: no cover - negligible probability
                x = rng.randrange(p)
            original = _spec_value(spec, spec_roots, x, p)
            decomposed = _decomposition_value(monomials, poles, x, p)
            checked += 1
            if original != decomposed:
                return SubstitutionReport(
                    trials, checked, Counterexample(bindings, x, original, decomposed, p)
                )
    return SubstitutionReport(trials, checked, None)


def compare_with_oracle(spec: RationalFunctionSpec, d: Decomposition) -> str | None:
    """Exact term-for-term comparison against the undetermined-coefficients
    oracle.  Requires all-rational roots.  Long division by the cleared
    denominator splits off the quotient (empty for proper inputs) and the
    remainder is decomposed with one integer, fraction-free linear solve, so
    no step shares code with the closed-formula engine.  Returns None on
    agreement, else a mismatch description: the first factor with a pole
    term whose root is not the spec's, or the first coefficient that
    differs.  A root with no pole term does not enter the value, so a root
    list that omits it, as a batch's does, agrees.
    """
    if not all(isinstance(root, Constant) for root in spec.roots):
        raise ValueError("oracle comparison requires all-rational roots")
    for i in sorted({p.pole_index for p in d.poles}):
        got, want = d.roots[i], spec.roots[i] if i < len(spec.roots) else None
        if got != want:
            return f"root mismatch at factor {i + 1}: engine={got} spec={want}"
    roots, cleared = _cleared_denominator(
        [root.value for root in spec.roots], spec.multiplicities
    )
    want_monomials, want_poles = _undetermined_coefficients(
        spec.numerator_degree, roots, spec.multiplicities, cleared
    )

    for term in (*d.monomials, *d.poles):
        if not isinstance(term.coefficient, Constant):
            return f"coefficient {term.coefficient} is not rational"
    got_monomials = {m.degree: m.coefficient.value for m in d.monomials}
    got_poles = {(p.pole_index, p.order): p.coefficient.value for p in d.poles}
    if got_monomials != want_monomials:
        return (
            f"quotient mismatch: engine={_render_values(got_monomials)} "
            f"oracle={_render_values(want_monomials)}"
        )
    if got_poles == want_poles:
        return None
    for key in sorted(set(got_poles) | set(want_poles)):
        a, b = got_poles.get(key), want_poles.get(key)
        if a != b:
            return (
                f"coefficient mismatch at factor {key[0] + 1} order {key[1]}: "
                f"engine={a} oracle={b}"
            )
    return "decompositions differ"  # pragma: no cover


def _render_values(values: Mapping) -> str:
    """``{k: v, ...}`` with each value in its text form, so an int and an
    equal Fraction read the same."""
    return "{" + ", ".join(f"{k}: {v}" for k, v in values.items()) + "}"
