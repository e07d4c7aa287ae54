"""Independent verification of decompositions.

Two deliberately separate checks:

* :func:`oracle_decompose` — the classical undetermined-coefficients method
  over exact rationals: build the denominator polynomial, equate
  coefficients, solve the linear system by Gaussian elimination.  It shares
  no code with the closed-formula engine, so agreement is meaningful.
* :func:`check_by_substitution` — draw random rational values for every
  symbol (rejecting draws that collide two roots), then compare the original
  rational function against the decomposed sum at random x points.  All
  arithmetic is exact, so any disagreement is a real counterexample.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from .core import Decomposition, PoleTerm, RationalFunctionSpec
from .expr import Constant, Expr, Numeric, Power, Product, Sum, Symbol, _evaluator

__all__ = [
    "DensePolynomial",
    "oracle_decompose",
    "rational_function_value",
    "decomposition_value",
    "Counterexample",
    "SubstitutionReport",
    "TooLargeToVerify",
    "check_by_substitution",
    "compare_with_oracle",
]


@dataclass(frozen=True)
class DensePolynomial:
    """Dense polynomial over Fraction; coefficients[i] is the x^i coefficient.

    Normalized so the leading coefficient is nonzero; the zero polynomial has
    no coefficients at all.
    """

    coefficients: tuple[Fraction, ...]

    def __post_init__(self):
        coeffs = tuple(Fraction(c) for c in self.coefficients)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1  # -1 for the zero polynomial

    def coefficient(self, degree: int) -> Fraction:
        if 0 <= degree < len(self.coefficients):
            return self.coefficients[degree]
        return Fraction(0)

    def __add__(self, other: "DensePolynomial") -> "DensePolynomial":
        n = max(len(self.coefficients), len(other.coefficients))
        return DensePolynomial(
            tuple(self.coefficient(i) + other.coefficient(i) for i in range(n))
        )

    def __mul__(self, other: "DensePolynomial") -> "DensePolynomial":
        if not self.coefficients or not other.coefficients:
            return DensePolynomial(())
        out = [Fraction(0)] * (len(self.coefficients) + len(other.coefficients) - 1)
        for i, a in enumerate(self.coefficients):
            for j, b in enumerate(other.coefficients):
                out[i + j] += a * b
        return DensePolynomial(tuple(out))

    def __divmod__(self, divisor: "DensePolynomial") -> tuple["DensePolynomial", "DensePolynomial"]:
        if not divisor.coefficients:
            raise ZeroDivisionError("polynomial division by zero")
        remainder = list(self.coefficients)
        dd = divisor.degree
        lead = divisor.coefficients[-1]
        quotient = [Fraction(0)] * max(len(remainder) - dd, 0)
        for i in range(len(remainder) - 1, dd - 1, -1):
            factor = remainder[i] / lead
            if factor == 0:
                continue
            quotient[i - dd] = factor
            for j, c in enumerate(divisor.coefficients):
                remainder[i - dd + j] -= factor * c
        return DensePolynomial(tuple(quotient)), DensePolynomial(tuple(remainder[:dd]))

    def __call__(self, x: Fraction) -> Fraction:
        total = Fraction(0)
        for c in reversed(self.coefficients):
            total = total * x + c
        return total

    @staticmethod
    def monomial(degree: int, coefficient: Fraction = Fraction(1)) -> "DensePolynomial":
        if degree < 0:
            raise ValueError(f"monomial degree must be >= 0, got {degree}")
        return DensePolynomial((Fraction(0),) * degree + (Fraction(coefficient),))

    @staticmethod
    def linear_factor(root: Fraction) -> "DensePolynomial":
        """x - root"""
        return DensePolynomial((-Fraction(root), Fraction(1)))


def _solve_exact(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Gaussian elimination over Fraction; raises on a singular matrix."""
    n = len(matrix)
    a = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise ArithmeticError("singular linear system")
        a[col], a[pivot] = a[pivot], a[col]
        inv = 1 / a[col][col]
        a[col] = [v * inv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


def oracle_decompose(
    l: int, roots: Sequence[Fraction], mults: Sequence[int]
) -> Decomposition:
    """Decompose x^l / prod (x - roots[i])^mults[i] for rational roots by
    undetermined coefficients.  Requires a proper input (0 <= l < sum(mults)).
    """
    if l < 0:
        raise ValueError(f"need l >= 0, got l={l}")
    return _oracle_proper(DensePolynomial.monomial(l), roots, mults)


def _oracle_proper(
    numerator: DensePolynomial, roots: Sequence[Fraction], mults: Sequence[int]
) -> Decomposition:
    """Decompose numerator(x) / prod (x - roots[i])^mults[i], numerator of
    degree < sum(mults), with one linear solve whose right-hand side is the
    numerator's coefficient vector.
    """
    roots = [Fraction(r) for r in roots]
    if len(roots) != len(mults):
        raise ValueError("roots and multiplicities differ in length")
    if len(set(roots)) != len(roots):
        raise ValueError("roots must be pairwise distinct")
    if any(m < 1 for m in mults):
        raise ValueError("multiplicities must be >= 1")
    m = sum(mults)
    if numerator.degree >= m:
        raise ValueError(f"need numerator degree < {m}, got {numerator.degree}")

    # One basis polynomial per unknown c_ij: Q(x) / (x - a_i)^j.
    columns: list[tuple[int, int, DensePolynomial]] = []
    for i, (a_i, m_i) in enumerate(zip(roots, mults)):
        rest = DensePolynomial((Fraction(1),))
        for k, (a_k, m_k) in enumerate(zip(roots, mults)):
            if k == i:
                continue
            for _ in range(m_k):
                rest = rest * DensePolynomial.linear_factor(a_k)
        for j in range(1, m_i + 1):
            basis = rest
            for _ in range(m_i - j):
                basis = basis * DensePolynomial.linear_factor(a_i)
            columns.append((i, j, basis))

    matrix = [[col.coefficient(row) for _, _, col in columns] for row in range(m)]
    rhs = [numerator.coefficient(row) for row in range(m)]
    try:
        solution = _solve_exact(matrix, rhs)
    except ArithmeticError as exc:  # cannot happen for distinct roots
        raise AssertionError(
            "undetermined-coefficients system was singular despite distinct roots"
        ) from exc

    poles = [
        PoleTerm(i, j, Constant(c))
        for (i, j, _), c in zip(columns, solution)
        if c != 0
    ]
    return Decomposition(
        roots=tuple(Constant(r) for r in roots), monomials=(), poles=tuple(poles)
    )


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
    return _decomposition_value(*_instantiate(d, _evaluator(bindings)), Fraction(x))


def _spec_value(spec: RationalFunctionSpec, root_values: Sequence, x: Fraction) -> Fraction:
    value = x**spec.numerator_degree
    for root, mult in zip(root_values, spec.multiplicities):
        value *= (x - root) ** (-mult)
    return value


def _instantiate(d: Decomposition, value: Callable[[Expr], Numeric]) -> tuple[list, list]:
    """The terms of ``d`` under one binding: (degree, coefficient) per
    monomial and (root, order, coefficient) per pole."""
    monomials = [(m.degree, value(m.coefficient)) for m in d.monomials]
    poles = [(value(d.roots[p.pole_index]), p.order, value(p.coefficient)) for p in d.poles]
    return monomials, poles


def _decomposition_value(monomials: list, poles: list, x: Fraction) -> Fraction:
    total = Fraction(0)
    for degree, coeff in monomials:
        total += coeff * x**degree
    for root, order, coeff in poles:
        total += coeff * (x - root) ** (-order)
    return total


@dataclass(frozen=True)
class Counterexample:
    bindings: dict[str, Fraction]
    x: Fraction
    original: Fraction
    decomposed: Fraction


@dataclass(frozen=True)
class SubstitutionReport:
    passed: bool
    trials: int
    points_checked: int
    counterexample: Counterexample | None

    def __str__(self) -> str:
        if self.passed:
            return (
                f"substitution check passed: {self.trials} trials, "
                f"{self.points_checked} points"
            )
        ce = self.counterexample
        return (
            f"substitution check FAILED at x={ce.x} with bindings {ce.bindings}: "
            f"original={ce.original} decomposed={ce.decomposed}"
        )


_DRAW = 10**6  # symbols and x are drawn as p/q with 1 <= p, q <= _DRAW
_BINDING_BITS = 2 * _DRAW.bit_length()
# Substitution refuses an input whose evaluation would reach a number of more
# bits than this (numerator plus denominator).  The gcd of two such numbers
# takes about 0.15 s, and the cost grows with the square of the length.
_MAX_BITS = 1 << 18


class TooLargeToVerify(ValueError):
    """Substitution would evaluate numbers too long for exact arithmetic."""


def _random_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, _DRAW), rng.randint(1, _DRAW))


def check_by_substitution(
    spec: RationalFunctionSpec,
    d: Decomposition,
    trials: int = 20,
    seed: int = 0,
    points_per_trial: int = 1,
) -> SubstitutionReport:
    """Compare spec and decomposition values at random rational points.

    Each trial draws one set of symbol bindings (redrawn if two roots
    collide) and ``points_per_trial`` x values avoiding all poles.  Stops at
    the first counterexample.  All expressions are evaluated through one
    memo per binding.  Raises :class:`TooLargeToVerify` before evaluating
    anything when a power would reach a number of more than ``_MAX_BITS``
    bits.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    names = _symbol_names(spec, d)
    rng = random.Random(seed)
    checked = 0
    for _ in range(trials):
        for _ in range(100):
            bindings = {name: _random_fraction(rng) for name in names}
            value = _evaluator(bindings)  # one memo per binding
            spec_roots = [value(root) for root in spec.roots]
            if len(set(spec_roots)) == len(spec_roots):
                break
        else:  # pragma: no cover - collision probability is negligible
            raise RuntimeError("could not draw non-colliding root values")
        # Instantiate every term once per binding; the x loop then only does
        # cheap rational arithmetic.
        monomials, poles = _instantiate(d, value)
        avoid = set(spec_roots) | {root for root, _, _ in poles}
        for _ in range(points_per_trial):
            x = _random_fraction(rng)
            while x in avoid:  # pragma: no cover - negligible probability
                x = _random_fraction(rng)
            original = _spec_value(spec, spec_roots, x)
            decomposed = _decomposition_value(monomials, poles, x)
            checked += 1
            if original != decomposed:
                return SubstitutionReport(
                    False, trials, checked,
                    Counterexample(bindings, x, original, decomposed),
                )
    return SubstitutionReport(True, trials, checked, None)


def _symbol_names(spec: RationalFunctionSpec, d: Decomposition) -> list[str]:
    """The sorted symbol names of ``spec`` and ``d``, found in one walk that
    visits each distinct node once.  Refuses, before anything is evaluated,
    a power whose value would have more than ``_MAX_BITS`` bits."""
    nodes = _distinct_nodes(
        (*spec.roots, *d.roots, *(t.coefficient for t in (*d.monomials, *d.poles)))
    )
    memo: dict[Expr, int] = {}
    largest = max((_bits(e, memo) for e in nodes if isinstance(e, Power)), default=0)
    if largest > _MAX_BITS:
        raise TooLargeToVerify(
            f"substitution would evaluate numbers of about {largest} bits, "
            f"more than the limit of {_MAX_BITS}"
        )
    return sorted(e.name for e in nodes if isinstance(e, Symbol))


def _distinct_nodes(exprs: Iterable[Expr]) -> set[Expr]:
    """The Symbol, Sum and Power nodes under ``exprs``, each visited once."""
    seen: set[Expr] = set()
    stack = list(exprs)
    while stack:
        e = stack.pop()
        if isinstance(e, Product):
            stack.extend(e.factors)
        elif not isinstance(e, Constant) and e not in seen:
            seen.add(e)
            if isinstance(e, Sum):
                stack.extend(e.terms)
            elif isinstance(e, Power):
                stack.append(e.base)
    return seen


def _bits(e: Expr, memo: dict[Expr, int]) -> int:
    """Upper estimate of the bits (numerator plus denominator) of ``e``'s
    value under drawn bindings: the bits of a sum or product add up, a
    power multiplies its base's by the exponent."""
    if isinstance(e, Constant):
        return e.value.numerator.bit_length() + e.value.denominator.bit_length()
    if isinstance(e, Symbol):
        return _BINDING_BITS
    if e not in memo:
        if isinstance(e, Power):
            memo[e] = abs(e.exponent) * _bits(e.base, memo)
        else:
            memo[e] = sum(_bits(c, memo) for c in (e.terms if isinstance(e, Sum) else e.factors))
    return memo[e]


def compare_with_oracle(spec: RationalFunctionSpec, d: Decomposition) -> str | None:
    """Exact term-for-term comparison against the undetermined-coefficients
    oracle.  Requires all-rational roots.  Classical dense long division
    splits off the quotient (empty for proper inputs) and the remainder is
    decomposed with one linear solve, so no step shares code with the
    closed-formula engine.  Returns None on agreement, else a mismatch
    description.
    """
    if not all(isinstance(root, Constant) for root in spec.roots):
        raise ValueError("oracle comparison requires all-rational roots")
    roots = [root.value for root in spec.roots]
    mults = list(spec.multiplicities)
    l = spec.numerator_degree

    denominator = DensePolynomial((Fraction(1),))
    for root, mult in zip(roots, mults):
        for _ in range(mult):
            denominator = denominator * DensePolynomial.linear_factor(root)
    quotient, remainder = divmod(DensePolynomial.monomial(l), denominator)
    want_monomials = {
        degree: coeff for degree, coeff in enumerate(quotient.coefficients) if coeff != 0
    }
    want_poles = {
        (p.pole_index, p.order): p.coefficient.value
        for p in _oracle_proper(remainder, roots, mults).poles
    }

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
