"""Partial fraction decomposition of x^l / prod_k (x - a_k)^(m_k).

The roots a_k are opaque canonical expressions (symbols, rationals, or
arithmetic combinations of both) that must be pairwise distinct and free of
the decomposition variable.  Proper inputs are decomposed by a closed
residue formula whose derivatives have been expanded into a sum over weak
compositions weighted by binomial coefficients, so no symbolic
differentiation is ever performed.  Improper inputs are first split into a
monomial times a proper fraction, decomposed, and finished with a symbolic
polynomial division of each x^p / (x - a)^q piece.  Each route produces
raw terms and hands them to :func:`collect`, the package's one merge.

Everything here is pure and immutable: decompositions are value objects and
the same input always yields byte-identical output downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Iterator

from .combinatorics import binomial, compositions
from .expr import ONE, ZERO, Constant, Expr, Power, Product, Sum, expand, product_of, sum_of

__all__ = [
    "DuplicateRootError",
    "RationalFunctionSpec",
    "PoleTerm",
    "MonomialTerm",
    "Decomposition",
    "proper_contributions",
    "decompose_proper",
    "poly_div",
    "decompose",
    "decompose_batch",
    "collect",
]


class DuplicateRootError(ValueError):
    """Two denominator factors share a root (after expansion)."""

    def __init__(self, first: int, second: int, root: Expr):
        super().__init__(
            f"factors {first + 1} and {second + 1} share the root {root}; "
            "roots must be pairwise distinct"
        )
        self.first = first
        self.second = second
        self.root = root


@dataclass(frozen=True)
class RationalFunctionSpec:
    """The input x^l * prod_k (x - root_k)^(-mult_k).

    ``factors`` is an ordered sequence of (root, multiplicity) pairs.  Roots
    must be canonical expressions with no zero divisor, pairwise distinct as
    rational functions of their symbols.  Each root is brought to expanded
    numerator/denominator polynomials once; a pair with equal denominators
    (every pair of polynomial roots) compares numerators, any other pair
    expands its cross-multiplied difference.
    """

    numerator_degree: int
    factors: tuple[tuple[Expr, int], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "factors", tuple((root, int(mult)) for root, mult in self.factors)
        )
        if self.numerator_degree < 0:
            raise ValueError(f"numerator degree must be >= 0, got {self.numerator_degree}")
        if not self.factors:
            raise ValueError("at least one denominator factor is required")
        for root, mult in self.factors:
            if not isinstance(root, Expr):
                raise TypeError(f"root must be an Expr, got {type(root).__name__}")
            if mult < 1:
                raise ValueError(f"multiplicity must be >= 1, got {mult}")
        fractions = []
        for idx, root in enumerate(self.roots, start=1):
            try:
                n, d = _numerator_denominator(root)
            except ZeroDivisionError:
                raise ValueError(f"root {idx} is undefined: it divides by zero") from None
            fractions.append((expand(n), expand(d)))
        for i in range(len(fractions)):
            for k in range(i + 1, len(fractions)):
                (n_i, d_i), (n_k, d_k) = fractions[i], fractions[k]
                if d_i == d_k:  # expand is canonical: compare the numerators
                    same = n_i == n_k
                else:
                    same = expand(n_i * d_k - n_k * d_i) == ZERO
                if same:
                    raise DuplicateRootError(i, k, self.factors[i][0])

    @property
    def roots(self) -> tuple[Expr, ...]:
        return tuple(root for root, _ in self.factors)

    @property
    def multiplicities(self) -> tuple[int, ...]:
        return tuple(mult for _, mult in self.factors)

    @property
    def denominator_degree(self) -> int:
        return sum(self.multiplicities)

    @property
    def is_proper(self) -> bool:
        return self.numerator_degree < self.denominator_degree


def _numerator_denominator(e: Expr) -> tuple[Expr, Expr]:
    """Polynomials (n, d) with e == n / d; d is ONE when e has no negative
    power.  Expanding n_i*d_k - n_k*d_i then decides e_i == e_k exactly.
    Raises ZeroDivisionError when a base raised to a negative power expands
    to zero, at any depth."""
    if isinstance(e, Power):
        n, d = _numerator_denominator(e.base)
        k = e.exponent
        if k > 0:
            return n**k, d**k
        if expand(n) == ZERO:
            raise ZeroDivisionError(f"{e.base} is zero")
        return d**-k, n**-k
    if isinstance(e, Product):
        parts = [_numerator_denominator(f) for f in e.factors]
        return product_of(n for n, _ in parts), product_of(d for _, d in parts)
    if isinstance(e, Sum):
        parts = [_numerator_denominator(t) for t in e.terms]
        dens = [d for _, d in parts]
        numerator = sum_of(
            product_of([n, *dens[:j], *dens[j + 1:]]) for j, (n, _) in enumerate(parts)
        )
        return numerator, product_of(dens)
    return e, ONE


@dataclass(frozen=True)
class PoleTerm:
    """coefficient / (x - roots[pole_index])^order"""

    pole_index: int  # 0-based index into the owning Decomposition's roots
    order: int
    coefficient: Expr


@dataclass(frozen=True)
class MonomialTerm:
    """coefficient * x^degree"""

    degree: int
    coefficient: Expr


@dataclass(frozen=True)
class Decomposition:
    """An ordered sum of monomial and pole terms.

    ``monomials`` is sorted by ascending degree, ``poles`` by
    (pole_index, order); after collection each key appears at most once and
    no coefficient is structurally zero.
    """

    roots: tuple[Expr, ...]
    monomials: tuple[MonomialTerm, ...]
    poles: tuple[PoleTerm, ...]

    def __post_init__(self):
        object.__setattr__(self, "roots", tuple(self.roots))
        object.__setattr__(self, "monomials", tuple(self.monomials))
        object.__setattr__(self, "poles", tuple(self.poles))


def proper_contributions(spec: RationalFunctionSpec) -> Iterator[tuple[int, int, Expr]]:
    """Yield the raw (pole_index, order, coefficient) contributions of the
    closed formula for a proper input, one per surviving composition.

    For factor i the enumeration runs over all weak compositions
    (j_num, j_pole, j_1, ..., j_{i-1}, j_{i+1}, ..., j_n) of m_i - 1 into
    n + 1 parts.  Each one contributes

        C(l, j_num) * a_i^(l - j_num)
        * prod_{k != i} C(m_k + j_k - 1, j_k) * (-1)^(j_k) * (a_i - a_k)^-(m_k + j_k)

    on the pole of order j_pole + 1 at a_i.  Compositions with j_num > l are
    pruned: their binomial factor is zero.
    """
    if not spec.is_proper:
        raise ValueError(
            f"proper decomposition requires numerator degree < denominator degree, "
            f"got {spec.numerator_degree} >= {spec.denominator_degree}"
        )
    return _proper_contributions(spec)


def _proper_contributions(spec: RationalFunctionSpec) -> Iterator[tuple[int, int, Expr]]:
    l = spec.numerator_degree
    roots = spec.roots
    mults = spec.multiplicities
    n = len(roots)
    for i in range(n):
        a_i = roots[i]
        others = [(roots[k], mults[k]) for k in range(n) if k != i]
        diffs = [a_i - a_k for a_k, _ in others]  # reused across compositions
        for comp in compositions(mults[i] - 1, n + 1):
            j_num, j_pole = comp[0], comp[1]
            scale = Fraction(binomial(l, j_num))
            if scale == 0:
                continue
            parts: list[Expr] = [a_i ** (l - j_num)]
            for (a_k, m_k), diff, j_k in zip(others, diffs, comp[2:]):
                scale *= binomial(m_k + j_k - 1, j_k)
                if j_k % 2:
                    scale = -scale
                parts.append(diff ** (-(m_k + j_k)))
            parts.append(Constant(scale))
            yield i, j_pole + 1, product_of(parts)


def decompose_proper(spec: RationalFunctionSpec) -> Decomposition:
    """Decompose a proper input; all output terms are poles."""
    poles = [PoleTerm(i, order, c) for i, order, c in proper_contributions(spec)]
    return collect(Decomposition(roots=spec.roots, monomials=(), poles=poles))


def poly_div(coefficient: Expr, p: int, q: int, root: Expr) -> Decomposition:
    """Expand coefficient * x^p / (x - root)^q by symbolic polynomial division.

    Returns a single-root fragment: quotient monomials

        sum_{i=0}^{p-q} C(p-1-i, q-1) * root^(p-q-i) * x^i

    plus the already-decomposed remainder

        sum_{i=max(0, p-q+1)}^{p} C(p, i) * root^i / (x - root)^(q+i-p).
    """
    if p < 0:
        raise ValueError(f"numerator degree must be >= 0, got {p}")
    if q < 1:
        raise ValueError(f"pole order must be >= 1, got {q}")
    monomials = []
    for i in range(p - q + 1):
        c = product_of([Constant(Fraction(binomial(p - 1 - i, q - 1))),
                        root ** (p - q - i), coefficient])
        if c != ZERO:
            monomials.append(MonomialTerm(i, c))
    poles = []
    for i in range(max(0, p - q + 1), p + 1):
        c = product_of([Constant(Fraction(binomial(p, i))), root**i, coefficient])
        if c != ZERO:
            poles.append(PoleTerm(0, q + i - p, c))
    return Decomposition(roots=(root,), monomials=tuple(monomials), poles=tuple(poles))


def decompose(spec: RationalFunctionSpec) -> Decomposition:
    """Full decomposition: proper inputs go straight to the closed formula;
    improper ones are rewritten as x^(l-m+1) * (x^(m-1) / Q(x)), decomposed,
    and every resulting pole term is finished with :func:`poly_div`.
    """
    if spec.is_proper:
        return decompose_proper(spec)
    m = spec.denominator_degree
    p = spec.numerator_degree - (m - 1)
    base = decompose_proper(replace(spec, numerator_degree=m - 1))
    monomials: list[MonomialTerm] = []
    poles: list[PoleTerm] = []
    for term in base.poles:
        fragment = poly_div(term.coefficient, p, term.order, spec.roots[term.pole_index])
        monomials.extend(fragment.monomials)
        poles.extend(replace(pole, pole_index=term.pole_index) for pole in fragment.poles)
    return collect(Decomposition(roots=spec.roots, monomials=monomials, poles=poles))


def decompose_batch(
    terms: Iterable[tuple[Expr | int | Fraction, RationalFunctionSpec]]
) -> Decomposition:
    """Decompose a weighted sum of inputs and merge the results.

    Pole terms are merged by (root expression, order) across inputs, monomial
    terms by degree; weights must not involve the decomposition variable.
    Cancelled terms disappear entirely.
    """
    index: dict[Expr, int] = {}  # root -> position, in order of first use
    monomials: list[MonomialTerm] = []
    poles: list[PoleTerm] = []
    for weight, spec in terms:
        d = decompose(spec)
        for mono in d.monomials:
            monomials.append(MonomialTerm(mono.degree, weight * mono.coefficient))
        for pole in d.poles:
            pos = index.setdefault(d.roots[pole.pole_index], len(index))
            poles.append(PoleTerm(pos, pole.order, weight * pole.coefficient))
    return collect(Decomposition(roots=tuple(index), monomials=monomials, poles=poles))


def collect(d: Decomposition) -> Decomposition:
    """Merge terms sharing a degree or a (pole, order) pair: coefficients are
    summed into canonical form, exact zeros dropped and keys sorted.
    Idempotent.  Every merge in the package goes through here.
    """
    mono_acc: dict[int, list[Expr]] = {}
    for mono in d.monomials:
        mono_acc.setdefault(mono.degree, []).append(mono.coefficient)
    pole_acc: dict[tuple[int, int], list[Expr]] = {}
    for pole in d.poles:
        pole_acc.setdefault((pole.pole_index, pole.order), []).append(pole.coefficient)
    monomials = []
    for degree in sorted(mono_acc):
        total = sum_of(mono_acc[degree])
        if total != ZERO:
            monomials.append(MonomialTerm(degree, total))
    poles = []
    for key in sorted(pole_acc):
        total = sum_of(pole_acc[key])
        if total != ZERO:
            poles.append(PoleTerm(key[0], key[1], total))
    return Decomposition(d.roots, tuple(monomials), tuple(poles))
