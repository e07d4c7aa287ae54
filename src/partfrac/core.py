"""Partial fraction decomposition of x^l / prod_k (x - a_k)^(m_k).

The roots a_k are opaque canonical expressions (symbols, rationals, or
arithmetic combinations of both) that must be pairwise distinct and free of
the decomposition variable.  One closed formula covers every input: a pole
coefficient is the residue formula with its derivatives expanded by the
Leibniz rule, one coefficient of the Cauchy product of (a_i + t)^l with the
series D_i(t) = prod_{k != i} (a_i - a_k + t)^-(m_k), and the quotient of an
improper input is a sum of the same kind.  Both take their terms over weak
compositions, weighted by binomial coefficients, from one routine,
:func:`_composition_series`.  No symbolic differentiation or polynomial
division is ever performed.  Each pole's series is enumerated once and
serves every order and degree.  Each coefficient is summed where it is
made; :func:`collect` merges only a batch's weighted inputs.  When every
root is a Constant, the same Cauchy product is taken in ints from one
truncated series per pole.

Roots are validated by evaluation mod a prime, never by expansion (see
:class:`RationalFunctionSpec`).  A spec that is accepted has pairwise
distinct roots, none of them undefined, for certain; a distinct pair is
refused with probability at most (D/p)^3 plus the chance that p divides
the content of their difference, D the degree of that difference with its
denominators cleared and p a random 62-bit prime.  Every work bound the
program enforces, except the parser's digit limit, is defined here.

Everything here is pure and immutable: decompositions are value objects and
the same input always yields byte-identical output downstream.
"""

from __future__ import annotations

import operator
import random
from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import lcm, prod

from .combinatorics import binomial, compositions
from .expr import ONE, ZERO, Constant, Expr, Power, Product, Sum, Symbol, product_of
from .expr import _evaluator, _make_sum, _random_prime, _RandomBindings, symbols_in

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

VARIABLE = "x"  # the decomposition variable is fixed

# The closed formula writes max(l - m + 1, 0) quotient terms and at most m
# pole terms; a spec that could write more than this is refused.  At the
# limit, x^99999 / (x - a) decomposes and serializes in 0.7-0.8 s (in
# process, Python 3.11.7, 2 cores).  The count bounds terms, not their size.
MAX_OUTPUT_TERMS = 10**5
# Expanded coefficients (--expand) are refused when expand could build more
# terms than this at one Power or Product node.  expand builds a power of a
# sum as its multinomial sum, so the work grows with the terms built:
# (a + 1)^499 and (a + b + c)^30, at the limit, take about 0.03 s.
MAX_EXPANDED_TERMS = 500

# The prime of the first root check, and the number of checks mod random
# primes that follow when it is not conclusive (see RationalFunctionSpec).
_MERSENNE_61 = (1 << 61) - 1
_EXTRA_TRIALS = 3


class DuplicateRootError(ValueError):
    """Two denominator factors share a root (as rational functions)."""

    def __init__(self, first: int, second: int, root: Expr):
        super().__init__(
            f"factors {first + 1} and {second + 1} share the root {root}; "
            "roots must be pairwise distinct"
        )
        self.first = first
        self.second = second
        self.root = root


def _seed_text(node) -> str:
    """A deterministic text of a tree of tuples, ints, Fractions and names.
    Ints are written in hex, so no integer is ever converted to decimal,
    which Python refuses past ``sys.get_int_max_str_digits()`` digits.  A
    node is written as its kind and the arguments that rebuild it, so a
    Power shows its exponent, not the value the node stores."""
    if isinstance(node, Expr):
        node = (node[0], *node.__getnewargs__())
    if isinstance(node, tuple):
        return f"({','.join(map(_seed_text, node))})"
    if isinstance(node, int):
        return hex(node)
    if isinstance(node, Fraction):
        return f"{node.numerator:#x}/{node.denominator:#x}"
    return node


def _check_roots(factors: tuple[tuple[Expr, int], ...]) -> None:
    """Refuse a root that is undefined or two roots that are equal, by the
    trials described in :class:`RationalFunctionSpec`."""
    roots = [root for root, _ in factors]
    rng = random.Random(_seed_text(factors))
    undefined = set(range(len(roots)))  # roots that divided by zero in every trial
    tied = None  # pairs that no trial told apart
    for trial in range(1 + _EXTRA_TRIALS):
        p = _random_prime(rng) if trial else _MERSENNE_61
        value = _evaluator(_RandomBindings(rng, p), modulus=p)
        vals = []
        for root in roots:
            try:
                vals.append(value(root))
            except ZeroDivisionError:
                vals.append(None)
        if tied is None:
            if None not in vals and len(set(vals)) == len(vals):
                return
            tied = combinations(range(len(roots)), 2)
        undefined = {i for i in undefined if vals[i] is None}
        tied = [(i, k) for i, k in tied if None in (vals[i], vals[k]) or vals[i] == vals[k]]
        if not undefined and not tied:
            return
    if undefined:
        raise ValueError(f"root {min(undefined) + 1} is undefined: it divides by zero")
    raise DuplicateRootError(*tied[0], roots[tied[0][0]])


class RationalFunctionSpec(namedtuple("RationalFunctionSpec", "numerator_degree factors")):
    """The input x^l * prod_k (x - root_k)^(-mult_k).

    ``numerator_degree`` is l.  ``factors`` is an ordered sequence of (root,
    multiplicity) pairs, stored as a tuple.  Roots must be canonical, free
    of x, defined, and pairwise distinct as rational functions of their
    symbols; the result may have at most ``MAX_OUTPUT_TERMS`` terms.

    Roots are evaluated mod 2^61 - 1 at symbol values drawn from an RNG
    seeded by the factors, then, only if some root divided by zero or two
    values were equal, in up to 3 more trials mod random 62-bit primes.  A
    root is refused as undefined when it divides by zero in every trial, a
    pair as equal when no trial tells them apart.  Equal rational functions
    take equal values wherever both are defined, so acceptance is certain.
    A distinct pair is refused with probability at most (D/p)^3, plus the
    chance that p divides the content of their difference, D the degree of
    that difference with its denominators cleared (Schwartz-Zippel).
    """

    __slots__ = ()

    def __new__(cls, numerator_degree: int, factors: Iterable[tuple[Expr, int]]):
        # operator.index refuses floats and other non-integral numbers
        factors = tuple((root, operator.index(mult)) for root, mult in factors)
        self = super().__new__(cls, operator.index(numerator_degree), factors)
        if self.numerator_degree < 0:
            raise ValueError(f"numerator degree must be >= 0, got {self.numerator_degree}")
        if not self.factors:
            raise ValueError("at least one denominator factor is required")
        for root, mult in self.factors:
            if not isinstance(root, Expr):
                raise TypeError(f"root must be an Expr, got {type(root).__name__}")
            if mult < 1:
                raise ValueError(f"multiplicity must be >= 1, got {mult}")
        m = self.denominator_degree
        terms = max(self.numerator_degree - m + 1, 0) + m
        if terms > MAX_OUTPUT_TERMS:
            raise ValueError(f"the result could have {terms} terms, more than {MAX_OUTPUT_TERMS}")
        for idx, root in enumerate(self.roots, start=1):
            if VARIABLE in symbols_in(root):
                raise ValueError(f"root {idx} contains the decomposition variable '{VARIABLE}'")
        _check_roots(self.factors)
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates

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


def _expanded_terms(e: Expr) -> int:
    """An upper bound on the number of terms of ``expand(e)``, computed
    without expanding: a t-term sum raised to k >= 0 has at most
    C(k+t-1, t-1) terms, counts multiply across a product and add across a
    sum, and a negative power is one term.  Raises ValueError when expand
    could build more than MAX_EXPANDED_TERMS terms at one Power or Product
    node, bases of negative powers included.  Counts saturate just above
    the limit, so huge exponents cost nothing."""
    cap = MAX_EXPANDED_TERMS + 1
    if isinstance(e, Power):
        t, k = _expanded_terms(e.base), e.exponent
        if k < 0:
            return 1
        count = 1 if t == 1 else cap if k >= cap else min(binomial(k + t - 1, k), cap)
    elif isinstance(e, Product):
        count = min(prod(_expanded_terms(f) for f in e.factors), cap)
    elif isinstance(e, Sum):
        return min(sum(_expanded_terms(t) for t in e.terms), cap)
    else:
        return 1
    if count > MAX_EXPANDED_TERMS:
        raise ValueError(f"a coefficient would expand to more than {MAX_EXPANDED_TERMS} terms")
    return count


class PoleTerm(namedtuple("PoleTerm", "pole_index order coefficient")):
    """coefficient / (x - roots[pole_index])^order, pole_index 0-based into
    the owning Decomposition's roots"""

    __slots__ = ()


class MonomialTerm(namedtuple("MonomialTerm", "degree coefficient")):
    """coefficient * x^degree"""

    __slots__ = ()


class Decomposition(namedtuple("Decomposition", "roots monomials poles")):
    """An ordered sum of monomial and pole terms, each field a tuple.

    ``monomials`` is sorted by ascending degree, ``poles`` by
    (pole_index, order); after collection each key appears at most once and
    no coefficient is structurally zero.
    """

    __slots__ = ()

    def __new__(cls, roots, monomials, poles):
        return super().__new__(cls, tuple(roots), tuple(monomials), tuple(poles))

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace makes tuples


def _require_proper(spec: RationalFunctionSpec) -> None:
    if not spec.is_proper:
        raise ValueError(
            f"proper decomposition requires numerator degree < denominator degree, "
            f"got {spec.numerator_degree} >= {spec.denominator_degree}"
        )


def proper_contributions(spec: RationalFunctionSpec) -> Iterator[tuple[int, int, Expr]]:
    """Yield (pole_index, order, coefficient) for a proper input: one
    canonical coefficient per key, the keys that sum to 0 left out.

    With d = m_i - order, the coefficient of 1/(x - a_i)^order is the Cauchy
    product [t^d] (a_i + t)^l * D_i(t), D_i(t) = prod_{k != i} (a_i - a_k +
    t)^-(m_k), that is sum_{j <= min(d, l)} C(l, j) * a_i^(l - j) * [t^(d - j)]
    D_i, where [t^r] D_i sums over the weak compositions (j_k)_{k != i} of r

        prod_{k != i} C(m_k + j_k - 1, j_k) * (-1)^(j_k) * (a_i - a_k)^-(m_k + j_k).
    """
    _require_proper(spec)
    pole_sums = _pole_contributions(spec, (spec.numerator_degree,))
    return ((i, order, c) for _, i, order, c in pole_sums)


def _composition_series(slots: Sequence[tuple[list, list]], count: int) -> Iterator[list]:
    """Yield [t^r], r < count, of the product over ``slots`` of the series
    sum_c scales[c] * powers[c] * t^c, a slot being the pair (scales,
    powers): the list of one (scale, factors) per weak composition c of r
    into one part per slot, scale the product of the scales[c_k] and factors
    the tuple of the powers[c_k] in slot order.  With no slot the product is
    1.  This is the only enumeration of compositions in the engine."""
    scales, powers = [s for s, _ in slots], [p for _, p in slots]
    for r in range(count):
        comps = compositions(r, len(slots)) if slots else [()] if r == 0 else []
        yield [(prod(map(operator.getitem, scales, c)), tuple(map(operator.getitem, powers, c)))
               for c in comps]


def _pole_contributions(
    spec: RationalFunctionSpec, degrees: Sequence[int], residues_only: bool = False
) -> Iterator[tuple[int, int, int, Expr]]:
    """Yield (l, pole_index, order, coefficient) of x^l / Q for each of the
    distinct ``degrees``, as :func:`proper_contributions` does, each key
    summed by :func:`_key_sum`; with ``residues_only``, only order 1 (the
    residues).

    Per pole, the series D_i is enumerated once, r < m_i, by one
    :func:`_composition_series` over one slot per difference: sum_i C(m_i +
    n - 2, n - 1) compositions in all (none for a single root), each serving
    every order and degree.  The differences a_i - a_k, their powers (a_i -
    a_k)^-(m_k+j), j < m_i, and each degree's binomials C(l, j), j < m_i,
    are built once per pole, each a_i^e at its first use, the signed
    binomials (-1)^j * C(m_k+j-1, j) once per distinct (m_k, m_i), and a
    scale's Constant once.  A Symbol less a Symbol is
    built directly as its canonical two-term Sum, a_i (kind 1) then the
    Product -a_k (kind 3); other differences as a_i + (-a_k).  The powers of
    a Sum are built as Power nodes.  The slots are put in the order of their
    bases, so the factors of a composition come sorted.  A pole is direct
    when its root is a Symbol and every difference a Sum: a contribution is
    then the canonical Product built directly, as the bases are pairwise
    distinct (the spec refuses equal roots), the Symbol sorts first and no
    power is a bare Sum to distribute over.  When every root is a Symbol,
    a_i - a_k = a_i + (-1)*a_k sorts as a_k does, so that order comes from
    one sort of the roots.  Other inputs go through product_of; an
    all-Constant spec enumerates no composition (see
    :func:`_constant_pole_sums`).
    """
    if all(isinstance(a_k, Constant) for a_k in spec.roots):
        yield from _constant_pole_sums(spec, degrees, residues_only)
        return
    roots, mults, n = spec.roots, spec.multiplicities, len(spec.factors)
    negated = [-a_k for a_k in roots]
    by_root = None
    if all(isinstance(a_k, Symbol) for a_k in roots):
        by_root = sorted(range(n), key=roots.__getitem__)

    @cache
    def signed(m_k: int, m_i: int) -> list[int]:
        return [(-1) ** j * binomial(m_k + j - 1, j) for j in range(m_i)]

    head = cache(lambda scale: (Constant(scale),) if scale != 1 else ())  # of a direct Product
    for i in range(n):
        a_i, m_i = roots[i], mults[i]
        symbol = isinstance(a_i, Symbol)
        diffs = {
            k: Sum((a_i, negated[k])) if symbol and isinstance(roots[k], Symbol)
            else a_i + negated[k]
            for k in range(n) if k != i
        }
        direct = symbol and all(isinstance(d, Sum) for d in diffs.values())
        order_by = sorted(diffs, key=diffs.__getitem__) if by_root is None else by_root
        slots = [
            (signed(mults[k], m_i),
             [Power(diffs[k], -(mults[k] + j)) if isinstance(diffs[k], Sum)
              else diffs[k] ** -(mults[k] + j) for j in range(m_i)])
            for k in order_by if k != i
        ]
        series = list(_composition_series(slots, m_i))  # [t^r] D_i
        root_power = cache(a_i.__pow__)  # e -> a_i^e
        for l in degrees:
            choose = [binomial(l, j) for j in range(m_i)]
            for order in range(1, 2 if residues_only else m_i + 1):
                d = m_i - order
                terms = []
                for j in range(min(d, l) + 1):
                    power = root_power(l - j)
                    lead = (power,) if l > j else ()
                    for rest, parts in series[d - j]:
                        scale = choose[j] * rest
                        if direct:
                            factors = head(scale) + lead + parts
                            c = (Product(factors) if len(factors) > 1
                                 else factors[0] if factors else ONE)
                        else:
                            c = product_of([power, *parts, Constant(scale)])
                        terms.append(c)
                if terms:  # with one root, [t^r] D_i = 0 for r > 0
                    c = _key_sum(terms, direct)
                    if c != ZERO:
                        yield l, i, order, c


def _series(cs: Sequence[tuple[int, int]], mults: Sequence[int], count: int) -> tuple:
    """Q = lcm_k s_k and the ints H_j = Q^j [t^j] prod_k (1 - c_k t)^-(m_k),
    j < count, for c_k = r_k/s_k given as (r_k, s_k): m_k running sums per k."""
    Q = lcm(*(s_k for _, s_k in cs))
    h = [int(j == 0) for j in range(count)]
    for (r_k, s_k), m_k in zip(cs, mults):
        c = r_k * (Q // s_k)
        for _ in range(m_k if c else 0):
            for j in range(1, count):
                h[j] += c * h[j - 1]
    return Q, h


def _constant_pole_sums(
    spec: RationalFunctionSpec, degrees: Sequence[int], residues_only: bool
) -> Iterator[tuple[int, int, int, Constant]]:
    """The coefficients of :func:`_pole_contributions` for Constant roots a_k =
    p_k/q_k, each key summed in ints.  With c_k = 1/(a_k - a_i), (l, i, order)
    is [t^d], d = m_i - order, of (a_i + t)^l prod_{k != i} (-c_k)^(m_k) (1 -
    c_k t)^-(m_k), that is the int [t^d] q_i^l (a_i + Q t)^l sum_j H_j t^j, H
    from one :func:`_series` per pole, over q_i^l Q^d prod_k (-c_k)^-(m_k)."""
    ps, qs, mults = zip(*((a.value.numerator, a.value.denominator, m) for a, m in spec.factors))
    for i, (p_i, q_i, m_i) in enumerate(zip(ps, qs, mults)):
        cs = [(q_i * q_k, p_k * q_i - p_i * q_k) for p_k, q_k in zip(ps, qs)]
        cs, ms = cs[:i] + cs[i + 1:], mults[:i] + mults[i + 1:]  # k != i
        Q, h = _series(cs, ms, m_i)
        num = prod(r**m_k for (r, _), m_k in zip(cs, ms))
        den = prod((-s) ** m_k for (_, s), m_k in zip(cs, ms))
        for l in degrees:
            top = min(l, m_i - 1)
            power = [binomial(l, j) * p_i ** (l - j) * (q_i * Q) ** j for j in range(top + 1)]
            for order in range(1, 2 if residues_only else m_i + 1):
                d = m_i - order
                c = sum(power[j] * h[d - j] for j in range(min(d, top) + 1))
                if c:
                    yield l, i, order, Constant(Fraction(num * c, den * q_i**l * Q**d))


def _key_sum(terms: list[Expr], direct: bool) -> Expr:
    """The canonical sum of one key's canonical terms: every key of one input
    is summed here where it is made, and a batch's keys in :func:`collect`.
    A direct key's terms are non-Sum, nonzero and of pairwise distinct rests,
    so nothing merges and their sum is the Sum of them sorted; other keys'
    go through _make_sum."""
    if len(terms) == 1:
        return terms[0]
    return Sum(tuple(sorted(terms))) if direct else _make_sum(terms)


def _quotient_contributions(spec: RationalFunctionSpec) -> Iterator[MonomialTerm]:
    """Yield the quotient sum_{j=0}^{l-m} h_j * x^(l-m-j) of an improper
    input, one canonical monomial per degree, those with h_j = 0 left out.
    h_j (complete homogeneous symmetric polynomial of the roots with
    multiplicity) sums prod_k C(m_k + c_k - 1, c_k) * a_k^(c_k) over the
    weak compositions c of j: C(j+n-1, n-1) terms.  Once that costs more
    than h_j = sum_i Res_{a_i} x^(j+m-1) / Q, the order-1 pole formula with
    sum_i C(m_i+n-2, n-1) terms of n+1 factors each (root differences, about
    twice as costly as powers of roots), the residue form is used.  Either
    way, a degree's terms or residues are summed by :func:`_key_sum`.

    The expanded h_j come from one :func:`_composition_series` with a slot
    per root, its tables a_k^c and C(m_k + c - 1, c) built once, one h_j at
    a time.  When every root is a Symbol, a term is assembled as the
    canonical Product directly, and is direct: its factors are the non-unit
    powers, of pairwise distinct bases, sorted, after the scale when that is
    not 1.  Other inputs go through product_of.

    When every root is a Constant, no composition is enumerated: h_j is
    H_j / Q^j from :func:`_series` with c_k = a_k, or for one root C(m + j - 1, j) a^j.
    """
    l, m = spec.numerator_degree, spec.denominator_degree
    roots, mults, n = spec.roots, spec.multiplicities, len(spec.factors)
    if all(isinstance(a_k, Constant) for a_k in roots):
        if n == 1:  # h_j = C(m + j - 1, j) a^j, and a's powers need no gcd at h_j's size
            a, power = roots[0].value, 1
            for j in range(l - m + 1):
                if power:
                    yield MonomialTerm(l - m - j, Constant(binomial(m + j - 1, j) * power))
                power *= a
            return
        cs = [(a_k.value.numerator, a_k.value.denominator) for a_k in roots]
        Q, h = _series(cs, mults, l - m + 1)
        scale = 1
        for j, h_j in enumerate(h):
            if h_j:
                yield MonomialTerm(l - m - j, Constant(Fraction(h_j, scale)))
            scale *= Q
        return
    residue_cost = 2 * (n + 1) * sum(binomial(m_k + n - 2, n - 1) for m_k in mults)
    count = 0  # the h_j taken in expanded form
    while count <= l - m and binomial(count + n - 1, n - 1) * (min(count, n) + 1) <= residue_cost:
        count += 1
    direct = all(isinstance(a_k, Symbol) for a_k in roots)
    slots = [([binomial(m_k + c - 1, c) for c in range(count)], [a_k**c for c in range(count)])
             for a_k, m_k in spec.factors]
    head = cache(lambda scale: (Constant(scale),) if scale != 1 else ())  # of a direct Product
    sums: dict[int, list[Expr]] = {}  # degree -> h_j, or the residues that sum to it
    for j, series in enumerate(_composition_series(slots, count)):
        terms = []
        for scale, factors in series:
            if direct:
                factors = head(scale) + tuple(sorted([f for f in factors if f != ONE]))
                terms.append(Product(factors) if len(factors) > 1
                             else factors[0] if factors else ONE)
            else:
                terms.append(product_of([Constant(scale), *factors]))
        sums[l - m - j] = [_key_sum(terms, direct)]
    if count <= l - m:
        for k, _, _, c in _pole_contributions(spec, range(count + m - 1, l), residues_only=True):
            sums.setdefault(l - 1 - k, []).append(c)  # the residues of x^k / Q
    for degree, terms in sums.items():
        h_j = _key_sum(terms, False)
        if h_j != ZERO:
            yield MonomialTerm(degree, h_j)


def decompose_proper(spec: RationalFunctionSpec) -> Decomposition:
    """Decompose a proper input; all output terms are poles."""
    _require_proper(spec)
    return decompose(spec)


def poly_div(coefficient: Expr, p: int, q: int, root: Expr) -> Decomposition:
    """Expand coefficient * x^p / (x - root)^q: the one-factor case of
    :func:`decompose`, every coefficient multiplied by ``coefficient``.

    That is the quotient sum_{i=0}^{p-q} C(p-1-i, q-1) * root^(p-q-i) * x^i
    plus the poles sum_{i=max(0, p-q+1)}^{p} C(p, i) * root^i / (x - root)^(q+i-p).
    """
    return decompose_batch([(coefficient, RationalFunctionSpec(p, ((root, q),)))])


def decompose(spec: RationalFunctionSpec) -> Decomposition:
    """Full decomposition.  The pole terms come from the closed formula at
    the input's own numerator degree, and an improper input's quotient from
    weak-composition sums too (see :func:`_decompose_shared`).
    """
    return _decompose_shared([spec])[spec]


def _decompose_shared(
    specs: Sequence[RationalFunctionSpec],
) -> dict[RationalFunctionSpec, Decomposition]:
    """decompose(spec) for each of ``specs``, which share one denominator,
    its factors in any order.  The pole formula is taken once, in the first
    spec's factor order, over all their distinct degrees: each pole's series
    of differences and signed binomials serves every order and degree.  Each
    spec takes its degree's key sums on its own poles, in its own factor
    order, and has its own quotient; :func:`collect` only sorts their keys."""
    first = specs[0]
    sums: dict[int, list] = {l: [] for l in sorted({spec.numerator_degree for spec in specs})}
    for l, i, order, c in _pole_contributions(first, tuple(sums)):
        sums[l].append((i, order, c))
    out: dict[RationalFunctionSpec, Decomposition] = {}
    for spec in specs:
        if spec not in out:
            position = {root: k for k, root in enumerate(spec.roots)}
            index = [position[root] for root in first.roots]
            poles = [PoleTerm(index[i], order, c) for i, order, c in sums[spec.numerator_degree]]
            out[spec] = collect(Decomposition(spec.roots, _quotient_contributions(spec), poles))
    return out


def decompose_batch(
    terms: Iterable[tuple[Expr | int | Fraction, RationalFunctionSpec]]
) -> Decomposition:
    """Decompose a weighted sum of inputs and merge the results.

    Inputs that share a denominator, whatever their factor order, share one
    enumeration of the pole formula (see :func:`_decompose_shared`).  Pole
    terms are merged by (root expression, order) across inputs, monomial
    terms by degree, and structurally zero sums are dropped.  A sum that
    equals 0 in value may stay, nonzero-looking: weights a + b and -a - b
    on one input leave one, because a product of sums has more than one
    canonical form (see "One canonical form per value of a product" in
    ROADMAP.md).  Every term is checked before any work: one that is not a
    (weight, spec) pair, or whose weight is not an Expr, int or Fraction, is
    refused with TypeError, and a weight that involves the decomposition
    variable with ValueError.
    """
    terms = list(terms)
    for idx, term in enumerate(terms, start=1):
        try:  # a spec is itself a pair, (numerator_degree, factors)
            weight, spec = term
        except (TypeError, ValueError):
            spec = None
        if not hasattr(spec, "factors"):
            raise TypeError(f"term {idx} must be a (weight, spec) pair, got {type(term).__name__}")
        if not isinstance(weight, (Expr, int, Fraction)):
            raise TypeError(
                f"the weight of term {idx} must be an Expr, int or Fraction, "
                f"got {type(weight).__name__}"
            )
        if isinstance(weight, Expr) and VARIABLE in symbols_in(weight):
            raise ValueError(
                f"the weight of term {idx} contains the decomposition variable '{VARIABLE}'"
            )
    groups: dict[tuple, list[RationalFunctionSpec]] = {}  # sorted factors -> members
    for _, spec in terms:
        groups.setdefault(tuple(sorted(spec.factors)), []).append(spec)
    shared: dict[RationalFunctionSpec, Decomposition] = {}
    for specs in groups.values():
        shared.update(_decompose_shared(specs))
    index: dict[Expr, int] = {}  # root -> position, in order of first use
    monomials: list[MonomialTerm] = []
    poles: list[PoleTerm] = []
    for weight, spec in terms:
        d = shared[spec]
        for mono in d.monomials:
            monomials.append(MonomialTerm(mono.degree, weight * mono.coefficient))
        for pole in d.poles:
            pos = index.setdefault(d.roots[pole.pole_index], len(index))
            poles.append(PoleTerm(pos, pole.order, weight * pole.coefficient))
    return collect(Decomposition(roots=tuple(index), monomials=monomials, poles=poles))


def collect(d: Decomposition) -> Decomposition:
    """Merge terms sharing a degree or a (pole, order) pair: coefficients are
    summed into canonical form, exact zeros dropped and keys sorted.  A key
    with one coefficient keeps it as it is, since it is canonical already.
    Idempotent.  One input's decomposition has one coefficient per key,
    summed where it is made, so only the weighted inputs of a batch merge
    here; expanded output drops its zeros here.
    """
    def merged(terms, key):
        acc: dict = {}
        for term in terms:
            acc.setdefault(key(term), []).append(term.coefficient)
        for k in sorted(acc):
            total = _key_sum(acc[k], False)
            if total != ZERO:
                yield k, total

    monomials = [MonomialTerm(k, c) for k, c in merged(d.monomials, lambda t: t.degree)]
    poles = [PoleTerm(*k, c) for k, c in merged(d.poles, lambda t: (t.pole_index, t.order))]
    return Decomposition(d.roots, monomials, poles)
