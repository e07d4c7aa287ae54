"""Canonical symbolic expression trees over symbols and exact rationals.

An :class:`Expr` is one of Constant, Symbol, Sum, Product, or Power (with an
integer exponent).  Every expression handed out by this module is kept in a
canonical form:

* Sums contain no nested Sums; like terms are merged and zero terms dropped.
* Products contain no nested Products, at most one leading Constant, and no
  two factors with the same base (exponents are added instead).
* Power exponents are never 0 or 1; constant bases are folded.
* Children are stored sorted in tuple order.  A node is the tuple
  ``(kind, *fields)`` with kinds Constant 0 < Symbol 1 < Power 2 <
  Product 3 < Sum 4, so ``<`` compares kinds, then fields, recursively.
  A Power stores its exponent less one, so that b^-1 and b^-2 hash apart;
  the shift keeps the order.

A Constant's ``value`` is an ``int`` when it is integral and a ``Fraction``
otherwise, so equal values are stored alike, and ``==``, ``hash`` and ``<``
of trees with integer coefficients never leave C.

Structural equality of canonical forms (tuple ``==``, with a matching
``hash``) is what the rest of the package means by "the same expression".
Arithmetic operators on Expr values canonicalize eagerly, so ``a - a`` is
literally the constant zero.  Trees assembled by calling the node
constructors directly are *raw* and must go through :func:`canonicalize`
first.

The text form of an expression belongs to :mod:`partfrac.output`;
``str(e)`` is :func:`partfrac.output.render_expr`.
"""

from __future__ import annotations

import random
import re
from collections.abc import Callable, Iterable, Mapping
from fractions import Fraction
from math import gcd, prod
from operator import is_, itemgetter

from .combinatorics import compositions, multinomial

Numeric = int | Fraction

# A Symbol name; the parser reads identifiers with the same pattern, so every
# rendered expression parses back.
IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

__all__ = [
    "Expr",
    "Constant",
    "Symbol",
    "Sum",
    "Product",
    "Power",
    "ZERO",
    "ONE",
    "UnboundSymbolError",
    "canonicalize",
    "evaluate",
    "expand",
    "sum_of",
    "product_of",
    "symbols",
    "symbols_in",
]


class UnboundSymbolError(KeyError):
    """Evaluation reached a symbol that has no binding."""

    def __init__(self, name: str):
        super().__init__(name)
        self.name = name

    def __str__(self) -> str:
        return f"no binding for symbol '{self.name}'"


def _operator(build: Callable[[Expr, Expr], Expr]):
    """The method ``build(self, other)`` of a binary operator, with ``other``
    coerced to an Expr by ``_coerce``, or NotImplemented when it is not one."""

    def method(self, other):
        other = _coerce(other)
        return NotImplemented if other is None else build(self, other)

    return method


class Expr(tuple):
    """Base class for expression nodes; supports exact arithmetic operators.

    A node is the tuple ``(kind, *fields)``.  Each subclass names its kind
    and, as annotations, its fields in order; they read as properties.  Only
    ``==``, ``hash`` and ``<`` of the tuple are API: ``len``, iteration and
    indexing are not.
    """

    __slots__ = ()

    def __init_subclass__(cls, kind: int):
        cls._kind = kind
        for i, name in enumerate(cls.__annotations__, start=1):
            if name not in vars(cls):
                setattr(cls, name, property(itemgetter(i)))

    def __new__(cls, *fields):
        return tuple.__new__(cls, (cls._kind, *fields))

    def __getnewargs__(self):  # copy and pickle rebuild through __new__
        return self[1:]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(map(repr, self.__getnewargs__()))})"

    __add__ = __radd__ = _operator(lambda e, o: _make_sum([e, o]))
    __sub__ = _operator(lambda e, o: _make_sum([e, _negate(o)]))
    __rsub__ = _operator(lambda e, o: _make_sum([o, _negate(e)]))
    __mul__ = __rmul__ = _operator(lambda e, o: _make_product([e, o]))
    __truediv__ = _operator(lambda e, o: _make_product([e, _make_power(o, -1)]))
    __rtruediv__ = _operator(lambda e, o: _make_product([o, _make_power(e, -1)]))

    def __neg__(self) -> "Expr":
        return _negate(self)

    def __pow__(self, exponent: int) -> "Expr":
        if not isinstance(exponent, int):
            raise TypeError(f"exponent must be an int, got {type(exponent).__name__}")
        return _make_power(self, exponent)

    def __str__(self) -> str:
        from .output import render_expr  # output imports this module

        return render_expr(self)


class Constant(Expr, kind=0):
    """An exact rational.  ``value`` is an ``int`` when the value is integral
    and a ``Fraction`` otherwise; floats and other numbers are converted
    exactly."""

    __slots__ = ()
    value: Numeric

    def __new__(cls, value: Numeric):
        if type(value) is not int:
            if not isinstance(value, Fraction):
                value = Fraction(value)
            if value.denominator == 1:
                value = value.numerator
        return super().__new__(cls, value)


class Symbol(Expr, kind=1):
    __slots__ = ()
    name: str

    def __new__(cls, name: str):
        if not isinstance(name, str) or not IDENTIFIER.fullmatch(name):
            raise ValueError(f"symbol name must match {IDENTIFIER.pattern}, got {name!r}")
        return super().__new__(cls, name)


class Power(Expr, kind=2):
    """base**exponent.  The node stores ``exponent - 1``: CPython hashes -1
    and -2 alike, so storing the exponent itself would hash b^-1 and b^-2,
    and every tree that swaps them, alike.  A canonical exponent is never 0
    or 1, so no stored value is -1.  The shift keeps the order of
    exponents, so ``==`` and ``<`` are as if the exponent were stored."""

    __slots__ = ()
    base: Expr
    exponent: int

    def __new__(cls, base: Expr, exponent: int):
        return tuple.__new__(cls, (2, base, exponent - 1))

    @property
    def exponent(self) -> int:
        return self[2] + 1

    def __getnewargs__(self):
        return self[1], self[2] + 1


class Product(Expr, kind=3):
    __slots__ = ()
    factors: tuple[Expr, ...]


class Sum(Expr, kind=4):
    __slots__ = ()
    terms: tuple[Expr, ...]


ZERO = Constant(0)
ONE = Constant(1)
_MINUS_ONE = Constant(-1)


def symbols(names: str) -> tuple[Symbol, ...]:
    """Convenience: ``a, b = symbols("a b")``."""
    return tuple(Symbol(n) for n in names.replace(",", " ").split())


def _coerce(x) -> Expr | None:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, Fraction)):
        return Constant(x)
    if isinstance(x, tuple):  # given NotImplemented, tuple + node concatenates
        raise TypeError(f"cannot interpret {type(x).__name__} as an expression")
    return None


def _negate(e: Expr) -> Expr:
    return _make_product([_MINUS_ONE, e])


def _make_power(base: Expr, exponent: int) -> Expr:
    """Canonical base**exponent for a canonical base."""
    if exponent == 0:
        return ONE
    if exponent == 1:
        return base
    if isinstance(base, Constant):
        if exponent > 0:
            return Constant(base.value**exponent)
        if base.value == 0:
            raise ZeroDivisionError("zero base raised to a negative exponent")
        return Constant(Fraction(base.value) ** exponent)  # int ** -k is a float
    if isinstance(base, Power):
        # (b^i)^j = b^(i*j); valid because exponents are integers
        return _make_power(base.base, base.exponent * exponent)
    if isinstance(base, Product):
        return _make_product([_make_power(f, exponent) for f in base.factors])
    return Power(base, exponent)


def _scale(term: Expr, c: Numeric) -> Expr:
    """c * term for a canonical non-Sum term and nonzero rational c."""
    if c == 1:
        return term
    if isinstance(term, Constant):
        return Constant(term.value * c)
    factors = term.factors if isinstance(term, Product) else (term,)
    if isinstance(factors[0], Constant):
        c *= factors[0].value
        factors = factors[1:]
    if c == 1:
        return factors[0] if len(factors) == 1 else Product(factors)
    return Product((Constant(c),) + factors)


def _make_sum(terms: Iterable[Expr]) -> Expr:
    """Canonical sum of canonical children: flatten, merge like terms, sort.

    A term is bucketed by its rest (the term without its rational
    coefficient), keyed without building it: a Product's factors or their
    slice past the coefficient, the one factor left, or the term itself.
    A key tuple starts with a node and a node with its int kind, so the two
    kinds of key never compare equal.  A term whose key is seen once is kept
    as it is; only a real merge builds a new term.
    """
    constant = 0
    buckets: dict[tuple, list] = {}  # key -> [summed coefficient, sole term or None]
    stack = list(terms)[::-1]
    while stack:
        t = stack.pop()
        if isinstance(t, Sum):
            stack.extend(reversed(t.terms))
            continue
        if isinstance(t, Constant):
            constant += t.value
            continue
        coeff, key = 1, t
        if isinstance(t, Product):
            factors = key = t.factors
            if isinstance(factors[0], Constant):
                coeff = factors[0].value
                key = factors[1:] if len(factors) > 2 else factors[1]
        entry = buckets.get(key)
        if entry is None:
            buckets[key] = [coeff, t]
        else:
            entry[0] += coeff
            entry[1] = None
    parts = [
        t if t is not None else _scale(key if isinstance(key, Expr) else Product(key), c)
        for key, (c, t) in buckets.items()
        if c != 0
    ]
    if constant != 0:
        parts.append(Constant(constant))
    parts.sort()
    if not parts:
        return ZERO
    if len(parts) == 1:
        return parts[0]
    return Sum(tuple(parts))


def _make_product(factors: Iterable[Expr]) -> Expr:
    """Canonical product of canonical children: flatten, merge bases, sort."""
    coeff = 1
    powers: dict[Expr, int] = {}
    stack = list(factors)[::-1]
    while stack:
        f = stack.pop()
        if isinstance(f, Product):
            stack.extend(reversed(f.factors))
            continue
        if isinstance(f, Constant):
            coeff *= f.value
            continue
        base, exp = (f.base, f.exponent) if isinstance(f, Power) else (f, 1)
        powers[base] = powers.get(base, 0) + exp
    if coeff == 0:
        return ZERO
    # exp 0: b^1 * b^(-1) cancels (bases are symbolic, assumed nonzero)
    parts = sorted(
        base if exp == 1 else _make_power(base, exp) for base, exp in powers.items() if exp
    )
    if not parts:
        return Constant(coeff)
    if coeff == 1:
        return parts[0] if len(parts) == 1 else Product(tuple(parts))
    if len(parts) == 1 and isinstance(parts[0], Sum):
        # Distribute a bare rational over a sum so that like terms from
        # different sources can cancel:  a - (a - b) must reach b, not stall
        # as a + (-1)*(a - b).
        return _make_sum([_scale(t, coeff) for t in parts[0].terms])
    return Product((Constant(coeff),) + tuple(parts))


def sum_of(terms: Iterable[Expr | Numeric]) -> Expr:
    """Canonical sum of already-canonical expressions (or plain numbers)."""
    return _make_sum([_coerce_strict(t) for t in terms])


def product_of(factors: Iterable[Expr | Numeric]) -> Expr:
    """Canonical product of already-canonical expressions (or plain numbers)."""
    return _make_product([_coerce_strict(f) for f in factors])


def _coerce_strict(x) -> Expr:
    e = _coerce(x)
    if e is None:
        raise TypeError(f"cannot interpret {type(x).__name__} as an expression")
    return e


def canonicalize(e: Expr) -> Expr:
    """Canonical form of an arbitrary (possibly raw) expression tree.

    Idempotent; folds all-constant subtrees into a single Constant.
    """
    if isinstance(e, (Constant, Symbol)):
        return e
    if isinstance(e, Sum):
        return _make_sum([canonicalize(t) for t in e.terms])
    if isinstance(e, Product):
        return _make_product([canonicalize(f) for f in e.factors])
    if isinstance(e, Power):
        if not isinstance(e.exponent, int):
            raise TypeError(f"Power exponent must be an int, got {e.exponent!r}")
        return _make_power(canonicalize(e.base), e.exponent)
    raise TypeError(f"not an expression node: {e!r}")


def evaluate(e: Expr, bindings: Mapping[str, Numeric]) -> Fraction:
    """Exact value of ``e`` with every symbol bound to a rational.

    Raises :class:`UnboundSymbolError` for missing bindings and
    ZeroDivisionError when a negative power hits a zero base.
    """
    return Fraction(_evaluator(bindings)(e))


def _evaluator(
    bindings: Mapping[str, Numeric], modulus: int | None = None
) -> Callable[[Expr], Numeric]:
    """The value function of one binding.  Without ``modulus`` it is exact,
    and values are ``int`` or ``Fraction``.  Given a prime ``modulus`` p,
    values are ints in [0, p): a product is reduced after each factor, a sum
    once at the end, and a rational r/s reads as r * s^-1 mod p.  A zero
    base under a negative power raises ZeroDivisionError, and so, mod p, does
    a Constant or a binding whose denominator is 0 mod p.

    Every Power raised is memoized by node, so a power shared within or
    across the expressions evaluated is raised once per binding.  Other
    nodes are computed directly: a product's or a sum's value is large and
    its node rarely shared, and memoizing them costs more memory than it
    saves.  A symbol reads ``bindings[name]``, which ``__missing__`` may bind.
    """
    memo: dict[Expr, Numeric] = {}

    def reduce(v: Numeric) -> int:
        if isinstance(v, int):
            return v % modulus
        if not v.denominator % modulus:
            raise ZeroDivisionError(f"denominator of {v} is 0 mod {modulus}")
        return v.numerator * pow(v.denominator, -1, modulus) % modulus

    def value(e: Expr) -> Numeric:
        if isinstance(e, Product):
            total = 1
            for f in e.factors:
                total *= value(f)
                if modulus:
                    total %= modulus
            return total
        if isinstance(e, Power):
            v = memo.get(e)
            if v is not None:
                return v
            base, k = value(e.base), e.exponent
            if k < 0 and not base:
                raise ZeroDivisionError(f"zero base raised to exponent {k} during evaluation")
            if modulus:
                v = pow(base, k, modulus)
            elif k >= 0:
                v = base**k
            else:  # int ** -k is a float
                v = (base if isinstance(base, Fraction) else Fraction(base)) ** k
            memo[e] = v
            return v
        if isinstance(e, Sum):
            total = 0
            for t in e.terms:
                total += value(t)
            return total % modulus if modulus else total
        if isinstance(e, Constant):
            return reduce(e.value) if modulus else e.value
        if isinstance(e, Symbol):
            try:
                v = bindings[e.name]
            except KeyError:
                raise UnboundSymbolError(e.name) from None
            if not isinstance(v, (int, Fraction)):
                v = Fraction(v)
            return reduce(v) if modulus else v
        raise TypeError(f"not an expression node: {e!r}")

    return value


# The product of the odd primes below 300; one gcd with it does the trial
# division.  2^(q-1) = 1 mod q holds for an odd q below 341, the least base-2
# pseudoprime, exactly when q is prime.
_SMALL_PRIMES = prod(q for q in range(3, 300, 2) if pow(2, q - 1, q) == 1)

# Miller-Rabin with these bases decides primality exactly for every n < 2^64
# (Sinclair 2011, checked against Feitsma's list of the base-2 strong
# pseudoprimes below 2^64); a base that is 0 mod n proves nothing and is
# skipped.  Every candidate here is below 2^63.
_WITNESSES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)


def _is_prime(n: int) -> bool:
    """Whether an odd n with 300 < n < 2^64 is prime."""
    if gcd(n, _SMALL_PRIMES) != 1:
        return False
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for a in _WITNESSES:
        y = pow(a, d, n)
        if y == 1 or y == n - 1 or not a % n:
            continue
        for _ in range(s - 1):
            y = y * y % n
            if y == n - 1:
                break
        else:
            return False
    return True


def _random_prime(rng: random.Random) -> int:
    """The first prime at or above a random odd number in [2^61, 2^62)."""
    n = rng.randrange(1 << 61, 1 << 62) | 1
    while not _is_prime(n):
        n += 2
    return n


class _RandomBindings(dict):
    """Symbol values in [0, p), each drawn from ``rng`` when evaluation first
    meets its symbol, in an order that the expressions evaluated fix."""

    def __init__(self, rng: random.Random, p: int):
        super().__init__()
        self.rng, self.p = rng, p

    def __missing__(self, name: str) -> int:
        return self.setdefault(name, self.rng.randrange(self.p))


def expand(e: Expr) -> Expr:
    """Distribute products over sums and multiply out non-negative integer
    powers of sums, each as its multinomial sum.  Negative powers are left
    alone (their bases are still expanded).  Value-preserving; the result is
    canonical.  ``e`` must be canonical: a node with nothing to expand in it
    is returned as it is.
    """
    if isinstance(e, (Constant, Symbol)):
        return e
    if isinstance(e, Sum):
        terms = [expand(t) for t in e.terms]
        return e if all(map(is_, terms, e.terms)) else _make_sum(terms)
    if isinstance(e, Power):
        base = expand(e.base)
        if e.exponent < 0 or not isinstance(base, Sum):
            return e if base is e.base else _make_power(base, e.exponent)
        return _make_sum([
            _make_product([
                Constant(multinomial(e.exponent, parts)),
                *(_make_power(t, k) for t, k in zip(base.terms, parts) if k),
            ])
            for parts in compositions(e.exponent, len(base.terms))
        ])
    if isinstance(e, Product):
        factors = [expand(f) for f in e.factors]
        if all(map(is_, factors, e.factors)) and not any(isinstance(f, Sum) for f in factors):
            return e
        acc = ONE
        for f in factors:
            acc = _distribute(acc, f)
        return acc
    raise TypeError(f"not an expression node: {e!r}")


def _distribute(u: Expr, v: Expr) -> Expr:
    uts = u.terms if isinstance(u, Sum) else (u,)
    vts = v.terms if isinstance(v, Sum) else (v,)
    return _make_sum([_make_product([a, b]) for a in uts for b in vts])


def symbols_in(e: Expr) -> frozenset[str]:
    """Names of all symbols occurring in ``e``.  A shared Sum or Power is walked
    once, told apart by identity: hashing a node walks its whole subtree."""
    names, seen, stack = set(), set(), [e]
    while stack:
        node = stack.pop()
        if isinstance(node, Symbol):
            names.add(node.name)
        elif isinstance(node, Product):
            stack.extend(node.factors)
        elif not isinstance(node, Constant) and id(node) not in seen:
            seen.add(id(node))
            stack.extend(node.terms if isinstance(node, Sum) else (node.base,))
    return frozenset(names)
