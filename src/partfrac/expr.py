"""Canonical symbolic expression trees over symbols and exact rationals.

An :class:`Expr` is one of Constant, Symbol, Sum, Product, or Power (with an
integer exponent).  Every expression handed out by this module is kept in a
canonical form:

* Sums contain no nested Sums; like terms are merged and zero terms dropped.
* Products contain no nested Products, at most one leading Constant, and no
  two factors with the same base (exponents are added instead).
* Power exponents are never 0 or 1; constant bases are folded.
* Children are stored sorted under a fixed total order
  (Constant < Symbol < Power < Product < Sum, recursively).

Structural equality of canonical forms is what the rest of the package means
by "the same expression".  Arithmetic operators on Expr values canonicalize
eagerly, so ``a - a`` is literally the constant zero.  Trees assembled by
calling the node constructors directly are *raw* and must go through
:func:`canonicalize` first.

The text form of an expression belongs to :mod:`partfrac.output`;
``str(e)`` is :func:`partfrac.output.render_expr`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Union

Numeric = Union[int, Fraction]

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


class Expr:
    """Base class for expression nodes; supports exact arithmetic operators."""

    __slots__ = ()

    def __add__(self, other: "Expr | Numeric") -> "Expr":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _make_sum([self, other])

    __radd__ = __add__

    def __sub__(self, other: "Expr | Numeric") -> "Expr":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _make_sum([self, _negate(other)])

    def __rsub__(self, other: "Expr | Numeric") -> "Expr":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _make_sum([other, _negate(self)])

    def __mul__(self, other: "Expr | Numeric") -> "Expr":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _make_product([self, other])

    __rmul__ = __mul__

    def __truediv__(self, other: "Expr | Numeric") -> "Expr":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _make_product([self, _make_power(other, -1)])

    def __rtruediv__(self, other: "Expr | Numeric") -> "Expr":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _make_product([other, _make_power(self, -1)])

    def __neg__(self) -> "Expr":
        return _negate(self)

    def __pow__(self, exponent: int) -> "Expr":
        if not isinstance(exponent, int):
            raise TypeError(f"exponent must be an int, got {type(exponent).__name__}")
        return _make_power(self, exponent)

    def __str__(self) -> str:
        from .output import render_expr  # output imports this module

        return render_expr(self)


@dataclass(frozen=True, slots=True)
class Constant(Expr):
    value: Fraction

    def __post_init__(self):
        if not isinstance(self.value, Fraction):
            object.__setattr__(self, "value", Fraction(self.value))


@dataclass(frozen=True, slots=True)
class Symbol(Expr):
    name: str


@dataclass(frozen=True, slots=True)
class Sum(Expr):
    terms: tuple[Expr, ...]


@dataclass(frozen=True, slots=True)
class Product(Expr):
    factors: tuple[Expr, ...]


@dataclass(frozen=True, slots=True)
class Power(Expr):
    base: Expr
    exponent: int


ZERO = Constant(Fraction(0))
ONE = Constant(Fraction(1))


def symbols(names: str) -> tuple[Symbol, ...]:
    """Convenience: ``a, b = symbols("a b")``."""
    return tuple(Symbol(n) for n in names.replace(",", " ").split())


def _coerce(x) -> Expr | None:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, Fraction)):
        return Constant(Fraction(x))
    return None


# Kind tags fixing the total order Constant < Symbol < Power < Product < Sum.
_K_CONSTANT, _K_SYMBOL, _K_POWER, _K_PRODUCT, _K_SUM = range(5)


def _sort_key(e: Expr):
    if isinstance(e, Constant):
        return (_K_CONSTANT, e.value)
    if isinstance(e, Symbol):
        return (_K_SYMBOL, e.name)
    if isinstance(e, Power):
        return (_K_POWER, _sort_key(e.base), e.exponent)
    if isinstance(e, Product):
        return (_K_PRODUCT, tuple(_sort_key(f) for f in e.factors))
    return (_K_SUM, tuple(_sort_key(t) for t in e.terms))


def _negate(e: Expr) -> Expr:
    return _make_product([Constant(Fraction(-1)), e])


def _make_power(base: Expr, exponent: int) -> Expr:
    """Canonical base**exponent for a canonical base."""
    if exponent == 0:
        return ONE
    if exponent == 1:
        return base
    if isinstance(base, Constant):
        if base.value == 0 and exponent < 0:
            raise ZeroDivisionError("zero base raised to a negative exponent")
        return Constant(base.value**exponent)
    if isinstance(base, Power):
        # (b^i)^j = b^(i*j); valid because exponents are integers
        return _make_power(base.base, base.exponent * exponent)
    if isinstance(base, Product):
        return _make_product([_make_power(f, exponent) for f in base.factors])
    return Power(base, exponent)


def _split_coefficient(term: Expr) -> tuple[Fraction, Expr | None]:
    """Split a canonical non-Sum term into (rational coefficient, rest)."""
    if isinstance(term, Constant):
        return term.value, None
    if isinstance(term, Product) and isinstance(term.factors[0], Constant):
        rest = term.factors[1:]
        return term.factors[0].value, rest[0] if len(rest) == 1 else Product(rest)
    return Fraction(1), term


def _scale(term: Expr, c: Fraction) -> Expr:
    """c * term for a canonical non-Sum term and nonzero rational c."""
    if c == 1:
        return term
    coeff, rest = _split_coefficient(term)
    coeff *= c
    if rest is None:
        return Constant(coeff)
    if coeff == 1:
        return rest
    factors = rest.factors if isinstance(rest, Product) else (rest,)
    return Product((Constant(coeff),) + factors)


def _make_sum(terms: Iterable[Expr]) -> Expr:
    """Canonical sum of canonical children: flatten, merge like terms, sort."""
    constant = Fraction(0)
    buckets: dict[Expr, Fraction] = {}
    stack = list(terms)
    stack.reverse()
    while stack:
        t = stack.pop()
        if isinstance(t, Sum):
            stack.extend(reversed(t.terms))
            continue
        coeff, rest = _split_coefficient(t)
        if rest is None:
            constant += coeff
        else:
            buckets[rest] = buckets.get(rest, Fraction(0)) + coeff
    parts = [_scale(rest, c) for rest, c in buckets.items() if c != 0]
    if constant != 0:
        parts.append(Constant(constant))
    parts.sort(key=_sort_key)
    if not parts:
        return ZERO
    if len(parts) == 1:
        return parts[0]
    return Sum(tuple(parts))


def _make_product(factors: Iterable[Expr]) -> Expr:
    """Canonical product of canonical children: flatten, merge bases, sort."""
    coeff = Fraction(1)
    powers: dict[Expr, int] = {}
    stack = list(factors)
    stack.reverse()
    while stack:
        f = stack.pop()
        if isinstance(f, Product):
            stack.extend(reversed(f.factors))
            continue
        if isinstance(f, Constant):
            coeff *= f.value
            continue
        if isinstance(f, Power):
            base, exp = f.base, f.exponent
        else:
            base, exp = f, 1
        powers[base] = powers.get(base, 0) + exp
    if coeff == 0:
        return ZERO
    parts: list[Expr] = []
    for base, exp in powers.items():
        if exp == 0:
            continue  # b^1 * b^(-1) cancels (bases are symbolic, assumed nonzero)
        parts.append(base if exp == 1 else _make_power(base, exp))
    parts.sort(key=_sort_key)
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
    if isinstance(e, Constant):
        return e.value
    if isinstance(e, Symbol):
        try:
            v = bindings[e.name]
        except KeyError:
            raise UnboundSymbolError(e.name) from None
        return Fraction(v)
    if isinstance(e, Sum):
        total = Fraction(0)
        for t in e.terms:
            total += evaluate(t, bindings)
        return total
    if isinstance(e, Product):
        total = Fraction(1)
        for f in e.factors:
            total *= evaluate(f, bindings)
        return total
    if isinstance(e, Power):
        base = evaluate(e.base, bindings)
        if base == 0 and e.exponent < 0:
            raise ZeroDivisionError(
                f"zero base raised to exponent {e.exponent} during evaluation"
            )
        return base**e.exponent
    raise TypeError(f"not an expression node: {e!r}")


def expand(e: Expr) -> Expr:
    """Distribute products over sums and multiply out non-negative integer
    powers of sums.  Negative powers are left alone (their bases are still
    expanded).  Value-preserving; the result is canonical.
    """
    if isinstance(e, (Constant, Symbol)):
        return e
    if isinstance(e, Sum):
        return _make_sum([expand(t) for t in e.terms])
    if isinstance(e, Power):
        base = expand(e.base)
        if e.exponent < 0 or not isinstance(base, Sum):
            return _make_power(base, e.exponent)
        acc: Expr = base
        for _ in range(e.exponent - 1):
            acc = _distribute(acc, base)
        return acc
    if isinstance(e, Product):
        acc = ONE
        for f in e.factors:
            acc = _distribute(acc, expand(f))
        return acc
    raise TypeError(f"not an expression node: {e!r}")


def _distribute(u: Expr, v: Expr) -> Expr:
    uts = u.terms if isinstance(u, Sum) else (u,)
    vts = v.terms if isinstance(v, Sum) else (v,)
    return _make_sum([_make_product([a, b]) for a in uts for b in vts])


def symbols_in(e: Expr) -> frozenset[str]:
    """Names of all symbols occurring in ``e``."""
    return frozenset(_iter_symbols(e))


def _iter_symbols(e: Expr) -> Iterator[str]:
    if isinstance(e, Symbol):
        yield e.name
    elif isinstance(e, Sum):
        for t in e.terms:
            yield from _iter_symbols(t)
    elif isinstance(e, Product):
        for f in e.factors:
            yield from _iter_symbols(f)
    elif isinstance(e, Power):
        yield from _iter_symbols(e.base)
