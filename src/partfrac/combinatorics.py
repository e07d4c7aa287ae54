"""Exact combinatorics over arbitrary-precision integers.

Python ints are already arbitrary precision and ``fractions.Fraction`` gives
exact reduced rationals, so this module only adds the coefficient helpers the
decomposition formulas need: binomials with the vanishing-term convention,
multinomial coefficients, and enumeration of weak compositions.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from itertools import combinations_with_replacement
from math import comb, factorial
from operator import index, sub

__all__ = ["binomial", "multinomial", "compositions"]


def binomial(n: int, k: int) -> int:
    """C(n, k), defined as 0 whenever k < 0 or k > n.

    The out-of-range convention matters: enumeration loops rely on terms with
    an impossible index vanishing silently instead of erroring.
    """
    if n < 0:
        raise ValueError(f"binomial requires n >= 0, got n={n}")
    return comb(n, k) if k >= 0 else 0


def multinomial(m: int, parts: Sequence[int]) -> int:
    """m! / (parts[0]! * parts[1]! * ...) for non-negative parts summing to m."""
    if m < 0:
        raise ValueError(f"multinomial requires m >= 0, got m={m}")
    if any(p < 0 for p in parts):
        raise ValueError(f"multinomial parts must be non-negative, got {list(parts)}")
    if sum(parts) != m:
        raise ValueError(f"multinomial parts {list(parts)} do not sum to m={m}")
    result = factorial(m)
    for p in parts:
        result //= factorial(p)
    return result


def compositions(m: int, k: int) -> Iterator[tuple[int, ...]]:
    """Yield every k-tuple of non-negative integers summing to m, in
    lexicographic order.

    The stream has exactly binomial(m + k - 1, k - 1) elements.  Enumeration
    order is part of the contract: downstream output must be reproducible.
    It is stars and bars: a nondecreasing (k-1)-tuple c of numbers in
    [0, m] places bar i after c[i] of the m stars, and the parts are the
    stars between consecutive bars, c[i] - c[i-1].  The tuples c come from
    ``combinations_with_replacement`` in lexicographic order, so the
    compositions do too.  One part is just (m,): the pool of
    ``combinations_with_replacement`` would cost O(m) to build for the one
    empty tuple.  Arguments are checked at call time.
    """
    m, k = index(m), index(k)
    if m < 0:
        raise ValueError(f"compositions requires m >= 0, got m={m}")
    if k < 1:
        raise ValueError(f"compositions requires k >= 1, got k={k}")
    last = (m,)
    if k == 1:
        return iter((last,))
    return (
        tuple(map(sub, c + last, (0,) + c))
        for c in combinations_with_replacement(range(m + 1), k - 1)
    )
