"""Exact combinatorics over arbitrary-precision integers.

Python ints are already arbitrary precision and ``fractions.Fraction`` gives
exact reduced rationals, so this module only adds the coefficient helpers the
decomposition formulas need: binomials with the vanishing-term convention,
multinomial coefficients, and enumeration of weak compositions.
"""

from __future__ import annotations

from math import comb, factorial
from typing import Iterator, Sequence

__all__ = ["binomial", "multinomial", "compositions"]


def binomial(n: int, k: int) -> int:
    """C(n, k), defined as 0 whenever k < 0 or k > n.

    The out-of-range convention matters: enumeration loops rely on terms with
    an impossible index vanishing silently instead of erroring.
    """
    if n < 0:
        raise ValueError(f"binomial requires n >= 0, got n={n}")
    if k < 0 or k > n:
        return 0
    return comb(n, k)


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
    """
    if m < 0:
        raise ValueError(f"compositions requires m >= 0, got m={m}")
    if k < 1:
        raise ValueError(f"compositions requires k >= 1, got k={k}")
    return _compositions(m, k)


def _compositions(m: int, k: int) -> Iterator[tuple[int, ...]]:
    if k == 1:
        yield (m,)
        return
    for first in range(m + 1):
        for rest in _compositions(m - first, k - 1):
            yield (first,) + rest
