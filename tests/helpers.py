"""Shared builders for randomized test inputs."""

from __future__ import annotations

import random
from fractions import Fraction

from partfrac import Constant, Expr, RationalFunctionSpec, Symbol


def distinct_rationals(rng: random.Random, n: int) -> list[Fraction]:
    values: set[Fraction] = set()
    while len(values) < n:
        values.add(Fraction(rng.randint(-30, 30), rng.randint(1, 8)))
    out = sorted(values)
    rng.shuffle(out)
    return out


def random_rational_spec(
    rng: random.Random,
    max_n: int = 6,
    max_mult: int = 3,
    numerator: str = "proper",
) -> RationalFunctionSpec:
    """Spec with rational roots.  numerator: 'proper' draws l < m,
    'improper' draws l in [m, 2m], 'any' draws l in [0, 2m]."""
    n = rng.randint(1, max_n)
    mults = [rng.randint(1, max_mult) for _ in range(n)]
    m = sum(mults)
    if numerator == "proper":
        l = rng.randint(0, m - 1)
    elif numerator == "improper":
        l = rng.randint(m, 2 * m)
    else:
        l = rng.randint(0, 2 * m)
    roots = distinct_rationals(rng, n)
    return RationalFunctionSpec(l, tuple((Constant(r), mult) for r, mult in zip(roots, mults)))


def random_symbolic_spec(
    rng: random.Random,
    max_n: int = 5,
    max_mult: int = 3,
    numerator: str = "any",
) -> RationalFunctionSpec:
    """Spec whose roots are distinct symbolic atoms."""
    n = rng.randint(1, max_n)
    mults = [rng.randint(1, max_mult) for _ in range(n)]
    m = sum(mults)
    if numerator == "proper":
        l = rng.randint(0, m - 1)
    elif numerator == "improper":
        l = rng.randint(m, 2 * m)
    else:
        l = rng.randint(0, 2 * m)
    roots = [Symbol(f"a{i + 1}") for i in range(n)]
    return RationalFunctionSpec(l, tuple(zip(roots, mults)))


_a1, _a2, _a3 = (Symbol(f"a{i}") for i in (1, 2, 3))
# Pairwise distinct roots of every kind: symbols, sums, differences, scaled
# symbols, rationals and zero.
MIXED_ROOTS: tuple[Expr, ...] = (
    _a1, _a2, _a3, _a1 + _a2, _a1 - _a2, _a2 - _a3 + 1, 2 * _a1, Fraction(-1, 3) * _a3,
    Constant(0), Constant(1), Constant(Fraction(-5, 2)),
)


def random_mixed_spec(
    rng: random.Random, max_n: int = 4, max_mult: int = 2
) -> RationalFunctionSpec:
    """Spec with up to ``max_n`` roots drawn from MIXED_ROOTS and a numerator
    degree l in [0, 2m]."""
    n = rng.randint(1, max_n)
    mults = [rng.randint(1, max_mult) for _ in range(n)]
    l = rng.randint(0, 2 * sum(mults))
    roots = rng.sample(MIXED_ROOTS, n)
    return RationalFunctionSpec(l, tuple(zip(roots, mults)))


def roots23_spec() -> RationalFunctionSpec:
    """23 symbol roots, four of them triple, as in the proper_symbolic bench."""
    rng = random.Random(23)
    mults = [3] * 4 + [1] * 19
    rng.shuffle(mults)
    roots = [Symbol(f"a{i + 1}") for i in range(23)]
    return RationalFunctionSpec(0, tuple(zip(roots, mults)))
