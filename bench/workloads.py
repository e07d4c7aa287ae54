"""Seeded inputs for the four benchmark workloads.

Everything here is text: root lists, weights and CLI arguments, exactly as
a user would type them.  The same seed gives the same inputs.  The seed
draws names, values and order; the shapes that decide how much work a case
is (number of factors, multiplicities, numerator degree) are fixed, so runs
at different seeds do comparable work.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass
from fractions import Fraction

from checker import Problem


@dataclass(frozen=True)
class Case:
    """One decomposition: ``problem`` holds the input text; ``fmt`` is the
    output format written to the result file."""

    label: str
    problem: Problem
    fmt: str = "infix"

    @property
    def is_batch(self) -> bool:
        return len(self.problem.numerator) > 1


@dataclass(frozen=True)
class Invocation:
    """One ``python -m partfrac`` call: its arguments before ``--output``
    and the input they describe."""

    label: str
    args: tuple[str, ...]
    problem: Problem
    fmt: str = "infix"
    verify: bool = False


def _names(rng: random.Random, count: int) -> list[str]:
    """``count`` distinct names, a letter other than x plus two digits, so
    every seed renders names of the same length."""
    letters = string.ascii_lowercase.replace("x", "")
    pool = [f"{c}{i:02d}" for c in letters for i in range(100)]
    return rng.sample(pool, count)


def _single(l: int, roots, mults) -> Problem:
    return Problem((("1", l),), tuple(roots), tuple(mults))


def proper_symbolic(seed: int) -> list[Case]:
    rng = random.Random(seed)
    # 23 roots, 19 simple and 4 triple (acceptance criterion 5); the seed
    # picks the names and which four factors are triple.
    names = _names(rng, 23)
    triple = set(rng.sample(range(23), 4))
    mults = [3 if i in triple else 1 for i in range(23)]
    cases = [Case("roots23", _single(0, names, mults))]
    # 80 simple poles: the n^2 end of the scaling curve.
    cases.append(Case("simple80", _single(0, _names(rng, 80), [1] * 80)))
    # The paper's use case: one large sum of 23 proper terms over a shared
    # denominator, c_l * x^l / ((x-a1)^5 (x-a2)^7 (x-a3)^11), l = 0..22.
    roots = _names(rng, 3)
    weights = _names(rng, 23)
    numerator = tuple((w, l) for l, w in enumerate(weights))
    cases.append(Case("batch23", Problem(numerator, tuple(roots), (5, 7, 11))))
    return cases


def improper_symbolic(seed: int) -> list[Case]:
    rng = random.Random(seed)
    roots = _names(rng, 3)
    return [Case(f"l{l}", _single(l, roots, (5, 7, 11))) for l in (23, 30, 40)]


# Fixed shapes for small_verified: (multiplicities, numerator degree,
# symbolic root kinds).  Built once from a constant seed so every --seed
# does the same amount of work.  Kinds: "s" a symbol, "ss" a sum or
# difference of two symbols, "cs" rational*symbol + rational, "r" a
# rational among symbolic roots.
_SHAPE_SEED = 20240530


def _shapes(count: int) -> list[tuple[tuple[int, ...], int, tuple[str, ...]]]:
    rng = random.Random(_SHAPE_SEED)
    shapes = []
    for i in range(count):
        n = 1 + i % 6
        mults = tuple(rng.randint(1, 3) for _ in range(n))
        m = sum(mults)
        l = rng.randint(0, m - 1) if i % 2 == 0 else rng.randint(m, m + 2)
        kinds = ["s"] + [rng.choice(("s", "s", "ss", "cs", "r")) for _ in range(n - 1)]
        rng.shuffle(kinds)
        shapes.append((mults, l, tuple(kinds)))
    return shapes


def _fraction_text(v: Fraction) -> str:
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-12, 12), rng.randint(1, 5))


def _symbolic_root(rng: random.Random, kind: str, pool: list[str]):
    """(canonical key, text) of one root of the given kind; the key is the
    root as a linear form, used only to keep roots distinct."""
    if kind == "r":
        v = _rational(rng)
        return ((("1", v),), _fraction_text(v))
    if kind == "s":
        s = rng.choice(pool)
        return (((s, Fraction(1)),), s)
    if kind == "ss":
        s, t = rng.sample(pool, 2)
        sign = rng.choice((1, -1))
        key = tuple(sorted(((s, Fraction(1)), (t, Fraction(sign)))))
        return (key, f"{s} {'+' if sign > 0 else '-'} {t}")
    s = rng.choice(pool)
    c = Fraction(rng.choice((-3, -2, 2, 3, 5)), rng.choice((1, 1, 2)))
    d = _rational(rng)
    while d == 0:
        d = _rational(rng)
    key = tuple(sorted(((s, c), ("1", d))))
    c_text = f"({_fraction_text(c)})" if c.denominator != 1 else _fraction_text(c)
    sign, mag = ("-", -d) if d < 0 else ("+", d)
    return (key, f"{c_text}*{s} {sign} {_fraction_text(mag)}")


def small_verified(seed: int) -> list[Case]:
    """200 small specs: 100 fixed shapes, each once with rational roots and
    once with symbolic ones, in seeded order.  Results are written in the
    structured format."""
    rng = random.Random(seed)
    pool = list("abcdefgh")
    cases = []
    for idx, (mults, l, kinds) in enumerate(_shapes(100)):
        values: list[Fraction] = []
        while len(values) < len(mults):
            v = _rational(rng)
            if v not in values:
                values.append(v)
        rational = [_fraction_text(v) for v in values]
        cases.append(Case(f"q{idx}", _single(l, rational, mults), "structured"))
        keys: list = []
        texts: list[str] = []
        for kind in kinds:
            key, text = _symbolic_root(rng, kind, pool)
            while key in keys:
                key, text = _symbolic_root(rng, kind, pool)
            keys.append(key)
            texts.append(text)
        cases.append(Case(f"s{idx}", _single(l, texts, mults), "structured"))
    rng.shuffle(cases)
    return cases


def cli(seed: int) -> list[Invocation]:
    rng = random.Random(seed)
    roots = _names(rng, 3)
    roots_arg = ",".join(roots)
    symbolic = _single(3, roots, (5, 7, 11))
    return [
        Invocation("worked", ("0,1,1,1", "-1,-2,-3"), _single(0, ("-1", "-2", "-3"), (1, 1, 1))),
        Invocation("plain", ("3,5,7,11", roots_arg), symbolic),
        Invocation("expand", ("3,5,7,11", roots_arg, "--expand"), symbolic),
        Invocation(
            "structured", ("3,5,7,11", roots_arg, "--format", "structured"), symbolic, "structured"
        ),
        Invocation("verify", ("3,5,7,11", roots_arg, "--verify", "20"), symbolic, verify=True),
    ]


def make(workload: str, seed: int) -> list:
    makers = {
        "proper_symbolic": proper_symbolic,
        "improper_symbolic": improper_symbolic,
        "small_verified": small_verified,
        "cli": cli,
    }
    return makers[workload](seed)
