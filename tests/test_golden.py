"""Pinned output bytes: one sha256 digest per class of seeded inputs.

Each digest covers ``serialize`` of every decomposition in its class in all
four output forms (infix and structured, each plain and with expanded
coefficients).  A change that is meant to keep the output bytes must leave
every digest as it is.  A change that alters the bytes on purpose
regenerates the digests and says which classes changed and why:

    PYTHONPATH=src:tests python -c "import test_golden as g; print(g.digests())"
"""

import hashlib
import random
from fractions import Fraction

import pytest

from helpers import random_mixed_spec, random_rational_spec, random_symbolic_spec, roots23_spec
from partfrac import (
    OutputFormat,
    RationalFunctionSpec,
    Symbol,
    decompose,
    decompose_batch,
    serialize,
)

FORMATS = [
    OutputFormat(mode=mode, expand_coefficients=expand)
    for mode in ("infix", "structured")
    for expand in (False, True)
]


def _specs(make, seed, count, **kwargs):
    rng = random.Random(seed)
    return [make(rng, **kwargs) for _ in range(count)]


def _batches(seed, count):
    """Weighted sums of symbolic inputs over shared roots a1, a2, ..., with
    weights that are rationals or symbols, so terms merge and cancel."""
    rng = random.Random(seed)
    batches = []
    for _ in range(count):
        terms = []
        for i in range(rng.randint(2, 4)):
            spec = random_symbolic_spec(rng, max_n=3, max_mult=2)
            weight = rng.choice([1, -1, 2, Symbol(f"c{i}")])
            terms.append((weight, spec))
        batches.append(decompose_batch(terms))
    return batches


def _shared_batches(seed, count, factors):
    """Weighted sums of inputs over one set of factors drawn by
    ``factors(rng)``, at several degrees from proper to improper, some in
    reversed factor order, with int, Fraction and symbol weights."""
    rng = random.Random(seed)
    batches = []
    for _ in range(count):
        shared = factors(rng)
        m = sum(mult for _, mult in shared)
        terms = []
        for i in range(rng.randint(2, 5)):
            order = shared[::-1] if rng.random() < 0.3 else shared
            weight = rng.choice([1, -1, 3, Fraction(-2, 5), Symbol(f"c{i}")])
            terms.append((weight, RationalFunctionSpec(rng.randint(0, 2 * m), order)))
        batches.append(decompose_batch(terms))
    return batches


def _bench_scale():
    """The proper_symbolic bench shapes with fixed names: 23 roots (19 simple,
    4 triple), 40 simple roots, and the batch of w_l * x^l / ((x-a)^5 (x-b)^7
    (x-c)^11) for l = 0..22."""
    simple40 = RationalFunctionSpec(0, tuple((Symbol(f"a{i + 1}"), 1) for i in range(40)))
    factors = tuple(zip(map(Symbol, "abc"), (5, 7, 11)))
    batch = [(Symbol(f"w{l}"), RationalFunctionSpec(l, factors)) for l in range(23)]
    return [decompose(roots23_spec()), decompose(simple40), decompose_batch(batch)]


def _deep_quotient():
    """Quotients 60 degrees deep, where h_j takes the residue form: three
    simple Symbol roots, a, b, c at multiplicities 5, 7, 11, and a, 2*b,
    c + 1 at multiplicities 2, 1, 3, each at l - m = 60, and one batch over
    the three."""
    a, b, c = map(Symbol, "abc")
    specs = [
        RationalFunctionSpec(63, ((a, 1), (b, 1), (c, 1))),
        RationalFunctionSpec(83, ((a, 5), (b, 7), (c, 11))),
        RationalFunctionSpec(66, ((a, 2), (2 * b, 1), (c + 1, 3))),
    ]
    batch = decompose_batch(zip((1, Symbol("w"), Fraction(-2, 3)), specs))
    return [*map(decompose, specs), batch]


CLASSES = {
    "rational_proper": lambda: map(
        decompose, _specs(random_rational_spec, 101, 60, numerator="proper")
    ),
    "rational_improper": lambda: map(
        decompose, _specs(random_rational_spec, 102, 40, numerator="improper")
    ),
    "symbolic_proper": lambda: map(
        decompose, _specs(random_symbolic_spec, 103, 40, max_n=4, numerator="proper")
    ),
    "symbolic_improper": lambda: map(
        decompose, _specs(random_symbolic_spec, 104, 30, max_n=3, numerator="improper")
    ),
    "batch": lambda: _batches(105, 20),
    "rational_batch": lambda: _shared_batches(
        107, 30, lambda rng: random_rational_spec(rng, max_n=4, max_mult=3).factors
    ),
    "mixed_batch": lambda: _shared_batches(
        108, 30, lambda rng: random_mixed_spec(rng, max_n=4, max_mult=2).factors
    ),
    "mixed": lambda: map(decompose, _specs(random_mixed_spec, 106, 40)),
    "bench_scale": _bench_scale,
    "deep_quotient": _deep_quotient,
}

GOLDEN = {
    "rational_proper": "329f9f45555decb9d46ac598f133d7cd1eae05d13b0e6ec468c437e82aa34181",
    "rational_improper": "10c6b00764e3fe157af5b81301ecb6d5626482c3084c0b5325c481ed31622d0f",
    "symbolic_proper": "a275077c406bdbb86920fe12ece3f3f4f7e4e146015e020000e2676ba8505013",
    "symbolic_improper": "7d92b53a6279c90fe72dc8acd9c225d166b7b4c75ddc1b9e319313cafbbbd39c",
    "batch": "325fd9668a56e8a93836efe4afbf4e155225ebba17b4f887d1d6565219be4e94",
    "rational_batch": "0382819aeeb38c637201811c8c2919fbd7d70d17df97ffb4149cf4503c1f8cdc",
    "mixed_batch": "00e7f69d5287c1a9d16257b651baf038c6564fb018845be177d810c0c5c0a177",
    "mixed": "c8cb157430c67abc9272d0a9c650758fd4474c87ababb2a8b2aba4783304ee45",
    "bench_scale": "2b15ece86bccd3da58d8b52d0c64d2541e45b3c4f2607c4f27201ff9aed7748c",
    "deep_quotient": "e66f0d667cd55d3e21aedc198f1ef1c7ad0858a51820a0f2e886ef9949a4a2bc",
}


def _digest(decompositions) -> str:
    h = hashlib.sha256()
    for d in decompositions:
        for fmt in FORMATS:
            h.update(serialize(d, fmt).encode("ascii"))
            h.update(b"\n--\n")
    return h.hexdigest()


def digests() -> dict[str, str]:
    return {name: _digest(build()) for name, build in CLASSES.items()}


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_output_bytes_match_golden_digest(name):
    assert _digest(CLASSES[name]()) == GOLDEN[name]
