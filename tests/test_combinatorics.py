import random
import tracemalloc
from fractions import Fraction

import pytest

from partfrac import binomial, compositions, multinomial


def pascal_triangle(rows: int) -> list[list[int]]:
    """Independent brute-force binomials via the additive recurrence."""
    triangle = [[1]]
    for n in range(1, rows + 1):
        prev = triangle[-1]
        triangle.append(
            [1] + [prev[k - 1] + prev[k] for k in range(1, n)] + [1]
        )
    return triangle


def test_binomial_small_values():
    assert binomial(5, 2) == 10
    assert binomial(0, 0) == 1
    assert binomial(7, 7) == 1


def test_binomial_out_of_range_is_zero():
    assert binomial(4, 7) == 0
    assert binomial(4, -1) == 0
    assert binomial(0, 3) == 0


def test_binomial_rejects_negative_n():
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_binomial_against_pascal_triangle():
    triangle = pascal_triangle(40)
    assert binomial(40, 20) == triangle[40][20] == 137846528820
    for n in range(31):
        for k in range(n + 1):
            assert binomial(n, k) == triangle[n][k]


def test_pascal_recurrence():
    for n in range(1, 31):
        for k in range(-1, n + 2):
            assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


def test_multinomial_trivial_cases():
    assert multinomial(0, [0, 0, 0]) == 1
    assert multinomial(2, [1, 1]) == 2
    assert multinomial(3, [3]) == 1


def test_multinomial_counts_multiset_permutations():
    # independent oracle: count distinct orderings of the multiset explicitly
    from itertools import permutations

    assert multinomial(4, [2, 1, 1]) == len(set(permutations("aabc"))) == 12
    assert multinomial(6, [2, 2, 2]) == len(set(permutations("aabbcc"))) == 90


def test_multinomial_contract_violations():
    with pytest.raises(ValueError):
        multinomial(3, [1, 1])  # parts sum to 2, not 3
    with pytest.raises(ValueError):
        multinomial(2, [3, -1])
    with pytest.raises(ValueError):
        multinomial(-1, [])


def test_compositions_trivial():
    assert list(compositions(0, 3)) == [(0, 0, 0)]
    assert list(compositions(2, 1)) == [(2,)]
    # one part costs O(1): combinations_with_replacement would copy its
    # whole pool of m + 1 numbers before it yields the one empty tuple
    tracemalloc.start()
    try:
        assert list(compositions(10**5, 1)) == [(10**5,)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024


def test_compositions_explicit_enumeration():
    assert list(compositions(2, 3)) == [
        (0, 0, 2),
        (0, 1, 1),
        (0, 2, 0),
        (1, 0, 1),
        (1, 1, 0),
        (2, 0, 0),
    ]


def test_compositions_are_lexicographic_and_unique():
    for m, k in [(3, 4), (5, 3), (6, 2)]:
        seen = list(compositions(m, k))
        assert seen == sorted(seen)
        assert len(seen) == len(set(seen))
        assert all(len(c) == k and sum(c) == m for c in seen)


def test_compositions_count_matches_binomial():
    assert sum(1 for _ in compositions(5, 8)) == binomial(12, 7) == 792
    for m in range(7):
        for k in range(1, 9):
            count = sum(1 for _ in compositions(m, k))
            assert count == binomial(m + k - 1, k - 1)


def test_multinomial_row_sums():
    # summing the multinomial weights over all compositions of m into k parts
    # counts the functions from an m-set to a k-set
    for m in range(7):
        for k in range(1, 6):
            total = sum(multinomial(m, parts) for parts in compositions(m, k))
            assert total == k**m


def test_compositions_argument_validation():
    with pytest.raises(ValueError):
        compositions(-1, 2)
    with pytest.raises(ValueError):
        compositions(2, 0)
    # checked at call time, not at the first next()
    for m, k in [(2.0, 2), (2, 2.0), ("2", 2)]:
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            compositions(m, k)


def _recursive_compositions(m, k):
    """The first part in increasing order, then the compositions of the rest."""
    if k == 1:
        return [(m,)]
    return [(first, *rest) for first in range(m + 1)
            for rest in _recursive_compositions(m - first, k - 1)]


def test_compositions_equal_a_recursive_reference():
    for m in range(8):
        for k in range(1, 8):
            assert list(compositions(m, k)) == _recursive_compositions(m, k)


def test_fraction_arithmetic_is_exact():
    rng = random.Random(20240817)
    for _ in range(200):
        a = Fraction(rng.randint(-(10**30), 10**30), rng.randint(1, 10**30))
        c = Fraction(rng.randint(-(10**30), 10**30), rng.randint(1, 10**30))
        assert (a + c) - c == a
        assert a.denominator > 0
        assert Fraction(0, 17) == Fraction(0, 1)
