import pytest

from asmtree.combinat import (
    binomial,
    count_compositions_1_2,
    factorial,
    stirling2,
)

from oracles import (
    bell_numbers,
    compositions_1_2,
    count_1_2_compositions,
    stirling2_by_listing,
)


def test_factorial_values():
    assert [factorial(n) for n in range(8)] == [1, 1, 2, 6, 24, 120, 720, 5040]
    assert factorial(12) == 479001600


def test_factorial_rejects_negative():
    with pytest.raises(ValueError):
        factorial(-1)


def test_binomial_values():
    assert binomial(5, 2) == 10
    assert binomial(0, 0) == 1
    assert binomial(10, 10) == 1
    assert binomial(52, 5) == 2598960


def test_binomial_out_of_range_is_zero():
    assert binomial(3, 5) == 0
    assert binomial(3, -1) == 0


def test_binomial_pascal_triangle():
    for n in range(1, 20):
        for k in range(1, n):
            assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)
        assert sum(binomial(n, k) for k in range(n + 1)) == 2**n


def test_stirling2_small_table():
    table = {
        (0, 0): 1,
        (1, 1): 1,
        (3, 2): 3,
        (4, 2): 7,
        (5, 3): 25,
        (6, 3): 90,
        (7, 4): 350,
    }
    for (n, k), value in table.items():
        assert stirling2(n, k) == value
    assert stirling2(4, 0) == 0
    assert stirling2(3, 5) == 0


def test_stirling2_against_partition_listing():
    for n in range(1, 8):
        for k in range(1, n + 1):
            assert stirling2(n, k) == stirling2_by_listing(n, k)


def test_stirling2_rows_sum_to_bell():
    bells = bell_numbers(12)
    for n in range(13):
        assert sum(stirling2(n, k) for k in range(n + 1)) == bells[n]


def test_count_compositions_1_2_examples():
    assert count_compositions_1_2(4, 3) == 3  # 211, 121, 112
    assert count_compositions_1_2(4, 2) == 1  # 22
    assert count_compositions_1_2(5, 2) == 0
    for n in range(13):
        assert count_compositions_1_2(n, n) == 1


def test_count_compositions_1_2_against_enumeration():
    for n in range(11):
        by_parts = {}
        for combo in compositions_1_2(n):
            by_parts[len(combo)] = by_parts.get(len(combo), 0) + 1
        for k in range(n + 2):
            assert count_compositions_1_2(n, k) == by_parts.get(k, 0)


def test_count_compositions_1_2_row_sums_are_fibonacci():
    for n in range(21):
        total = sum(count_compositions_1_2(n, k) for k in range(n + 1))
        assert total == count_1_2_compositions(n)
