"""Row and column builders: equality with scalar calls, both column
strategies, convolution contracts, and edge shapes."""

import random
from math import isqrt
from operator import mul

import pytest
from hypothesis import given, strategies as st

from partita import (
    PartitionSeries,
    causal_convolution,
    p_column,
    p_parts,
    p_row,
    q_column,
    q_parts,
    q_row,
)


def test_row_examples():
    assert p_row(1) == [1]
    assert p_row(5) == [1, 2, 2, 1, 1]
    assert p_row(7) == [1, 3, 4, 3, 2, 1, 1]


def test_column_examples():
    assert p_column(8, 3) == [1, 1, 2, 3, 4, 5]
    assert p_column(3, 3) == [1]
    assert p_column(3, 0) == [1, 0, 0, 0]
    assert p_column(0, 0) == [1]


def test_q_row_examples():
    assert q_row(1) == [1]
    assert q_row(6) == [1, 2, 1]
    assert q_row(10) == [1, 4, 4, 1]


def test_q_column_examples():
    assert q_column(9, 3) == [1, 1, 2, 3]
    assert q_column(5, 3) == []
    assert q_column(3, 2) == [1]
    assert q_column(4, 0) == [1, 0, 0, 0, 0]


def test_p_row_matches_scalars(p_rows_300):
    for n in (1, 2, 3, 17, 60, 150, 300):
        row = p_rows_300[n]
        assert len(row) == n
        assert row == [p_parts(n, m) for m in range(1, n + 1)]


def test_p_row_sums(p_rows_300, p_series_long):
    for n in range(1, 301):
        assert sum(p_rows_300[n]) == p_series_long.values[n]


def test_p_column_matches_scalars():
    for n in (1, 7, 40, 80):
        for m in range(0, n + 1):
            col = p_column(n, m)
            assert len(col) == n - m + 1
            assert col == [p_parts(j, m) for j in range(m, n + 1)]


def test_column_strategies_identical():
    cache = PartitionSeries()
    for n in (30, 120, 200):
        for m in range(1, n + 1):
            direct = p_column(n, m, cache, strategy="direct")
            conv = p_column(n, m, cache, strategy="conv")
            assert direct == conv


def test_column_auto_matches_both_strategies_at_threshold():
    n = 200
    threshold = isqrt(n)
    lo = max(1, threshold - 3)
    for m in range(lo, threshold + 4):
        assert p_column(n, m) == p_column(n, m, strategy="direct")


def test_column_rejects_bad_strategy_and_range():
    with pytest.raises(ValueError):
        p_column(10, 3, strategy="magic")
    with pytest.raises(ValueError):
        p_column(3, 5)
    with pytest.raises(ValueError):
        p_column(-1, 0)


def test_row_requires_positive_n():
    with pytest.raises(ValueError):
        p_row(0)
    with pytest.raises(ValueError):
        q_row(0)


def test_q_row_matches_scalars():
    for n in range(1, 151):
        row = q_row(n)
        assert len(row) == (isqrt(8 * n + 1) - 1) // 2
        assert row == [q_parts(n, m) for m in range(1, len(row) + 1)]
        # the next m has no room left
        assert q_parts(n, len(row) + 1) == 0


def test_q_row_sums(q_series_long):
    for n in range(1, 301):
        assert sum(q_row(n)) == q_series_long.values[n]


def test_q_column_matches_scalars():
    for n in range(0, 101):
        for m in range(0, 9):
            col = q_column(n, m)
            base = m * (m + 1) // 2
            if n < base:
                assert col == []
            else:
                assert col == [q_parts(j, m) for j in range(base, n + 1)]


def test_convolution_examples():
    assert causal_convolution([], []) == []
    assert causal_convolution([1], [1]) == [1]
    assert causal_convolution([1, 2, 3], [4, 5, 6]) == [4, 13, 28]


def test_convolution_rejects_length_mismatch():
    with pytest.raises(ValueError):
        causal_convolution([1, 2], [1])


@given(
    st.lists(st.integers(min_value=-(10**12), max_value=10**12), max_size=20),
    st.data(),
)
def test_convolution_definition(a, data):
    b = data.draw(
        st.lists(
            st.integers(min_value=-(10**12), max_value=10**12),
            min_size=len(a),
            max_size=len(a),
        )
    )
    got = causal_convolution(a, b)
    assert got == [
        sum(a[j] * b[t - j] for j in range(t + 1)) for t in range(len(a))
    ]


def schoolbook_convolution(a, b):
    """Reference: the O(L^2) definition, one exact product per term."""
    return [sum(map(mul, a, b[t::-1])) for t in range(len(b))]


@pytest.mark.parametrize("length", [0, 1, 2, 700, 2000])
def test_packed_convolution_matches_schoolbook_on_series(
    length, p_series_long, q_series_long
):
    p = p_series_long.values[:length]
    q = q_series_long.values[:length]
    assert causal_convolution(q, p) == schoolbook_convolution(q, p)
    assert causal_convolution(p, p) == schoolbook_convolution(p, p)


def test_packed_convolution_all_zero_operands():
    zeros = [0] * 6
    for other in (zeros, [1, 2, 3, 4, 5, 6], [-7, 0, 10**30, -1, 0, 2]):
        assert causal_convolution(zeros, other) == zeros
        assert causal_convolution(other, zeros) == zeros


@pytest.mark.parametrize("k", [1, 2, 3, 8])
@pytest.mark.parametrize("length", [1, 2, 3, 255, 256])
def test_packed_convolution_at_byte_edges(k, length):
    # inputs of 8k one-bits: at length 255 the coefficient bound fills
    # its bytes exactly, at 256 it spills one bit into the next byte
    top = 2 ** (8 * k) - 1
    a = [top] * length
    b = [top - (i % 2) for i in range(length)]
    assert causal_convolution(a, b) == schoolbook_convolution(a, b)
    assert causal_convolution(a, a)[-1] == length * top * top


def test_packed_convolution_mixed_signs_huge_values():
    rng = random.Random(20220510)
    big = 10**120
    for length in (1, 2, 17, 60):
        a = [rng.randint(-big, big) for _ in range(length)]
        b = [rng.randint(-big, big) for _ in range(length)]
        negative = [-abs(x) - 10**101 for x in b]
        assert causal_convolution(a, b) == schoolbook_convolution(a, b)
        assert causal_convolution(negative, a) == schoolbook_convolution(negative, a)
        assert causal_convolution(negative, negative) == schoolbook_convolution(
            negative, negative
        )


def test_packed_convolution_past_int_string_digit_limit():
    a = [10**2200 + 1, -(7**2600), 3, 0]
    b = [5**3200, 2, -(10**2250), 1]
    got = causal_convolution(a, b)
    assert got == schoolbook_convolution(a, b)
    # the interpreter refuses str() of ints over 4300 digits by default
    assert max(abs(x) for x in got) > 10**4300


def test_convolution_identity_element():
    # delta at index 0 leaves the other operand unchanged
    a = [3, 1, 4, 1, 5]
    delta = [1, 0, 0, 0, 0]
    assert causal_convolution(a, delta) == a
    assert causal_convolution(delta, a) == a


def test_row_uses_supplied_cache():
    cache = PartitionSeries()
    row = p_row(60, cache)
    assert len(cache) >= 50
    assert row == p_row(60)


def test_big_row_spot_values(p_series_long):
    # deep-row entries straddling the split between the recurrence
    # region (small m) and the corrected series tail (large m)
    n = 300
    row = p_row(n)
    for m in (7, 14, 15, 16, 20, 40, 150, 299):
        assert row[m - 1] == p_parts(n, m)
    assert row[-1] == 1
    assert row[149] == p_series_long.values[150]
