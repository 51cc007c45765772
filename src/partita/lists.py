"""Batched rows and columns of the P(n, m) and Q(n, m) tables.

The builders here share work across all entries of a row or column
instead of dispatching scalar calls:

* a row P(n, 1..n) reuses one recurrence array for every small-m entry
  and turns the correction sums of the large-m entries into one
  convolution per expansion order, sampled at stride i + 1;
* a column P(m..n, m) is either the recurrence array itself (small m)
  or the same convolution scheme sampled densely (large m);
* Q rows and columns reduce to the P builders through the staircase
  shift Q(n, m) = P(n - m*(m - 1)/2, m).

Each convolution is one packed big-integer product (Kronecker
substitution, see ``causal_convolution``).  A full row takes one such
product per expansion order, about sqrt(2n/3) of them (24 at n = 1000,
50 at n = 4000), of lengths up to n.
"""

from math import isqrt
from operator import add, sub

from .core import _recurrence_array, _stage_update, _staircase, expansion_depth
from .series import PartitionSeries, _check_index, shared_p_series

__all__ = [
    "COLUMN_SCALE",
    "COLUMN_POWER",
    "causal_convolution",
    "p_column",
    "p_row",
    "q_column",
    "q_row",
]

# Column strategy threshold: m < COLUMN_SCALE * n**COLUMN_POWER picks the
# direct recurrence array, larger m the convolution route.  Purely a
# performance knob; both strategies return identical values.  Fitted to
# the measured crossover of the two routes, m = 0.12-0.13 n for n from
# 500 to 10^4 (m = 0.15 n at n = 200, where both take under a millisecond).
COLUMN_SCALE = 0.125
COLUMN_POWER = 1.0

_STRATEGIES = ("auto", "direct", "conv")


def _check_strategy(strategy):
    if strategy not in _STRATEGIES:
        raise ValueError(f"unknown column strategy {strategy!r}")


def causal_convolution(a, b):
    """c[t] = sum_{j=0..t} a[j] * b[t - j] for t = 0..len(a)-1.

    Both inputs must have equal length; the output has the same length
    (the upper half of the full convolution is never needed here).
    Evaluated by Kronecker substitution: both inputs are packed into one
    big integer each, at a field width that holds every output
    coefficient, multiplied once and unpacked.  Inputs with negative
    entries are split into their positive and negative parts, one product
    per pair of nonzero parts; nonnegative inputs cost one product.
    """
    if len(a) != len(b):
        raise ValueError("causal_convolution requires equal-length inputs")
    out = [0] * len(a)
    for sign_a, part_a in _sign_parts(a):
        for sign_b, part_b in _sign_parts(b):
            op = add if sign_a == sign_b else sub
            out = list(map(op, out, _packed_convolution(part_a, part_b)))
    return out


def _sign_parts(values):
    # [(sign, magnitudes)] summing to values: nonnegative values whole,
    # otherwise the nonzero ones of their positive and negative parts
    if min(values, default=0) >= 0:
        return [(1, values)]
    parts = (
        (1, [x if x > 0 else 0 for x in values]),
        (-1, [-x if x < 0 else 0 for x in values]),
    )
    return [(sign, part) for sign, part in parts if any(part)]


def _packed_convolution(a, b):
    # causal convolution of equal-length nonnegative lists by one product;
    # no full-convolution coefficient exceeds len * max(a) * max(b), so
    # fields of nb bytes never carry into each other
    size = len(a)
    if not size:
        return []
    bits = max(a).bit_length() + max(b).bit_length() + size.bit_length()
    nb = (bits + 7) // 8
    product = _pack(a, nb) * _pack(b, nb)
    data = product.to_bytes(2 * size * nb, "little")
    return [int.from_bytes(data[i : i + nb], "little") for i in range(0, size * nb, nb)]


def _pack(values, nb):
    # sum values[i] * 256**(nb*i)
    return int.from_bytes(b"".join([x.to_bytes(nb, "little") for x in values]), "little")


def _row_split(n):
    # ceil((sqrt(24n + 9) - 3) / 6) + 1: first row index served from the
    # cached series rather than the recurrence array
    x = 24 * n + 9
    r = isqrt(x)
    if r * r == x:
        return (r + 2) // 6 + 1
    return (r - 3) // 6 + 2


def p_row(n: int, cache: PartitionSeries | None = None) -> list:
    """[P(n, 1), P(n, 2), ..., P(n, n)].

    Entries below the split point come from one shared recurrence array,
    reading P(n, i) after stage i.  Entries at or above it start from
    P(n - m) and receive alternating corrections: for each order i, one
    convolution of the array prefix (holding the distinct-part counts
    Q(., i)) with the cached series is computed in full and then sampled
    at stride i + 1, hitting every m at once: one packed product per
    order, about sqrt(2n/3) in all.  Requires n >= 1; extends the cache
    as needed.
    """
    _check_index(n, "n")
    if n < 1:
        raise ValueError("p_row requires n >= 1")
    cache = shared_p_series() if cache is None else cache
    split = _row_split(n)
    out = [0] * (n + 1)  # slot m holds P(n, m); slot 0 unused
    if split <= n:
        cache.ensure(n - split)
        out[split:] = cache.values[n - split :: -1]
    pv = cache.values
    a = [1] * (n + 1)
    kmin = 1
    for i in range(1, min(split, n + 1)):
        if i > 1:
            _stage_update(a, i, n)
        out[i] = a[n - i]
        width = n - split * (i + 1) - kmin + 1
        if width >= 1:
            conv = causal_convolution(a[:width], pv[:width])
            # slot m samples conv at n - m*(i+1) - kmin; step down i+1 per m
            taps = conv[width - 1 :: -(i + 1)]
            op = add if i % 2 == 0 else sub
            stop = split + len(taps)
            out[split:stop] = map(op, out[split:stop], taps)
        kmin += i + 1
    return out[1:]


def _column_conv(n, m, cache):
    size = n - m
    cache.ensure(size)
    pv = cache.values
    out = pv[: size + 1]  # slot j starts at P(j), j = entry index - m
    a = [1] * (size + 1)
    kmin = 1
    for i in range(1, expansion_depth(n, m) + 1):
        width = n - m * (i + 1) - kmin + 1
        if width < 1:
            break
        if i > 1:
            _stage_update(a, i, width - 1)
        conv = causal_convolution(a[:width], pv[:width])
        # entries n' = kmin + m*(i+1) .. n receive conv[0..width-1] in order
        base = kmin + m * i  # == (kmin + m*(i+1)) - m, the first out slot
        op = add if i % 2 == 0 else sub
        out[base : base + width] = map(op, out[base : base + width], conv)
        kmin += i + 1
    return out


def p_column(
    n: int,
    m: int,
    cache: PartitionSeries | None = None,
    strategy: str = "auto",
) -> list:
    """[P(m, m), P(m + 1, m), ..., P(n, m)]; for m = 0 it is [1, 0, ..., 0].

    strategy "direct" records the recurrence array at stage m (good for
    small m); "conv" builds the same values by convolution against the
    cached series, here sampled densely since consecutive entries sit
    one slot apart (good for large m).  "auto" picks direct exactly when
    m < COLUMN_SCALE * n**COLUMN_POWER, that is m < n/8.  Requires
    0 <= m <= n.
    """
    _check_index(n, "n")
    _check_index(m, "m")
    _check_strategy(strategy)
    if m > n:
        raise ValueError("p_column requires m <= n")
    if m == 0:
        return [1] + [0] * n
    if strategy == "auto":
        strategy = "direct" if m < COLUMN_SCALE * float(n) ** COLUMN_POWER else "conv"
    if strategy == "direct":
        return _recurrence_array(n, m)
    cache = shared_p_series() if cache is None else cache
    return _column_conv(n, m, cache)


def q_row(n: int) -> list:
    """[Q(n, 1), ..., Q(n, mmax)] with mmax = floor((sqrt(8n + 1) - 1)/2).

    mmax is the largest m whose minimal distinct sum m*(m + 1)/2 still
    fits in n.  One recurrence array serves every entry: after stage i
    over a prefix that shrinks by i per stage, slot n - i*(i + 1)/2
    holds P(n - i*(i - 1)/2, i) = Q(n, i).  Requires n >= 1.
    """
    _check_index(n, "n")
    if n < 1:
        raise ValueError("q_row requires n >= 1")
    top = (isqrt(8 * n + 1) - 1) // 2
    out = [0] * (top + 1)
    out[1] = 1
    a = [1] * n
    last = n - 1
    for i in range(2, top + 1):
        last -= i
        _stage_update(a, i, last)
        out[i] = a[last]
    return out[1:]


def q_column(
    n: int,
    m: int,
    cache: PartitionSeries | None = None,
    strategy: str = "auto",
) -> list:
    """[Q(m*(m + 1)/2, m), ..., Q(n, m)]: the by-total column of Q.

    Empty when n is below the minimal distinct sum m*(m + 1)/2.  Via the
    staircase shift this is exactly a P column, re-indexed.
    """
    _check_index(n, "n")
    _check_index(m, "m")
    shifted = _staircase(n, m)
    if shifted is None:
        _check_strategy(strategy)
        return []
    return p_column(shifted, m, cache, strategy)
