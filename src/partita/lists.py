"""Batched rows and columns of the P(n, m) and Q(n, m) tables.

The builders here share work across all entries of a row or column
instead of dispatching scalar calls:

* a row P(n, 1..n) starts every entry from P(n - m) and adds algorithm
  2's alternating corrections: order i's corrections for every m sit in
  one series prefix after recurrence stages 1..i (``core._expansion``),
  read at stride i + 1;
* a column P(m..n, m) is either the recurrence array itself (small m)
  or the same series prefixes read densely (large m);
* Q rows and columns reduce to the P builders through the staircase
  shift Q(n, m) = P(n - m*(m - 1)/2, m).

No route multiplies: every correction is a stage of additions over the
series.  A full row takes about sqrt(2n) stages of at most n additions
of O(sqrt(n))-bit integers, the paper's O(n^2) bit cost (0.003 s at
n = 1000, 0.02 s at n = 4000).  ``causal_convolution``, the truncated
product of two sequences by its definition, is a public utility that no
route calls.
"""

from operator import add, mul, sub

from .core import _expansion, _recurrence_array, _staircase
from .series import PartitionSeries, _check_index, _p_values

__all__ = [
    "causal_convolution",
    "p_column",
    "p_row",
    "q_column",
    "q_row",
]

_STRATEGIES = ("auto", "direct", "conv")


def _check_strategy(strategy):
    if strategy not in _STRATEGIES:
        raise ValueError(f"unknown column strategy {strategy!r}")


def causal_convolution(a, b):
    """c[t] = sum_{j=0..t} a[j] * b[t - j] for t = 0..len(a)-1.

    Both inputs must have equal length; the output has the same length
    (the upper half of the full convolution is dropped).  Evaluated by
    its definition, O(len(a)^2) exact products.  A public utility: no
    row, column or scalar route calls it.
    """
    if len(a) != len(b):
        raise ValueError("causal_convolution requires equal-length inputs")
    return [sum(map(mul, a, b[t::-1])) for t in range(len(a))]


def p_row(n: int, cache: PartitionSeries | None = None) -> list:
    """[P(n, 1), P(n, 2), ..., P(n, n)].

    Every entry starts from P(n - m) and receives algorithm 2's
    alternating corrections.  Order i's corrections for all m sit in one
    series prefix after recurrence stages 1..i (``core._expansion`` at
    m = 1), consecutive m sitting i + 1 slots apart, so one strided
    slice serves the whole row: about sqrt(2n) stages of at most n
    additions each, the paper's O(n^2) bit cost, and no multiplication.
    Requires n >= 1.  ``cache`` is a PartitionSeries, extended as needed,
    or None for the shared one; anything else raises ValueError.
    """
    _check_index(n, "n")
    if n < 1:
        raise ValueError("p_row requires n >= 1")
    pv = _p_values(cache, n - 1)
    out = pv[n - 1 :: -1]  # entry m - 1 holds P(n - m), then P(n, m)
    for i, width, a in _expansion(pv, n, 1):
        # entry m - 1 reads a[width - 1 - (m - 1)*(i + 1)]
        taps = a[width - 1 :: -(i + 1)]
        op = add if i % 2 == 0 else sub
        out[: len(taps)] = map(op, out, taps)
    return out


def p_column(
    n: int,
    m: int,
    cache: PartitionSeries | None = None,
    strategy: str = "auto",
) -> list:
    """[P(m, m), P(m + 1, m), ..., P(n, m)]; for m = 0 it is [1, 0, ..., 0].

    strategy "direct" records the recurrence array at stage m (good for
    small m); "conv" builds the same values from the cached series by
    algorithm 2's corrections, each order's recurrence-stage prefix
    added densely since consecutive entries sit one slot apart (good for
    large m).  "auto" picks direct exactly when m*m < n, the measured
    crossover of the two routes (m = 0.9-1.1 sqrt(n) for n from 200 to
    2*10^4).  "conv" reads ``cache`` as p_row does.  Requires 0 <= m <= n.
    """
    _check_index(n, "n")
    _check_index(m, "m")
    _check_strategy(strategy)
    if m > n:
        raise ValueError("p_column requires m <= n")
    if m == 0:
        return [1] + [0] * n
    if strategy == "auto":
        strategy = "direct" if m * m < n else "conv"
    if strategy == "direct":
        return _recurrence_array(n, m)
    pv = _p_values(cache, n - m)
    out = pv[: n - m + 1]  # slot j starts at P(j), j = entry index - m
    for i, width, a in _expansion(pv, n, m):
        # the last width entries, up to P(n, m), receive a[0..width-1]
        op = add if i % 2 == 0 else sub
        out[-width:] = map(op, out[-width:], a)
    return out


def q_row(n: int) -> list:
    """[Q(n, 1), ..., Q(n, mmax)] with mmax = floor((sqrt(8n + 1) - 1)/2).

    mmax is the largest m whose minimal distinct sum m*(m + 1)/2 still
    fits in n.  ``core._expansion`` at m = 0 over the unit impulse
    [1, 0, ..., 0] runs recurrence stages 1..mmax, after which slot
    n - i*(i + 1)/2 counts the partitions of n - i*(i + 1)/2 into parts
    <= i, that is Q(n, i): one read per order.  Requires n >= 1.
    """
    _check_index(n, "n")
    if n < 1:
        raise ValueError("q_row requires n >= 1")
    return [a[width - 1] for _, width, a in _expansion([1] + [0] * (n - 1), n, 0)]


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
    shifted = _staircase(n, m)
    if shifted < m:
        _check_strategy(strategy)
        return []
    return p_column(shifted, m, cache, strategy)
