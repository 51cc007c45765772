"""Reference values for checking partita's outputs by another route.

Nothing here calls partita.  P(n, m) comes from a coin-change table,
P(n) from Euler's pentagonal recurrence, Q(n) from the pentagonal
identity over P, and cache files from the documented text format, all
written out again for this benchmark.  When sympy is importable its
partition function checks the P(n) list at sampled indices.
"""

import hashlib
import sys


def parts_at_most(total, m):
    """c[j] = partitions of j into parts of size at most m, for j = 0..total.

    Dropping one from each part maps partitions of m + j into exactly m
    parts onto partitions of j into at most m parts, and conjugation onto
    parts of size at most m, so c[j] == P(m + j, m): c is the P column.
    """
    c = [1] + [0] * total
    for k in range(1, min(m, total) + 1):
        for j in range(k, total + 1):
            c[j] += c[j - k]
    return c


def p_nm(n, m):
    """P(n, m), partitions of n into exactly m parts."""
    if m == 0:
        return 1 if n == 0 else 0
    if m > n:
        return 0
    return parts_at_most(n - m, m)[n - m]


def partition_numbers(top):
    """[P(0), ..., P(top)] by Euler's pentagonal-number recurrence."""
    p = [1]
    for i in range(1, top + 1):
        total, k = 0, 1
        while True:
            lag = k * (3 * k - 1) // 2
            if lag > i:
                break
            term = p[i - lag] + (p[i - lag - k] if lag + k <= i else 0)
            total += term if k % 2 else -term
            k += 1
        p.append(total)
    return p


def distinct_partition_numbers(p):
    """[Q(0), ..., Q(len(p) - 1)] from P by
    Q(i) = P(i) + sum_k (-1)^k [P(i - k(3k - 1)) + P(i - k(3k + 1))]."""
    q = []
    for i in range(len(p)):
        total, k = p[i], 1
        while k * (3 * k - 1) <= i:
            lag = k * (3 * k - 1)
            term = p[i - lag] + (p[i - lag - 2 * k] if lag + 2 * k <= i else 0)
            total += -term if k % 2 else term
            k += 1
        q.append(total)
    return q


def cache_bytes(kind, values):
    """The documented cache format: header, then one decimal per line."""
    lines = [f"{kind} v1 {len(values)}", *map(str, values), ""]
    return "\n".join(lines).encode("ascii")


def cache_digest(kind, values):
    return hashlib.sha256(cache_bytes(kind, values)).hexdigest()


def sympy_partition():
    """sympy's P(n) as a function returning int, or None without sympy."""
    # write no bytecode beside sympy, outside the checkout
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        from sympy.functions.combinatorial.numbers import partition
    except ImportError:
        return None
    finally:
        sys.dont_write_bytecode = saved
    return lambda n: int(partition(n))


class References:
    """P(n) and Q(n) lists grown on demand, checked against sympy once each
    time they grow when sympy is importable."""

    SYMPY_SAMPLES = 12

    def __init__(self):
        self._p = [1]
        self._q = [1]
        self._sympy = sympy_partition()

    @property
    def source(self):
        return "euler+sympy" if self._sympy else "euler"

    def p(self, top):
        if top >= len(self._p):
            old = len(self._p)
            self._p = partition_numbers(top)
            self._spot_check(old, top)
        return self._p[: top + 1]

    def q(self, top):
        if top >= len(self._q):
            self._q = distinct_partition_numbers(self.p(top))
        return self._q[: top + 1]

    def _spot_check(self, lo, hi):
        if self._sympy is None:
            return
        step = max(1, (hi - lo) // self.SYMPY_SAMPLES)
        for k in [*range(lo, hi, step), hi]:
            if self._sympy(k) != self._p[k]:
                raise RuntimeError(f"reference P({k}) disagrees with sympy")
