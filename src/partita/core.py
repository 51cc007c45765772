"""Scalar computation of P(n, m) and Q(n, m).

P(n, m) counts the integer partitions of n into exactly m parts; Q(n, m)
those into m pairwise distinct parts.  Two complementary algorithms are
provided together with an automatic dispatcher:

* ``p_parts_alg1`` runs an in-place recurrence table and costs about
  m * (n - m) slot updates, so it wins for small m.
* ``p_parts_alg2`` expands P(n, m) against the cached list of P(0..n-m)
  as an alternating sum of correction terms, one per possible count i
  of distinct parts.  Order 1 reads the running sums kept beside the
  series, and each later recurrence stage stops at the next order's
  width (untrimmed, the stages of ``_expansion`` serve ``p_row``,
  ``p_column``'s conv route and ``q_row``), so it takes additions only;
  the number of terms shrinks as m grows, so it wins for large m.

The dispatcher ``p_parts`` adds closed forms for m <= 6 and the shortcut
P(n, m) = P(n - m) for m >= ceil(n / 2), and switches between the two
algorithms at m = c * sqrt(n) (c configurable, default 2.7).  With a
warm series cache every dispatch path takes O(n^(3/2)) additions or
fewer, of integers that grow with n, so its time grows faster.

The default misroutes a band: measured with a warm series, algorithm 1
is slower than algorithm 2 from about m = 0.6 * sqrt(n), and 17-33x
slower at 2.7 * sqrt(n) (n = 400 to 4 * 10^4).  The constant is kept
because the test suite pins it; pass c = 0.6 to route the band to
algorithm 2.

All counts are exact Python integers; closed forms use exact rational
rounding, never floating point.  Indices are bounded by INDEX_CEILING.
"""

import re
from collections import namedtuple
from fractions import Fraction
from itertools import accumulate, count
from math import isqrt
from operator import add

from .series import INDEX_CEILING, PartitionSeries, _check_index, _p_values

__all__ = [
    "ALG1",
    "ALG2",
    "CLOSED_FORM",
    "FAST_PATH",
    "DEFAULT_CROSSOVER",
    "INDEX_CEILING",
    "StepEstimate",
    "alg1_steps",
    "alg2_steps",
    "analytic_crossover",
    "analytic_crossover_floor",
    "dispatch_plan",
    "expansion_depth",
    "p_parts",
    "p_parts_alg1",
    "p_parts_alg2",
    "p_parts_closed",
    "practical_crossover",
    "q_parts",
]

# Dispatch labels, also used in CLI output.
CLOSED_FORM = "closed-form"
ALG1 = "alg1"
ALG2 = "alg2"
FAST_PATH = "fast-path"

DEFAULT_CROSSOVER = Fraction(27, 10)


def _as_fraction(constant):
    # the one parser of the crossover constant, the CLI's included
    if isinstance(constant, bool):
        raise ValueError("crossover constant must be a number, got bool")
    if isinstance(constant, Fraction):
        value = constant
    elif isinstance(constant, int):
        value = Fraction(constant)
    else:
        # via the decimal text so float 2.7 means exactly 27/10.
        # Fraction("1e1000000000") would first build 10**1000000000: a
        # decimal exponent beyond the int-string digit limit, 4300, is refused
        text = str(constant)
        match = re.search(r"e([-+]?\d+(?:_\d+)*)\s*\Z", text, re.IGNORECASE)
        if match and abs(int(match.group(1))) > 4300:
            raise ValueError(f"decimal exponent of {text!r} exceeds the limit 4300")
        try:
            value = Fraction(text)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"not a number: {text!r}") from None
    if value < 0:
        raise ValueError("crossover constant must be nonnegative")
    return value


def _check_span(n, m, name):
    _check_index(n, "n")
    _check_index(m, "m")
    if not 1 <= m <= n:
        raise ValueError(f"{name} requires 1 <= m <= n")


# Per-class passes over a table too big for cache wait on memory: each
# stage allocates its integers class by class, and the next one reads
# them scattered.  So large strides of large tables go block by block.
# Measured on alg1 (Python 3.11, 2-vCPU Xeon, 4 MB L2): blocks from
# stride 64 break even near 2.8e4 slots and halve the time at 1.6e5.
_BLOCK_SLOTS = 2**15
_BLOCK_STRIDE = 64


def _stage_update(a, i, last):
    """Apply a[p] += a[p - i] for p = i..last, in place, in increasing p.

    Executed as one C-level ``accumulate`` per stride-i residue class of
    a[0..last], or, for large tables and strides, as one ``map(add)``
    per block of i slots, adding the already updated block before it.
    Positions beyond ``last`` are untouched.
    """
    if last < i:
        return
    stop = last + 1
    if i < _BLOCK_STRIDE or stop < _BLOCK_SLOTS:
        for r in range(i):
            a[r:stop:i] = accumulate(a[r:stop:i])
        return
    for k in range(i, stop, i):
        end = min(k + i, stop)
        a[k:end] = map(add, a[k:end], a[k - i : end - i])


def _recurrence_array(n, m):
    # algorithm 1's table after stage min(m, n - m), which is the whole
    # column: slot j holds P(m + j, m); requires 1 <= m <= n
    size = n - m
    a = [1] * (size + 1)
    for i in range(2, min(m, size) + 1):
        _stage_update(a, i, size)
    return a


def p_parts_alg1(n: int, m: int) -> int:
    """P(n, m) by the in-place recurrence table (algorithm 1).

    Slot p of the working array holds P(p + i, i) once stage i has run;
    stage i adds a[p - i] into a[p] for p = i..n-m.  Stages beyond
    min(m, n - m) cannot change a[n - m], so they are skipped.  Needs no
    series cache.  Requires 1 <= m <= n.
    """
    _check_span(n, m, "p_parts_alg1")
    return _recurrence_array(n, m)[-1]


def expansion_depth(n: int, m: int) -> int:
    """Largest i >= 0 with n - m*(i + 1) >= i*(i + 1)/2.

    This is the number of outer terms in algorithm 2's alternating
    expansion: term i involves partitions into i distinct parts, and i
    distinct parts need at least i*(i + 1)/2.  Evaluated with an exact
    integer square root.  Requires n >= 0, m >= 1.
    """
    _check_index(n, "n")
    _check_index(m, "m")
    if m < 1:
        raise ValueError("expansion_depth requires m >= 1")
    depth = (isqrt(8 * n + (2 * m - 1) ** 2) - 2 * m - 1) // 2
    return depth if depth > 0 else 0


def _expansion(pv, n, m):
    """Algorithm 2's expansion over the first n - 2m values of pv.

    Q(k, i) counts the partitions of k - i*(i + 1)/2 into parts <= i, so
    order i's correction sequence is [x^j] P(x) / prod_{j' <= i}(1 - x^j'),
    and dividing by (1 - x^j') is recurrence stage j'.  Runs the stages
    i = 1, 2, ... over one copy of that prefix and yields (i, width, a)
    after each, for as long as width = n - m*(i + 1) - kmin + 1 >= 1 with
    kmin = i*(i + 1)/2 (for m >= 1, up to expansion_depth(n, m)): then

        a[j] = sum_k Q(k, i) * pv[j + kmin - k]   for j < width.

    With pv the P series, a[width - 1] is order i's correction to
    P(n, m).  With pv the unit impulse [1, 0, ..., 0] and m = 0,
    a[width - 1] = Q(n, i).  Widths shrink with i, so each stage touches
    only the prefix later orders read.
    """
    a = pv[: max(n - 2 * m, 0)]
    for i in count(1):
        width = n - m * (i + 1) - i * (i + 1) // 2 + 1
        if width < 1:
            return
        _stage_update(a, i, width - 1)
        yield i, width, a


def p_parts_alg2(n: int, m: int, cache: PartitionSeries | None = None) -> int:
    """P(n, m) by expansion against the cached series (algorithm 2).

    Starting from P(n - m), subtracts and adds correction sums, one per
    possible number i of distinct parts in the conjugate picture:

        P(n, m) = P(n - m) + sum_i (-1)^i sum_k Q(k, i) * P(kmax - k)

    with k running from i*(i + 1)/2 to kmax = n - m*(i + 1).  Each
    correction is the last slot of the series prefix after recurrence
    stages 1..i (see ``_expansion``), so nothing is multiplied.  Order 1
    reads the series' running sums; each later stage stops at the width
    the next order reads, and its own last slot sums the stride-i chain
    above that width: about expansion_depth(n, m) - 1 stages of at most
    n - 3m additions.  Extends ``cache``, a PartitionSeries or None for
    the shared one, to n - m; anything else raises ValueError.  Requires
    1 <= m <= n.
    """
    _check_span(n, m, "p_parts_alg2")
    width = max(n - 2 * m, 0)  # order 1's
    pv, sums = _p_values(cache, n - m, width)
    x = pv[n - m] - sums[width]
    a = sums[1 : max(width - m - 1, 1)]  # the slots of stage 1 order 2 reads
    for i in count(2):
        width -= m + i  # order i's
        if width < 1:
            return x
        below = width - m - i - 1  # the next order's
        _stage_update(a, i, below - 1)
        # slots below max(below, i) hold stage i, those above stage i - 1
        last = max(below, i) - 1
        x += (-1) ** i * sum(a[last - (last - width + 1) % i : width : i])


# m = 6 closed form correction, indexed by n mod 6.
_F_MOD6 = (-96, 629, 224, 309, 224, 629)


def _round_nearest(num, den):
    # round half up, exact integer arithmetic, den > 0; num >= 0, since
    # every closed-form numerator is nonnegative for 1 <= m <= 6, n >= m
    return (2 * num + den) // (2 * den)


def p_parts_closed(n: int, m: int) -> int:
    """P(n, m) for m <= 6 by polynomial closed forms.

    m = 1 is constant, m = 2 a floor, and m = 3..6 are nearest-integer
    roundings of quartic-and-below polynomials in n with small parity
    (and, for m = 6, mod-6) corrections.  Everything is exact integer
    arithmetic; no floating point is involved, so results are identical
    across platforms.  Requires 1 <= m <= 6 and n >= m.
    """
    _check_index(n, "n")
    _check_index(m, "m")
    if not 1 <= m <= 6:
        raise ValueError("p_parts_closed requires 1 <= m <= 6")
    if n < m:
        raise ValueError("p_parts_closed requires n >= m")
    if m == 1:
        return 1
    if m == 2:
        return n // 2
    if m == 3:
        return _round_nearest(n * n, 12)
    sign = -1 if n % 2 else 1  # (-1)^n
    if m == 4:
        return _round_nearest(n * (2 * n * n + 6 * n + 9 * (sign - 1)), 288)
    if m == 5:
        return _round_nearest(
            n * (n**3 + 10 * n * (n + 1) - 15 * (3 * sign + 5)), 2880
        )
    return _round_nearest(
        n
        * (
            6 * n**4
            + 135 * n**3
            + 760 * n * n
            + 675 * (sign - 1) * n
            - 30 * _F_MOD6[n % 6]
        ),
        518400,
    )


def alg1_steps(n: int, m: int) -> int:
    """Inner-loop update count of algorithm 1, from its loop bounds.

    Equals (mu - 1) * (2*(n - m) - mu) / 2 with mu = min(m, n - m); the
    product is always even.  Returns 0 when mu <= 1 (no stage runs).
    Requires 1 <= m <= n.
    """
    _check_span(n, m, "alg1_steps")
    mu = min(m, n - m)
    if mu <= 1:
        return 0
    return (mu - 1) * (2 * (n - m) - mu) // 2


def alg2_steps(n: int, m: int) -> int:
    """Step model for algorithm 2: floor of d * (2*(n - m) - d) / 2 with
    d = expansion_depth(n, m).

    This is a cost model, not an executed-instruction count: it tracks
    how the shrinking stage prefixes scale but ignores bookkeeping, and
    the product is halved with flooring since it can be odd.  Returns 0
    when the expansion is empty.  Requires 1 <= m <= n.
    """
    _check_span(n, m, "alg2_steps")
    depth = expansion_depth(n, m)
    if depth == 0:
        return 0
    return depth * (2 * (n - m) - depth) // 2


def analytic_crossover(n: int, bits: int = 64) -> Fraction:
    """Where the two step models cross: (sqrt(24n + 9) - 3) / 6.

    Returned as a Fraction computed from a scaled integer square root;
    the absolute error is below 2**-bits.  Requires n >= 1.
    """
    _check_index(n, "n")
    if n < 1:
        raise ValueError("analytic_crossover requires n >= 1")
    scaled = isqrt((24 * n + 9) << (2 * bits))
    return (Fraction(scaled, 1 << bits) - 3) / 6


def analytic_crossover_floor(n: int) -> int:
    """Integer floor of analytic_crossover(n), computed exactly."""
    _check_index(n, "n")
    if n < 1:
        raise ValueError("analytic_crossover_floor requires n >= 1")
    return (isqrt(24 * n + 9) - 3) // 6


def practical_crossover(n: int, constant=DEFAULT_CROSSOVER) -> int:
    """floor(c * sqrt(n)): the dispatcher's alg1/alg2 threshold on m.

    Exact integer arithmetic throughout (c is taken as a fraction), so
    boundary cases do not depend on float rounding.  Requires n >= 0.
    """
    _check_index(n, "n")
    c = _as_fraction(constant)
    return isqrt(c.numerator * c.numerator * n) // c.denominator


# The route label each forced ``method`` takes, and the values p_parts accepts.
_FORCED = {"alg1": ALG1, "alg2": ALG2, "closed": CLOSED_FORM}
_METHODS = ("auto", *_FORCED)


def _route(n, m, c, method="auto"):
    """Route label of P(n, m) under ``method``, c the crossover constant as
    a Fraction: the one place a scalar route is decided.  Forced "closed"
    with m > 6 raises; m = 0 and n <= m are the fast path under every
    method; a forced method takes its own route; auto picks in the order
    p_parts documents.  Pure."""
    if method == "closed" and m > 6:
        raise ValueError("closed form requires m <= 6")
    if m == 0 or n <= m:
        return FAST_PATH
    if method != "auto":
        return _FORCED[method]
    if m >= (n + 1) // 2:
        return FAST_PATH
    if m <= 6:
        return CLOSED_FORM
    if m <= practical_crossover(n, c):
        return ALG1
    return ALG2


class StepEstimate(namedtuple("StepEstimate", "alg1 alg2 chosen")):
    """Step models for both algorithms plus the dispatcher's pick, as the
    named tuple (alg1, alg2, chosen).

    ``chosen`` is a pure function of (n, m) and the crossover constant;
    it never depends on cache state, and changing the constant can only
    change ``chosen``, never the computed value.
    """

    __slots__ = ()


def _plan(n, m, constant, method):
    """(route label, top, head) of P(n, m), whose count reads at most
    P(0..head - 1) and P(top) of the series: top is n - m for alg2 and the
    non-trivial fast path, head max(n - 2m, 0) for alg2 (what p_parts_alg2
    reads), and 0 where the route reads none.  Checks what p_parts checks
    but the cache, then asks _route once; _count runs the plan."""
    _check_index(n, "n")
    _check_index(m, "m")
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}")
    route = _route(n, m, _as_fraction(constant), method)
    if route == ALG2:
        return route, n - m, max(n - 2 * m, 0)
    return route, n - m if route == FAST_PATH and 0 < m < n else 0, 0


def _estimate(n, m, route):
    # both step models beside a route label
    steps = (alg1_steps(n, m), alg2_steps(n, m)) if 1 <= m <= n else (0, 0)
    return StepEstimate(*steps, route)


def dispatch_plan(n: int, m: int, constant=DEFAULT_CROSSOVER) -> StepEstimate:
    """Step models and dispatch choice for P(n, m), without computing it;
    both models are 0 outside 1 <= m <= n, where the answer is a constant."""
    return _estimate(n, m, _plan(n, m, constant, "auto")[0])


def p_parts(
    n: int,
    m: int,
    cache: PartitionSeries | None = None,
    constant=DEFAULT_CROSSOVER,
    method: str = "auto",
) -> int:
    """P(n, m): the number of partitions of n into exactly m parts.

    Dispatch, in order: trivial cases (m = 0, n < m, n = m), answered
    first under every method, then P(n - m) from the series cache when
    m >= ceil(n / 2), closed forms for m <= 6, algorithm 1 for
    m <= c * sqrt(n), algorithm 2 otherwise.  ``method`` may force
    "alg1", "alg2" or "closed"; a forced method changes the route, never
    the value, and "closed" is refused for m > 6 whatever n is.
    ``cache`` is a PartitionSeries, extended on demand, or None for the
    shared one; anything else raises ValueError when a route reads it.
    Runs _plan, which decides the route, then _count, which takes it.
    """
    route, top, _ = _plan(n, m, constant, method)
    return _count(route, n, m, top, cache)


def _count(route, n, m, top, cache):
    """P(n, m) along the route and series index top of its _plan: the one
    executor of a planned count, shared by p_parts and the CLI."""
    if route == FAST_PATH:
        return _p_values(cache, top)[top] if top else int(n == m)
    if route == CLOSED_FORM:
        return p_parts_closed(n, m)
    if route == ALG1:
        return p_parts_alg1(n, m)
    return p_parts_alg2(n, m, cache)


def _staircase(n, m):
    """max(n - m*(m - 1)/2, 0), the index with Q(n, m) = P(shifted, m),
    exact below the staircase too: P(k, m) = 0 for 0 <= k < m.  Checks n,
    then m: the one index check of every Q count."""
    _check_index(n, "n")
    _check_index(m, "m")
    return max(n - m * (m - 1) // 2, 0)


def q_parts(
    n: int,
    m: int,
    cache: PartitionSeries | None = None,
    constant=DEFAULT_CROSSOVER,
    method: str = "auto",
) -> int:
    """Q(n, m): partitions of n into exactly m pairwise distinct parts.

    Subtracting the staircase 0 + 1 + ... + (m - 1) from the parts maps
    these bijectively onto ordinary partitions into m parts, so
    Q(n, m) = P(n - m*(m - 1)/2, m), which is zero for n < m*(m + 1)/2.
    The shift (``_staircase``) checks n and m; ``cache`` as in p_parts.
    """
    return p_parts(_staircase(n, m), m, cache, constant, method)
