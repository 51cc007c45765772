"""Scalar counts: both algorithms, closed forms, step models, crossover
arithmetic, and the dispatcher's routing rules."""

import re
import sys
import threading
import time
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given, settings, strategies as st

from partita import (
    ALG1,
    ALG2,
    CLOSED_FORM,
    DEFAULT_CROSSOVER,
    FAST_PATH,
    PartitionSeries,
    StepEstimate,
    alg1_steps,
    alg2_steps,
    analytic_crossover,
    analytic_crossover_floor,
    core,
    dispatch_plan,
    expansion_depth,
    oracle,
    p_column,
    p_parts,
    p_parts_alg1,
    p_parts_alg2,
    p_parts_closed,
    practical_crossover,
    q_column,
    q_parts,
    series,
)

KNOWN = [
    (5, 2, 2),
    (6, 3, 3),
    (7, 4, 3),
    (7, 5, 2),
    (7, 6, 1),
    (9, 5, 5),
    (10, 3, 8),
    (10, 4, 9),
    (10, 5, 7),
    (10, 6, 5),
    (12, 4, 15),
    (20, 10, 42),
    (10, 10, 1),
]


@pytest.mark.parametrize("n,m,want", KNOWN)
def test_known_values_all_routes(n, m, want):
    assert p_parts(n, m) == want
    assert p_parts_alg1(n, m) == want
    assert p_parts_alg2(n, m) == want
    if m <= 6:
        assert p_parts_closed(n, m) == want


def test_trivial_cases():
    assert p_parts(0, 0) == 1
    assert p_parts(5, 0) == 0
    assert p_parts(0, 3) == 0
    assert p_parts(3, 7) == 0
    assert p_parts(4, 4) == 1
    assert q_parts(0, 0) == 1
    assert q_parts(4, 3) == 0
    assert q_parts(5, 3) == 0
    assert q_parts(6, 3) == 1


def test_algorithms_agree_exhaustively():
    cache = PartitionSeries()
    for n in range(1, 121):
        for m in range(1, n + 1):
            a = p_parts_alg1(n, m)
            assert a == p_parts_alg2(n, m, cache)
            assert a == p_parts(n, m, cache)


@pytest.mark.parametrize("i", [2, 5, core._BLOCK_STRIDE - 1, core._BLOCK_STRIDE, 97, 300])
def test_stage_update_matches_slotwise_loop(i):
    # both execution regimes: small and large tables, with last short
    # of, at and off a stride multiple
    big = core._BLOCK_SLOTS
    edges = (big - 2, big - 1, (big // i + 1) * i, big + 3 * i + 1)
    for last in (i - 1, i, 2 * i, 7 * i - 2) + edges:
        start = list(range(1, last + 4))
        want = start[:]
        for p in range(i, last + 1):
            want[p] += want[p - i]
        got = start[:]
        core._stage_update(got, i, last)
        assert got == want, (i, last)


def test_closed_forms_match_alg1():
    for m in range(1, 7):
        for n in range(m, 401):
            assert p_parts_closed(n, m) == p_parts_alg1(n, m)


def test_closed_form_domain():
    with pytest.raises(ValueError):
        p_parts_closed(10, 7)
    with pytest.raises(ValueError):
        p_parts_closed(3, 4)
    with pytest.raises(ValueError):
        p_parts_closed(5, 0)


def test_fast_path_equals_series(p_series_long):
    for n in range(1, 201):
        for m in range((n + 1) // 2, n + 1):
            assert p_parts(n, m) == p_series_long.values[n - m]


def test_method_forcing_is_value_transparent():
    cache = PartitionSeries()
    for n, m, want in KNOWN:
        for method in ("auto", "alg1", "alg2"):
            assert p_parts(n, m, cache, method=method) == want
        if m <= 6:
            assert p_parts(n, m, cache, method="closed") == want


def test_method_forcing_rejects_bad_requests():
    with pytest.raises(ValueError):
        p_parts(30, 8, method="closed")
    with pytest.raises(ValueError):
        p_parts(30, 8, method="magic")


def test_forced_methods_still_short_circuit_trivial_cases():
    # out-of-range inputs answer 0/1 before any algorithm runs
    assert p_parts(3, 7, method="alg1") == 0
    assert p_parts(4, 4, method="alg2") == 1
    assert p_parts(0, 0, method="closed") == 1


def test_alg_preconditions():
    with pytest.raises(ValueError):
        p_parts_alg1(5, 0)
    with pytest.raises(ValueError):
        p_parts_alg1(5, 6)
    with pytest.raises(ValueError):
        p_parts_alg2(5, 6)


def test_index_validation():
    # Q's counts are checked in the staircase shift, with P's messages
    cases = [
        ((-1, 2), "n must be nonnegative, got -1"),
        ((5, -2), "m must be nonnegative, got -2"),
        ((5.0, 2), "n must be an integer, got float"),
        ((True, 1), "n must be an integer, got bool"),
        ((2**62 + 1, 2), "n exceeds the index ceiling 2**62"),
    ]
    for args, message in cases:
        for fn in (p_parts, q_parts, q_column):
            with pytest.raises(ValueError, match=re.escape(message)):
                fn(*args)


def test_expansion_depth_matches_definition():
    for n in range(0, 501):
        for m in range(1, n + 2):
            want = 0
            i = 1
            while n - m * (i + 1) >= i * (i + 1) // 2:
                want = i
                i += 1
            assert expansion_depth(n, m) == want
    with pytest.raises(ValueError):
        expansion_depth(10, 0)


def test_expansion_depth_known_points():
    assert expansion_depth(10, 3) == 1
    assert expansion_depth(400, 54) == 6
    assert expansion_depth(10, 5) == 0


def test_alg1_steps_counts_inner_updates():
    for n in range(1, 201):
        for m in range(1, n + 1):
            size = n - m
            want = sum(size - i + 1 for i in range(2, min(m, size) + 1))
            assert alg1_steps(n, m) == want


def test_alg2_steps_matches_model():
    for n in range(1, 201):
        for m in range(1, n + 1):
            d = expansion_depth(n, m)
            want = d * (2 * (n - m) - d) // 2 if d else 0
            assert alg2_steps(n, m) == want
    assert alg2_steps(400, 50) >= 0
    assert alg1_steps(400, 50) == 15925


def test_step_models_require_valid_range():
    with pytest.raises(ValueError):
        alg1_steps(5, 6)
    with pytest.raises(ValueError):
        alg2_steps(5, 0)
    with pytest.raises(ValueError):
        analytic_crossover(0)
    with pytest.raises(ValueError):
        analytic_crossover_floor(0)
    with pytest.raises(TypeError):
        analytic_crossover(10, bits=64)  # fixed at 64 bits


def test_analytic_crossover_satisfies_its_quadratic():
    # x = (sqrt(24n + 9) - 3)/6 solves 3x^2 + 3x = 2n; the Fraction
    # result must satisfy it to within the advertised precision
    for n in (1, 10, 400, 10**6):
        x = analytic_crossover(n)
        assert isinstance(x, Fraction)
        residual = 3 * x * x + 3 * x - 2 * n
        assert abs(residual) < Fraction(1, 2**50)


def test_analytic_crossover_floor_is_exact():
    for n in range(1, 2001):
        floor_via_fraction = int(analytic_crossover(n))
        assert analytic_crossover_floor(n) == floor_via_fraction


def test_practical_crossover_known_points():
    assert practical_crossover(400) == 54
    assert practical_crossover(400, Fraction(27, 10)) == 54
    assert practical_crossover(400, 2.7) == 54
    assert practical_crossover(0) == 0
    assert practical_crossover(100, 3) == 30


def test_practical_crossover_is_exact_floor():
    c = Fraction(27, 10)
    for n in range(0, 3001):
        k = practical_crossover(n)
        # k <= c*sqrt(n) < k+1, squared to stay in integers
        assert k * k * c.denominator**2 <= c.numerator**2 * n
        assert (k + 1) ** 2 * c.denominator**2 > c.numerator**2 * n


def test_crossover_constant_rejects_negative():
    with pytest.raises(ValueError):
        practical_crossover(100, -1)
    with pytest.raises(ValueError):
        p_parts(30, 8, constant=Fraction(-1, 2))


def test_dispatch_labels():
    assert dispatch_plan(400, 30).chosen == ALG1
    assert dispatch_plan(400, 80).chosen == ALG2
    assert dispatch_plan(100, 4).chosen == CLOSED_FORM
    assert dispatch_plan(10, 7).chosen == FAST_PATH
    assert dispatch_plan(10, 0).chosen == FAST_PATH
    assert dispatch_plan(10, 10).chosen == FAST_PATH


def test_step_estimate_is_an_immutable_named_tuple():
    plan = dispatch_plan(400, 54)
    assert repr(plan) == "StepEstimate(alg1=16907, alg2=2058, chosen='alg1')"
    built = StepEstimate(1, 2, "x")
    assert (built.alg1, built.alg2, built.chosen) == (1, 2, "x")
    assert plan == StepEstimate(plan.alg1, plan.alg2, plan.chosen)
    assert hash(plan) == hash((plan.alg1, plan.alg2, plan.chosen))
    with pytest.raises(AttributeError):
        plan.chosen = ALG2
    with pytest.raises(AttributeError):
        plan.note = "extra"
    assert plan.chosen == ALG1


def test_dispatch_plan_zero_outside_range():
    for n, m in ((0, 0), (5, 0), (3, 7), (4, 4)):
        plan = dispatch_plan(n, m)
        assert plan.alg1 == plan.alg2 == 0


def test_dispatch_respects_threshold_boundary():
    # auto picks alg1 exactly while (m*den)^2 <= n*num^2
    c = Fraction(27, 10)
    for n in (100, 400, 1000):
        boundary = practical_crossover(n, c)
        assert (boundary * 10) ** 2 <= n * 27**2 < ((boundary + 1) * 10) ** 2
        if boundary > 6:
            assert dispatch_plan(n, boundary, c).chosen == ALG1
        if 6 < boundary + 1 < (n + 1) // 2:
            assert dispatch_plan(n, boundary + 1, c).chosen == ALG2


def test_constant_changes_route_never_value():
    cache = PartitionSeries()
    for n, m in ((50, 8), (80, 9), (120, 14), (200, 20)):
        values = {
            p_parts(n, m, cache, constant=c) for c in (0, 1, Fraction(27, 10), 50)
        }
        assert len(values) == 1
        labels = {dispatch_plan(n, m, c).chosen for c in (0, 50)}
        assert labels == {ALG1, ALG2}


def test_alg2_matches_expansion_definition(p_series_long):
    # independent tabulation: Q(k, i) by the textbook two-way recurrence,
    # then the alternating correction sum, term by term
    limit = 150
    q = [[0] * (limit + 1) for _ in range(limit + 1)]
    q[0][0] = 1
    for k in range(1, limit + 1):
        for i in range(1, limit + 1):
            if k - i >= 0:
                q[k][i] = q[k - i][i] + q[k - i][i - 1]
    pv = p_series_long.values
    for n in range(1, limit + 1):
        for m in range(1, n + 1):
            total = pv[n - m]
            i = 1
            while n - m * (i + 1) >= i * (i + 1) // 2:
                inner = sum(
                    q[k][i] * pv[n - m * (i + 1) - k]
                    for k in range(i * (i + 1) // 2, n - m * (i + 1) + 1)
                )
                total += inner if i % 2 == 0 else -inner
                i += 1
            assert p_parts_alg2(n, m) == total


@given(st.integers(min_value=1, max_value=400), st.data())
def test_two_way_recurrence(n, data):
    m = data.draw(st.integers(min_value=1, max_value=n))
    assert p_parts(n, m) == p_parts(n - 1, m - 1) + p_parts(n - m, m)


@given(st.integers(min_value=0, max_value=200), st.data())
def test_prefix_sum_identity(n, data):
    m = data.draw(st.integers(min_value=0, max_value=n))
    assert sum(p_parts(n, k) for k in range(m + 1)) == p_parts(n + m, m)


@given(st.integers(min_value=0, max_value=300), st.data())
@settings(max_examples=60)
def test_staircase_shift(n, data):
    m = data.draw(st.integers(min_value=0, max_value=25))
    shifted = n - m * (m - 1) // 2
    if shifted >= m:
        assert q_parts(n, m) == p_parts(shifted, m)
    else:
        assert q_parts(n, m) == 0


_TOTALS = PartitionSeries()


@given(st.integers(min_value=0, max_value=200))
def test_total_equals_doubled_middle(n):
    # P(n) = P(2n, n): dropping one unit from each of the n parts maps
    # those partitions onto partitions of n into at most n parts
    assert p_parts(2 * n, n) == _TOTALS[n]


def test_big_value_integrity():
    # 64-bit-overflow territory; values must stay exact
    assert p_parts(400, 54, method="alg1") == p_parts(400, 54, method="alg2")
    v = p_parts(1000, 100)
    assert v == p_parts(1000, 100, method="alg1")
    assert v > 10**29


@pytest.mark.parametrize(
    "fn,args,options",
    [
        (p_parts, (5, 0), {"method": "magic"}),
        (p_parts, (3, 5), {"constant": -1}),
        (q_parts, (100, 20), {"method": "magic"}),
        (q_parts, (5, 3), {"constant": "abc"}),
        (p_column, (5, 0), {"strategy": "magic"}),
        (q_column, (5, 3), {"strategy": "magic"}),
        (dispatch_plan, (10, 8), {"constant": -1}),
        (p_parts, (3, 7), {"method": "closed"}),
        (q_parts, (3, 10), {"method": "closed"}),
        (p_parts, (3, 5), {"constant": True}),
        (dispatch_plan, (10, 8), {"constant": False}),
        (p_parts, (3, 5), {"constant": "1/0"}),
    ],
)
def test_bad_options_rejected_before_trivial_cases(fn, args, options):
    # the same values raise on non-trivial inputs, so they must here too
    with pytest.raises(ValueError):
        fn(*args, **options)


def test_expansion_matches_its_definition(p_series_long):
    # order i's prefix a[:width] is the convolution of Q(., i), which
    # starts at kmin = i*(i + 1)/2, with the series
    pv = p_series_long.values
    q = {}
    for n in range(1, 61):
        for m in range(1, n + 1):
            orders = []
            for i, width, a in core._expansion(pv, n, m):
                orders.append(i)
                kmin = i * (i + 1) // 2
                assert width == n - m * (i + 1) - kmin + 1
                for k in range(kmin, kmin + width):
                    if (k, i) not in q:
                        q[k, i] = oracle.count_partitions(k, i, distinct=True)
                want = [
                    sum(q[k, i] * pv[j + kmin - k] for k in range(kmin, j + kmin + 1))
                    for j in range(width)
                ]
                assert a[:width] == want
            assert orders == list(range(1, expansion_depth(n, m) + 1))


def _running_sums_are_a_prefix(s):
    return s._sums == list(accumulate(s.values, initial=0))[: len(s._sums)]


def test_alg2_reuses_running_sums_as_widths_grow_and_shrink():
    # one series, alg2 widths n - 2m of 800, 2600, 500, 4400, 1260, 5000,
    # with the series grown by ensure in between
    s = PartitionSeries()
    steps = [(1000, 100), 2000, (3000, 200), (600, 50), 6000, (5000, 300),
             (1500, 120), 7000, (5500, 250)]
    for step in steps:
        if isinstance(step, int):
            s.ensure(step)
            continue
        n, m = step
        assert p_parts_alg2(n, m, s) == p_parts_alg1(n, m), (n, m)
    assert len(s._sums) == 5001
    assert _running_sums_are_a_prefix(s)


@pytest.mark.parametrize("m", [1, 2, 3, 7, 30])
@pytest.mark.parametrize("per_m,plus,depth", [(0, 1, 1), (0, 2, 1), (1, 2, 1), (1, 3, 2)])
def test_alg2_boundary_widths(m, per_m, plus, depth):
    # n - 2m of 1 and 2 runs order 1 alone; at m + 2 order 2's width is 0;
    # at m + 3 it is 1, with no slot below the next order's width
    width = per_m * m + plus
    n = 2 * m + width
    assert expansion_depth(n, m) == depth
    shared = PartitionSeries()
    assert p_parts_alg2(n, m) == p_parts_alg2(n, m, shared) == p_parts_alg1(n, m)
    assert len(shared._sums) == width + 1
    assert _running_sums_are_a_prefix(shared)


def test_alg2_threads_share_one_fresh_series(monkeypatch):
    # four threads, more than the cores, count on one fresh series at once,
    # each growing its running sums to other widths; every extension sleeps
    # between reading the sums' length and appending, so two threads that
    # extend from the same length at once would leave a wrong list
    def sleepy_accumulate(*args, **kwargs):
        time.sleep(0.002)
        return accumulate(*args, **kwargs)

    monkeypatch.setattr(series, "accumulate", sleepy_accumulate)
    points = [[(3000 + 37 * t + 101 * k, 150 + 20 * k + 3 * t) for k in range(6)]
              for t in range(4)]
    expected = [[p_parts_alg1(n, m) for n, m in row] for row in points]
    shared = PartitionSeries()
    results = [None] * 4
    start = threading.Barrier(4)

    def count(t):
        start.wait(timeout=30)
        results[t] = [p_parts_alg2(n, m, shared) for n, m in points[t]]

    threads = [threading.Thread(target=count, args=(t,)) for t in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == expected
    assert len(shared._sums) == max(n - 2 * m for row in points for n, m in row) + 1
    assert _running_sums_are_a_prefix(shared)
