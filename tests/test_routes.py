"""Route observability: every route is reached through a module or
class attribute looked up at call time, so a wrapper patched onto that
attribute sees each call.  Tracing tools rely on this to attribute time
to alg1, alg2, the closed forms, convolutions and series growth."""

from collections import Counter

import pytest

from partita import core, lists, series

# unpatched reference, bound before any test patches the module
_alg1 = core.p_parts_alg1

PATCHED = (
    (core, "p_parts_alg1"),
    (core, "p_parts_alg2"),
    (core, "p_parts_closed"),
    (lists, "causal_convolution"),
    (series.PartitionSeries, "ensure"),
    (series.DistinctSeries, "ensure"),
)


@pytest.fixture
def calls(monkeypatch):
    seen = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            seen[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for owner, attr in PATCHED:
        name = f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"
        monkeypatch.setattr(owner, attr, counting(name, getattr(owner, attr)))
    return seen


@pytest.mark.parametrize(
    "n,m,method,route",
    [
        (400, 3, "auto", "core.p_parts_closed"),
        (400, 20, "auto", "core.p_parts_alg1"),
        (400, 100, "auto", "core.p_parts_alg2"),
        (400, 100, "alg1", "core.p_parts_alg1"),
        (400, 20, "alg2", "core.p_parts_alg2"),
        (400, 3, "closed", "core.p_parts_closed"),
    ],
)
def test_p_parts_calls_its_route(calls, n, m, method, route):
    cache = series.PartitionSeries()
    assert core.p_parts(n, m, cache, method=method) == _alg1(n, m)
    routes = {k: v for k, v in calls.items() if k.startswith("core.")}
    assert routes == {route: 1}
    # alg2 extends the series it reads; alg1 and the closed forms need none
    assert calls["PartitionSeries.ensure"] == (route == "core.p_parts_alg2")


_ROUTE_FUNCTIONS = {
    core.ALG1: "core.p_parts_alg1",
    core.ALG2: "core.p_parts_alg2",
    core.CLOSED_FORM: "core.p_parts_closed",
}


def test_route_label_is_the_route_taken(calls):
    # p_parts runs exactly what _route names, trivial cases included
    cache = series.PartitionSeries()
    for n in range(41):
        for m in range(n + 3):
            for method in core._METHODS:
                try:
                    label = core._route(n, m, core.DEFAULT_CROSSOVER, method)
                except ValueError:
                    with pytest.raises(ValueError):
                        core.p_parts(n, m, cache, method=method)
                    continue
                calls.clear()
                core.p_parts(n, m, cache, method=method)
                routes = {k: v for k, v in calls.items() if k.startswith("core.")}
                want = {_ROUTE_FUNCTIONS[label]: 1} if label in _ROUTE_FUNCTIONS else {}
                assert routes == want, (n, m, method, label)


def test_fast_path_reads_the_series(calls):
    cache = series.PartitionSeries()
    assert core.p_parts(400, 250, cache) == _alg1(400, 250)
    assert calls == Counter({"PartitionSeries.ensure": 1})


def test_q_parts_dispatches_through_p_parts(calls):
    assert core.q_parts(400, 20) == _alg1(400 - 190, 20)
    assert calls == Counter({"core.p_parts_alg1": 1})


def test_p_row_reads_the_series(calls):
    row = lists.p_row(200, series.PartitionSeries())
    assert row[49] == _alg1(200, 50)
    assert calls["lists.causal_convolution"] == 0
    assert calls == Counter({"PartitionSeries.ensure": 1})


def test_series_column_reads_the_series_and_direct_calls_nothing(calls):
    conv = lists.p_column(300, 120, series.PartitionSeries(), strategy="conv")
    assert calls["lists.causal_convolution"] == 0
    assert calls == Counter({"PartitionSeries.ensure": 1})
    calls.clear()
    assert lists.p_column(300, 120, strategy="direct") == conv
    assert calls == Counter()


@pytest.mark.parametrize("m,series_route", [(30, False), (60, True)])
def test_auto_column_takes_the_threshold_route(calls, m, series_route):
    # the rule m*m < n puts the threshold at sqrt(2000), about 44.7,
    # between these m; only the series route reads the series
    n = 2000
    col = lists.p_column(n, m, series.PartitionSeries())
    assert calls["PartitionSeries.ensure"] == series_route
    assert calls["lists.causal_convolution"] == 0
    assert col[-1] == _alg1(n, m)


@pytest.mark.parametrize("k", [2, 3, 10, 44, 45])
def test_auto_column_boundary_is_m_squared_below_n(calls, k):
    # at n = k*k, m = k is the first m with m*m >= n: auto reads the
    # series there, and takes direct one m lower or one n higher
    assert lists.p_column(k * k, k, series.PartitionSeries())[-1] == _alg1(k * k, k)
    assert calls == Counter({"PartitionSeries.ensure": 1})
    calls.clear()
    lists.p_column(k * k, k - 1, series.PartitionSeries())
    lists.p_column(k * k + 1, k, series.PartitionSeries())
    assert calls == Counter()


def test_no_route_convolves(calls):
    cache = series.PartitionSeries()
    for method in ("auto", "alg1", "alg2", "closed"):
        for m in (3, 6, 20, 100, 250):
            if method == "closed" and m > 6:
                continue
            assert core.p_parts(400, m, cache, method=method) == _alg1(400, m)
            core.q_parts(600, m, cache, method=method)
    assert lists.p_row(300, cache)[99] == _alg1(300, 100)
    for m in (10, 120):
        for strategy in ("auto", "direct", "conv"):
            lists.p_column(300, m, cache, strategy)
            lists.q_column(900, m // 4, cache, strategy)
    assert calls["core.p_parts_alg2"] > 0
    assert calls["lists.causal_convolution"] == 0


def test_distinct_series_ensure_is_seen(calls):
    q = series.DistinctSeries(algorithm="ewell")
    q.ensure(40)
    assert calls == Counter({"DistinctSeries.ensure": 1, "PartitionSeries.ensure": 1})
    assert q.values[40] == 1113
