"""One plan per scalar call: ``core._plan`` names the route and the
P-series values it reads, P(0..head - 1) and P(top), a count on a series
without running sums reads exactly those, and the CLI converts no others
from a ``--cache`` file.  Also pins the call chain: the CLI runs the
plan it made through ``core._count``, calling neither ``core.p_parts``
nor ``core.q_parts``, so ``_route`` runs once per command.  ``_plan``
parses the crossover constant, the default included."""

from collections import Counter

import pytest

from partita import cli, core, series


@pytest.fixture
def ensured(monkeypatch):
    # every index passed to PartitionSeries.ensure, in call order
    seen = []
    ensure = series.PartitionSeries.ensure

    def wrapper(self, n):
        seen.append(n)
        return ensure(self, n)

    monkeypatch.setattr(series.PartitionSeries, "ensure", wrapper)
    return seen


def test_plan_index_is_what_the_count_reads(ensured):
    cache = series.PartitionSeries()
    full = series.PartitionSeries()
    full.ensure(40)
    for n in range(41):
        for m in range(n + 3):
            for method in core._METHODS:
                try:
                    route, top, head = core._plan(n, m, core.DEFAULT_CROSSOVER, method)
                except ValueError:
                    continue
                ensured.clear()
                value = core.p_parts(n, m, cache, method=method)
                if ensured:
                    assert top == max(ensured), (n, m, method, route)
                else:
                    assert top == 0, (n, m, method, route)
                # a read of any None, P(head..top - 1), raises TypeError
                holes = full.values[:head] + [None] * (top - head) + [full.values[top]]
                held = series.PartitionSeries(values=holes)
                assert core.p_parts(n, m, held, method=method) == value, (n, m, method)
                if head:  # and P(head - 1) is read
                    holes[head - 1] = None
                    held = series.PartitionSeries(values=holes)
                    with pytest.raises(TypeError):
                        core.p_parts(n, m, held, method=method)


@pytest.mark.parametrize(
    "n,m,top,head",
    [(400, 20, 0, 0), (400, 3, 0, 0), (400, 250, 150, 0), (250, 60, 190, 130),
     (400, 100, 300, 200)],
    ids=["alg1", "closed-form", "fast-path", "alg2", "alg2-past-the-file"],
)
def test_cli_reads_the_cache_to_the_plans_index(
    capsys, monkeypatch, tmp_path, n, m, top, head
):
    path = tmp_path / "p.cache"
    s = series.PartitionSeries()
    s.ensure(200)
    series.save_series(s, path)
    tops = []
    read = series._read_cache

    def recording(path, top=None, head=None):
        tops.append((top, head))
        return read(path, top, head)

    monkeypatch.setattr(series, "_read_cache", recording)
    assert cli.main(["p", str(n), str(m), "--cache", str(path)]) == 0
    assert capsys.readouterr().out == f"{core.p_parts_alg1(n, m)}\n"
    assert tops == [(top, head)]


@pytest.fixture
def traced(monkeypatch):
    seen = Counter()
    for attr in ("p_parts", "q_parts", "_route"):
        fn = getattr(core, attr)

        def wrapper(*args, _attr=attr, _fn=fn, **kwargs):
            seen[_attr] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(core, attr, wrapper)
    return seen


@pytest.mark.parametrize(
    "argv",
    [
        ["q", "400", "20"],
        ["q", "400", "20", "--explain"],
        ["p", "400", "80"],
        ["p", "400", "80", "--explain"],
    ],
    ids=["q", "q-explain", "p", "p-explain"],
)
def test_cli_plans_once(capsys, traced, argv):
    # the CLI's own plan, counted by core._count, not by p_parts or q_parts
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert traced == Counter({"_route": 1})


def test_plan_parses_the_default_constant(monkeypatch):
    # the default constant goes through _as_fraction like any other
    calls = Counter()
    parse = core._as_fraction

    def counted(constant):
        calls[constant] += 1
        return parse(constant)

    monkeypatch.setattr(core, "_as_fraction", counted)
    assert core._plan(400, 250, core.DEFAULT_CROSSOVER, "auto")[0] == core.FAST_PATH
    assert calls == Counter({core.DEFAULT_CROSSOVER: 1})
