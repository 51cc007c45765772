"""Acceptance gate: nine top-level criteria, one test per criterion.

Each test prints exactly one summary line on success; on failure the
assert that broke is the story.  These deliberately re-check ground the
unit tests already cover, because this file is the sign-off checklist:
enumeration equivalence, closed forms at scale, recurrence pairs,
identity suites, list/scalar agreement, scaling, crossover shape,
known-value spot checks, and cache round-trips.
"""

import time
from fractions import Fraction

import partita as pa
from partita.cli import main


def _ok(num, text):
    print(f"criterion {num}: PASS ({text})")


def test_criterion_1_oracle_equivalence_exhaustive():
    started = time.perf_counter()
    cache = pa.PartitionSeries()
    for n in range(61):
        counts = pa.partition_length_counts(n)
        for m in range(n + 1):
            want = counts[m]
            assert pa.p_parts(n, m, cache) == want, (n, m)
            if m >= 1:
                assert pa.p_parts_alg1(n, m) == want, (n, m)
                assert pa.p_parts_alg2(n, m, cache) == want, (n, m)
                if m <= 6:
                    assert pa.p_parts_closed(n, m) == want, (n, m)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _ok(1, f"all routes equal enumeration for 0 <= m <= n <= 60 in {elapsed:.1f}s")


def test_criterion_2_closed_forms_match_alg1_to_ten_thousand():
    started = time.perf_counter()
    top = 10**4
    for m in range(1, 7):
        # the direct column strategy runs algorithm 1's exact update
        # loop once and exposes its array: slot j holds the stage-m
        # value for n = m + j, covering every n in one sweep
        column = pa.p_column(top, m, strategy="direct")
        for j, got in enumerate(column):
            assert got == pa.p_parts_closed(m + j, m), (m + j, m)
        # plus standalone algorithm-1 calls on a sample, and the endpoint
        for n in range(m, top + 1, 617):
            assert pa.p_parts_alg1(n, m) == pa.p_parts_closed(n, m), (n, m)
        assert pa.p_parts_alg1(top, m) == column[-1]
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    _ok(2, f"closed forms equal algorithm 1 for m <= 6, n <= 10^4 in {elapsed:.1f}s")


def test_criterion_3_recurrence_pairs_agree_to_5000():
    started = time.perf_counter()
    euler = pa.PartitionSeries(algorithm="euler")
    ewell = pa.PartitionSeries(algorithm="ewell")
    euler.ensure(5000)
    ewell.ensure(5000)
    assert euler.values == ewell.values
    merca = pa.DistinctSeries(algorithm="merca")
    qewell = pa.DistinctSeries(algorithm="ewell", p_series=ewell)
    merca.ensure(5000)
    qewell.ensure(5000)
    assert merca.values == qewell.values
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    _ok(3, f"both P and both Q recurrences identical to n = 5000 in {elapsed:.1f}s")


def test_criterion_4_identity_suites():
    cache = pa.PartitionSeries()
    cache.ensure(400)
    for n in range(1, 201):
        for m in range(1, n + 1):
            assert pa.p_parts(n, m, cache) == pa.p_parts(n - m, m, cache) + pa.p_parts(
                n - 1, m - 1, cache
            ), (n, m)
    for n in range(101):
        running = 0
        for m in range(n + 1):
            running += pa.p_parts(n, m, cache)
            assert running == pa.p_parts(n + m, m, cache), (n, m)
    for n in range(201):
        assert pa.p_parts(2 * n, n, cache) == cache.values[n], n
    for n in range(1, 201):
        for m in range((n + 1) // 2, n + 1):
            assert pa.p_parts(n, m, cache) == cache.values[n - m], (n, m)
    _ok(4, "recurrence, prefix-sum, doubled-index and fast-path identities hold")


def test_criterion_5_lists_match_scalars():
    cache = pa.PartitionSeries()
    cache.ensure(300)
    qcache = pa.DistinctSeries()
    qcache.ensure(300)
    for n in range(1, 301):
        row = pa.p_row(n, cache)
        assert len(row) == n
        for m in range(1, n + 1):
            assert row[m - 1] == pa.p_parts(n, m, cache), (n, m)
        assert sum(row) == cache.values[n], n
        qrow = pa.q_row(n)
        for m in range(1, len(qrow) + 1):
            assert qrow[m - 1] == pa.q_parts(n, m, cache), (n, m)
        assert sum(qrow) == qcache.values[n], n
    # columns: every m at the boundary n = 300, then a dense small sweep
    for m in range(301):
        col = pa.p_column(300, m, cache)
        assert len(col) == 301 - m
        for j, got in enumerate(col):
            assert got == pa.p_parts(m + j, m, cache), (m + j, m)
    for n in range(61):
        for m in range(n + 1):
            assert pa.p_column(n, m, cache) == [
                pa.p_parts(j, m, cache) for j in range(m, n + 1)
            ], (n, m)
    for m in range(26):
        col = pa.q_column(300, m, cache)
        base = m * (m + 1) // 2
        assert len(col) == max(0, 301 - base)
        for j, got in enumerate(col):
            assert got == pa.q_parts(base + j, m, cache), (base + j, m)
    _ok(5, "rows and columns element-wise equal scalar calls up to n = 300")


def test_criterion_6_scaling_ratios():
    sizes = (10**4, 4 * 10**4, 16 * 10**4)
    calls = [lambda n=n, m=pa.practical_crossover(n): pa.p_parts(n, m) for n in sizes]
    calls += [lambda n=n: pa.PartitionSeries().ensure(n) for n in sizes]
    # each point is the fastest of its 3 runs, and the runs go round
    # every point in turn: a slow spell on a shared machine must then
    # last through all three runs of one point to move it
    times = [float("inf")] * len(calls)
    for _ in range(3):
        for i, fn in enumerate(calls):
            t0 = time.perf_counter()
            fn()
            times[i] = min(times[i], time.perf_counter() - t0)
    scalar_times, series_times = times[:3], times[3:]
    ratios = []
    for seq in (scalar_times, series_times):
        for prev, cur in zip(seq, seq[1:]):
            ratios.append(cur / prev)
            assert 4.0 <= cur / prev <= 16.0, (seq, cur / prev)
    _ok(6, "4x input ratios " + ", ".join(f"{r:.1f}" for r in ratios) + " all in [4, 16]")


def test_criterion_7_crossover_shape_at_400(capsys):
    n = 400
    s1 = {m: pa.alg1_steps(n, m) for m in range(1, n + 1)}
    s2 = {m: pa.alg2_steps(n, m) for m in range(1, n + 1)}
    for m in range(1, 11):
        assert s1[m] < s2[m], m
    # above the crossover algorithm 1 models strictly worse everywhere
    # the models are meaningful; at m = n-1 and m = n both definitions
    # degenerate to 0 by construction, which is pinned exactly
    for m in range(60, n - 1):
        assert s1[m] > s2[m], m
    assert s1[n - 1] == s2[n - 1] == 0
    assert s1[n] == s2[n] == 0
    signs = []
    for m in range(10, 61):
        d = s1[m] - s2[m]
        if d != 0:
            signs.append(1 if d > 0 else -1)
    changes = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    assert changes == 1
    crossing = pa.analytic_crossover(n)
    assert abs(crossing - Fraction(1584, 100)) <= Fraction(1, 100)
    # same numbers through the CLI table
    code = main(["bench", "400", "--m-range", "50:50", "--steps-only",
                 "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "m,steps_alg1,steps_alg2,chosen"
    assert lines[1].split(",")[:2] == ["50", "15925"]
    _ok(7, f"step models cross once; analytic point {float(crossing):.4f}")


def test_criterion_8_spot_checks_library_and_cli(capsys):
    assert pa.count_partitions(10) == 42
    assert pa.count_partitions(6) == 11
    assert pa.count_partitions(10, distinct=True) == 10
    ps = pa.PartitionSeries()
    ps.ensure(10)
    assert ps.values[10] == 42
    assert ps.values[6] == 11
    qs = pa.DistinctSeries()
    qs.ensure(10)
    assert qs.values[10] == 10
    for n, m, want in ((7, 4, 3), (7, 5, 2), (7, 6, 1)):
        assert pa.count_partitions(n, m) == want
        assert pa.p_parts(n, m) == want
    assert pa.count_partitions(6, 3, distinct=True) == 1
    assert pa.q_parts(6, 3) == 1

    def cli(*argv):
        code = main(list(argv))
        out = capsys.readouterr().out
        assert code == 0
        return out

    assert cli("p", "7", "4") == "3\n"
    assert cli("p", "7", "5") == "2\n"
    assert cli("p", "7", "6") == "1\n"
    assert cli("q", "6", "3") == "1\n"
    p_values = cli("list", "p-series", "10").strip().split(",")
    assert p_values[10] == "42"
    assert p_values[6] == "11"
    q_values = cli("list", "q-series", "10").strip().split(",")
    assert q_values[10] == "10"
    _ok(8, "spot values hold through the library and the CLI")


def test_criterion_9_cache_round_trip_and_rejection(tmp_path, capsys):
    for kind in ("p", "q"):
        first = tmp_path / f"{kind}-first.cache"
        second = tmp_path / f"{kind}-second.cache"
        assert main(["cache", "save", str(first), "-n", "200", "--kind", kind]) == 0
        loaded = pa.load_series(first)
        pa.save_series(loaded, second)
        assert first.read_bytes() == second.read_bytes()
        capsys.readouterr()
    bad_payloads = (
        b"garbage\n",
        b"PCACHE v1 5\n1\n1\n2\n",
        b"PCACHE v1 2\n2\n1\n",
        b"PCACHE v1 2\n1\nx\n",
        b"\xff\xfe\n",
    )
    for payload in bad_payloads:
        bad = tmp_path / "bad.cache"
        bad.write_bytes(payload)
        assert main(["cache", "load", str(bad)]) == 3, payload
        capsys.readouterr()
    empty = tmp_path / "empty.cache"
    empty.write_bytes(b"PCACHE v1 0\n")
    assert main(["cache", "info", str(empty)]) == 0
    out = capsys.readouterr().out
    assert "length: 0" in out
    _ok(9, "save/load/save is byte-identical; corrupt caches exit 3")
