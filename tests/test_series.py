"""Series caches: recurrence agreement, known prefixes, on-demand
growth, and the cache file format with its failure modes."""

import hashlib
import os
import re
import sys
import threading

import pytest
from hypothesis import given, strategies as st

from partita import (
    CacheFormatError,
    DistinctSeries,
    PartitionSeries,
    is_generalized_pentagonal,
    load_series,
    p_column,
    p_parts,
    p_parts_alg2,
    p_row,
    q_parts,
    save_series,
    serialize_series,
    series_checksum,
    shared_p_series,
    shared_q_series,
)
from partita import core, series as series_module
from partita.series import _read_cache

P_PREFIX = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135]
Q_PREFIX = [1, 1, 1, 2, 2, 3, 4, 5, 6, 8, 10, 12, 15, 18, 22]


def _naive_ewell_p(n):
    # same recurrence, written as a direct divisibility filter over all
    # triangular lags instead of the strided walk used in production
    values = [1]
    for i in range(1, n + 1):
        total = 0
        k = 0
        while True:
            t = k * (k + 1) // 2
            if t > i:
                break
            if (i - t) % 4 == 0:
                total += values[(i - t) // 4]
            k += 1
        k = 1
        while 2 * k * k <= i:
            term = 2 * values[i - 2 * k * k]
            total += term if k % 2 else -term
            k += 1
        values.append(total)
    return values


def test_p_series_known_prefix():
    s = PartitionSeries()
    s.ensure(14)
    assert s.values == P_PREFIX


def test_q_series_known_prefix():
    s = DistinctSeries()
    s.ensure(14)
    assert s.values == Q_PREFIX


def test_euler_and_ewell_agree():
    a = PartitionSeries(algorithm="euler")
    b = PartitionSeries(algorithm="ewell")
    a.ensure(2000)
    b.ensure(2000)
    assert a.values == b.values


def test_ewell_stride_walk_matches_naive_filter():
    s = PartitionSeries(algorithm="ewell")
    s.ensure(2000)
    assert s.values == _naive_ewell_p(2000)


def test_q_recurrences_agree():
    a = DistinctSeries(algorithm="merca")
    b = DistinctSeries(algorithm="ewell")
    a.ensure(2000)
    b.ensure(2000)
    assert a.values == b.values


def test_blocked_recurrences_agree_across_several_blocks():
    # 5000 entries span several full blocks of 1024 and their edges
    p = PartitionSeries(algorithm="ewell")
    p.ensure(5000)
    assert p.values == _naive_ewell_p(5000)
    merca = DistinctSeries(algorithm="merca")
    ewell = DistinctSeries(algorithm="ewell", p_series=p)
    merca.ensure(5000)
    ewell.ensure(5000)
    assert merca.values == ewell.values


@pytest.mark.parametrize(
    "cls, algorithm",
    [
        (PartitionSeries, "ewell"),
        (PartitionSeries, "euler"),
        (DistinctSeries, "merca"),
        (DistinctSeries, "ewell"),
    ],
)
def test_growth_in_uneven_steps_matches_one_shot(cls, algorithm):
    # each ensure stops at exactly n, wherever n falls against the blocks
    grown = cls(algorithm=algorithm)
    for n in (0, 1, 2, 3, 127, 128, 129, 1023, 1024, 1025, 2048, 3073, 5000):
        grown.ensure(n)
        assert len(grown.values) == n + 1
    one_shot = cls(algorithm=algorithm)
    one_shot.ensure(5000)
    assert grown.values == one_shot.values


def test_recurrences_match_rademacher_beyond_the_oracle():
    # sympy evaluates P(n) by the Hardy-Ramanujan-Rademacher series, a
    # route independent of every recurrence here
    sympy = pytest.importorskip("sympy")
    top = 20000
    p_series = {name: PartitionSeries(algorithm=name) for name in ("ewell", "euler")}
    for s in p_series.values():
        s.ensure(top)
    for n in (1000, 5000, top):
        want = int(sympy.partition(n))
        assert [s.values[n] for s in p_series.values()] == [want, want], n
    merca = DistinctSeries(algorithm="merca")
    ewell = DistinctSeries(algorithm="ewell", p_series=p_series["ewell"])
    merca.ensure(top)
    ewell.ensure(top)
    assert merca.values == ewell.values


def test_q_ewell_accepts_shared_p_series(p_series_long):
    s = DistinctSeries(algorithm="ewell", p_series=p_series_long)
    s.ensure(100)
    assert s.values[:15] == Q_PREFIX


def test_q_ewell_reads_the_shared_p_series_by_default():
    q = DistinctSeries(algorithm="ewell")
    merca = DistinctSeries(algorithm="merca")
    q.ensure(2000)
    merca.ensure(2000)
    assert q.values == merca.values
    assert q.p_series is None
    assert len(shared_p_series()) >= 2001


# Every reader of a P series, each given something else.  Read as P
# values, a Q series gives wrong counts: p_parts(100, 60) would return
# Q(40) = 1113, not P(40) = 37338.
@pytest.mark.parametrize(
    "read",
    [
        lambda q: p_parts(100, 60, cache=q),  # fast path
        lambda q: q_parts(230, 20, cache=q),  # fast path after the shift; Q = 627
        lambda q: p_parts_alg2(400, 100, q),
        lambda q: p_row(20, q),
        lambda q: p_column(400, 100, q, "conv"),
        lambda q: DistinctSeries("ewell", p_series=q).ensure(10),  # Q(10) = 10
        lambda q: p_parts(100, 60, cache=[1, 1, 2]),
    ],
    ids=["p_parts", "q_parts", "p_parts_alg2", "p_row", "p_column", "q_ewell", "list"],
)
def test_a_p_series_reader_refuses_anything_else(read):
    with pytest.raises(ValueError, match="PartitionSeries"):
        read(DistinctSeries())


def test_getitem_extends_on_demand():
    s = PartitionSeries()
    assert len(s) == 1
    assert repr(s) == "PartitionSeries(algorithm='ewell', len=1)"
    assert s[10] == 42
    assert len(s) == 11


def test_ensure_is_idempotent():
    s = PartitionSeries()
    s.ensure(50)
    snapshot = list(s.values)
    s.ensure(30)
    s.ensure(50)
    assert s.values == snapshot


def test_unknown_algorithm_rejected():
    with pytest.raises(ValueError):
        PartitionSeries(algorithm="fast")
    with pytest.raises(ValueError):
        DistinctSeries(algorithm="euler")


def test_index_validation():
    s = PartitionSeries()
    with pytest.raises(ValueError):
        s.ensure(-1)
    with pytest.raises(ValueError):
        s.ensure(2.5)
    with pytest.raises(ValueError):
        s.ensure(True)
    with pytest.raises(ValueError):
        s.ensure(2**62 + 1)


def test_shared_series_are_singletons():
    assert shared_p_series() is shared_p_series()
    assert shared_q_series() is shared_q_series()
    shared_p_series().ensure(64)
    assert shared_p_series().values[10] == 42


@pytest.mark.parametrize("cls", [PartitionSeries, DistinctSeries])
def test_concurrent_ensure_extends_once(cls):
    # four threads, more than the cores, extend one fresh series at once;
    # an unlocked extension appends the same tail more than once
    n = 3000
    expected = cls()
    expected.ensure(n)
    shared = cls()
    start = threading.Barrier(4)

    def grow():
        start.wait(timeout=30)
        shared.ensure(n)

    threads = [threading.Thread(target=grow) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert shared.values == expected.values


def test_generalized_pentagonal_predicate():
    hits = [n for n in range(30) if is_generalized_pentagonal(n)]
    assert hits == [0, 1, 2, 5, 7, 12, 15, 22, 26]


def test_serialize_golden():
    s = PartitionSeries(values=[1, 1, 2])
    assert serialize_series(s) == b"PCACHE v1 3\n1\n1\n2\n"
    q = DistinctSeries(values=[1])
    assert serialize_series(q) == b"QCACHE v1 1\n1\n"


def test_checksum_is_sha256_of_serialization():
    s = PartitionSeries(values=[1, 1, 2])
    digest = hashlib.sha256(b"PCACHE v1 3\n1\n1\n2\n").hexdigest()
    assert series_checksum(s) == digest


def test_round_trip_p(tmp_path):
    s = PartitionSeries()
    s.ensure(80)
    path = tmp_path / "p.cache"
    save_series(s, path)
    loaded = load_series(path)
    assert isinstance(loaded, PartitionSeries)
    assert loaded.values == s.values
    assert serialize_series(loaded) == serialize_series(s)


def test_round_trip_q(tmp_path):
    s = DistinctSeries()
    s.ensure(80)
    path = tmp_path / "q.cache"
    save_series(s, path)
    loaded = load_series(path)
    assert isinstance(loaded, DistinctSeries)
    assert loaded.values == s.values


def test_loaded_series_still_grows(tmp_path):
    s = PartitionSeries()
    s.ensure(10)
    path = tmp_path / "p.cache"
    save_series(s, path)
    loaded = load_series(path)
    loaded.ensure(14)
    assert loaded.values == P_PREFIX


@pytest.mark.parametrize("fd", ["pipe", True])
def test_cache_path_is_never_a_file_descriptor(fd):
    # open() takes an int as a descriptor and closes it afterwards
    r, w = os.pipe()
    try:
        with pytest.raises(TypeError):
            save_series(PartitionSeries(), w if fd == "pipe" else fd)
        with pytest.raises(TypeError):
            load_series(r if fd == "pipe" else fd)
        assert os.write(w, b"x") == 1
        assert os.read(r, 1) == b"x"
    finally:
        os.close(r)
        os.close(w)


def test_empty_cache_loads_and_seeds(tmp_path):
    path = tmp_path / "empty.cache"
    path.write_bytes(b"PCACHE v1 0\n")
    loaded = load_series(path)
    assert len(loaded) == 0
    loaded.ensure(4)
    assert loaded.values == [1, 1, 2, 3, 5]


DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.parametrize(
    "payload,line",
    [
        (b"", 1),
        (b"\xffPCACHE v1 0\n", 1),
        (b"PCACHE v1 3\n1\n1\n2\xe9\n", 4),
        (b"PCACHE v1 2\n1\xff\n1\n", 2),
        (b"PCACHE v1 2\r\n1\r\n\x80\r\n", 3),
        pytest.param(
            b"PCACHE v1 3\n1\n1\n" + b"1" * (DIGIT_LIMIT + 1) + b"\n",
            4,
            marks=pytest.mark.skipif(not DIGIT_LIMIT, reason="no int digit limit"),
            id="over-digit-limit",
        ),
        pytest.param(
            b"PCACHE v1 " + b"1" * (DIGIT_LIMIT + 1) + b"\n1\n",
            2,
            marks=pytest.mark.skipif(not DIGIT_LIMIT, reason="no int digit limit"),
            id="header-over-digit-limit",
        ),
        (b"JUNK\n1\n", 1),
        (b"PCACHE v2 1\n1\n", 1),
        (b"PCACHE v1 01\n1\n", 1),
        (b"QCACHE v1\n", 1),
        (b"PCACHE v1 3\n1\n2\n", 3),
        (b"PCACHE v1 1\n1\n2\n", 3),
        (b"PCACHE v1 2\n1\nx\n", 3),
        (b"PCACHE v1 2\n1\n-5\n", 3),
        (b"PCACHE v1 2\n1\n2 \n", 3),
        (b"PCACHE v1 1\n7\n", 2),
        (b"PCACHE v1 2\n1\n\n", 3),
    ],
)
def test_malformed_cache_rejected(tmp_path, payload, line):
    path = tmp_path / "bad.cache"
    path.write_bytes(payload)
    with pytest.raises(CacheFormatError) as exc:
        load_series(path)
    assert exc.value.line == line


def test_cache_format_error_is_value_error():
    assert issubclass(CacheFormatError, ValueError)
    err = CacheFormatError(4, "boom")
    assert err.line == 4
    assert "line 4" in str(err)


@given(
    st.lists(st.integers(min_value=0, max_value=10**40), max_size=25).map(
        lambda tail: [1] + tail
    )
)
def test_round_trip_any_prefix(tmp_path_factory, values):
    path = tmp_path_factory.mktemp("caches") / "any.cache"
    s = PartitionSeries(values=list(values))
    save_series(s, path)
    loaded = load_series(path)
    assert loaded.values == values
    assert serialize_series(loaded) == serialize_series(s)


def _valid_cache_with(line_text, at):
    # 5000 values of 1 (a valid cache) with value line ``at`` replaced
    lines = [b"PCACHE v1 5000"] + [b"1"] * 5000
    lines[at - 1] = line_text
    return b"\n".join(lines) + b"\n"


@pytest.mark.parametrize(
    "text",
    [
        b"+5",
        b"1_0",
        b" 5",
        b"5\t",
        b"",
        pytest.param(
            b"1" * (DIGIT_LIMIT + 1),
            marks=pytest.mark.skipif(not DIGIT_LIMIT, reason="no int digit limit"),
            id="over-digit-limit",
        ),
    ],
)
@pytest.mark.parametrize("line", [3, 3217, 5001])
def test_int_spellings_the_format_forbids(tmp_path, text, line):
    # int() accepts the first four spellings; the format does not
    path = tmp_path / "bad.cache"
    path.write_bytes(_valid_cache_with(text, line))
    with pytest.raises(CacheFormatError) as exc:
        load_series(path)
    if text.isdigit():
        message = f"{len(text)}-digit value exceeds the interpreter's limit"
        assert isinstance(exc.value.__cause__, ValueError)
    else:
        message = f"not a decimal value: {text.decode()!r}"
    assert (exc.value.line, str(exc.value)) == (line, f"line {line}: {message}")


def _per_line_load(raw):
    # the value-by-value loader that the bulk scan replaced, kept here as
    # the reference: (kind, values) or (line, message) of the error
    try:
        text = raw.decode("ascii")
    except UnicodeDecodeError as exc:
        line = len((raw[: exc.start].decode("ascii") + "x").splitlines())
        return line, "cache file is not ASCII text"
    lines = text.splitlines()
    if not lines:
        return 1, "empty file, expected a PCACHE/QCACHE header"
    match = re.match(r"(PCACHE|QCACHE) v1 (0|[1-9][0-9]*)\Z", lines[0])
    if match is None:
        return 1, f"bad header {lines[0]!r}"
    count = match.group(2)
    if count != str(len(lines) - 1):
        return len(lines), f"header promises {count} values, file has {len(lines) - 1}"
    values = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.isdigit():
            return lineno, f"not a decimal value: {line!r}"
        values.append(int(line))
    if values and values[0] != 1:
        return 2, "first value must be 1"
    return match.group(1), values


@given(
    st.lists(st.integers(min_value=0, max_value=10**6), max_size=8),
    st.sampled_from(["insert", "replace", "delete"]),
    st.integers(min_value=0),
    st.sampled_from(list(b"0123456789 +_-\n\r\x0b\x0c\t\xe9")),
)
def test_bulk_load_matches_per_line_loop(tmp_path_factory, tail, how, at, byte):
    raw = bytearray(serialize_series(PartitionSeries(values=[1] + tail)))
    at %= len(raw) + (how == "insert")
    if how == "insert":
        raw.insert(at, byte)
    elif how == "replace":
        raw[at] = byte
    else:
        del raw[at]
    path = tmp_path_factory.mktemp("caches") / "mutated.cache"
    path.write_bytes(raw)
    expected = _per_line_load(bytes(raw))
    try:
        loaded = load_series(path)
    except CacheFormatError as exc:
        line, message = expected
        assert (exc.line, str(exc)) == (line, f"line {line}: {message}")
    else:
        assert (loaded.KIND, loaded.values) == expected


@given(
    st.lists(st.integers(min_value=0, max_value=10**6), max_size=8),
    st.sampled_from(["insert", "replace", "delete"]),
    st.integers(min_value=0),
    st.sampled_from(list(b"0123456789 +_-\n\r\x0b\x0c\t\xe9")),
    st.integers(min_value=0, max_value=10),
)
def test_prefix_read_matches_load_series(tmp_path_factory, tail, how, at, byte, top):
    # the mutations of test_bulk_load_matches_per_line_loop, read through
    # the prefix reader with a random top
    raw = bytearray(serialize_series(PartitionSeries(values=[1] + tail)))
    at %= len(raw) + (how == "insert")
    if how == "insert":
        raw.insert(at, byte)
    elif how == "replace":
        raw[at] = byte
    else:
        del raw[at]
    path = tmp_path_factory.mktemp("caches") / "mutated.cache"
    path.write_bytes(raw)
    try:
        whole = load_series(path)
    except CacheFormatError as exc:
        with pytest.raises(CacheFormatError) as prefix_exc:
            _read_cache(path, top)
        assert (prefix_exc.value.line, str(prefix_exc.value)) == (exc.line, str(exc))
    else:
        loaded, count = _read_cache(path, top)
        assert (loaded.KIND, loaded.values, count) == (
            whole.KIND, whole.values[: top + 1], len(whole.values)
        )


def test_canonical_file_skips_the_per_line_walk(tmp_path, monkeypatch):
    path = tmp_path / "p.cache"
    save_series(PartitionSeries(values=list(P_PREFIX)), path)
    crlf = tmp_path / "crlf.cache"
    crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    walked = []
    walk = series_module._walk_lines
    monkeypatch.setattr(series_module, "_walk_lines", lambda raw: walked.append(raw) or walk(raw))
    loaded, count = _read_cache(path, 3)
    assert (loaded.values, count, walked) == (P_PREFIX[:4], len(P_PREFIX), [])
    loaded, count = _read_cache(crlf, 3)
    assert (loaded.values, count, len(walked)) == (P_PREFIX[:4], len(P_PREFIX), 1)


def test_walked_twins_read_the_values_of_the_canonical_file(tmp_path):
    # a file walked into save_series' layout is converted as the canonical
    # file is: the same values, None holes included, at each plan's reads
    path = tmp_path / "p.cache"
    s = PartitionSeries()
    s.ensure(300)
    save_series(s, path)
    raw = path.read_bytes()
    twins = {
        "crlf": raw.replace(b"\n", b"\r\n"),
        "lone-cr": raw.replace(b"\n", b"\r"),
        "vt": raw.replace(b"\n", b"\x0b"),
        "no-final-newline": raw[:-1],
        "leading-zero": raw.replace(b"\n5\n", b"\n005\n", 1),
    }
    for name, twin in twins.items():
        (tmp_path / f"{name}.cache").write_bytes(twin)
    # alg2, fast path, closed form, and a fast path past the file's end
    points = ((300, 80), (300, 160), (300, 3), (1000, 600))
    plans = [core._plan(n, m, core.DEFAULT_CROSSOVER, "auto") for n, m in points]
    routes = [core.ALG2, core.FAST_PATH, core.CLOSED_FORM, core.FAST_PATH]
    assert [route for route, _, _ in plans] == routes
    assert plans[-1][1] > 300
    for _, top, head in plans:
        expected, count = _read_cache(path, top, head)
        assert len(expected.values) == min(top, 300) + 1
        assert (None in expected.values) == (0 < top <= 300)
        for name in twins:
            loaded, twin_count = _read_cache(tmp_path / f"{name}.cache", top, head)
            assert (loaded.values, twin_count) == (expected.values, count), (name, top)


@pytest.mark.skipif(not DIGIT_LIMIT, reason="no int digit limit")
def test_a_long_line_loads_without_the_walk_when_the_limit_is_off(tmp_path, monkeypatch):
    # limit 0 switches the digit-limit scan off, so a 5000-digit line in
    # a canonical file still takes the byte-scan path
    lines = [b"PCACHE v1 50"] + [b"1"] * 50
    lines[40] = b"7" * 5000
    path = tmp_path / "long.cache"
    path.write_bytes(b"\n".join(lines) + b"\n")
    walked = []
    walk = series_module._walk_lines
    monkeypatch.setattr(series_module, "_walk_lines", lambda raw: walked.append(raw) or walk(raw))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        values = load_series(path).values
        assert values[39] == int("7" * 5000)
        for top in (0, 38, 39, 40, 50):
            loaded, count = _read_cache(path, top)
            assert (loaded.values, count) == (values[: top + 1], 50)
    finally:
        sys.set_int_max_str_digits(limit)
    assert walked == []


@pytest.mark.skipif(not DIGIT_LIMIT, reason="no int digit limit")
@pytest.mark.parametrize("extra", [-DIGIT_LIMIT // 2 - 1, -DIGIT_LIMIT // 2, -1, 0])
@pytest.mark.parametrize("line", [3, 40, 51])
def test_long_lines_within_the_digit_limit_load(tmp_path, extra, line):
    # lines up to DIGIT_LIMIT digits, some long enough to be sent down the
    # per-line walk, far beyond the one value a prefix read converts
    digits = b"1" * (DIGIT_LIMIT + extra)
    lines = [b"PCACHE v1 50"] + [b"1"] * 50
    lines[line - 1] = digits
    path = tmp_path / "long.cache"
    path.write_bytes(b"\n".join(lines) + b"\n")
    loaded, count = _read_cache(path, 0)
    assert (loaded.values, count) == ([1], 50)
    assert load_series(path).values[line - 2] == int(digits)


@pytest.mark.skipif(not DIGIT_LIMIT, reason="no int digit limit")
def test_an_over_limit_line_is_refused_at_every_offset(tmp_path):
    # the digit-limit scan probes on a grid of about half the limit; slide
    # a line of DIGIT_LIMIT + 1 digits across a whole grid spacing
    path = tmp_path / "long.cache"
    long = b"1" * (DIGIT_LIMIT + 1)
    for pad in range(DIGIT_LIMIT // 2 + 2):
        path.write_bytes(b"PCACHE v1 3\n1\n1" + b"0" * pad + b"\n" + long + b"\n")
        with pytest.raises(CacheFormatError) as exc:
            _read_cache(path, 0)
        assert exc.value.line == 4
