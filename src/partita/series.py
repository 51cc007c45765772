"""Grow-only cached lists of the partition numbers P(n) and Q(n).

P(n) counts all integer partitions of n, Q(n) those with pairwise
distinct parts.  Each list can be extended by either of two independent
recurrences (selected per cache at construction time), which the test
suite cross-validates against each other:

* P: "euler" uses the classic pentagonal-number lags; "ewell" (default)
  mixes triangular lags, taken only where the shifted index is divisible
  by four, with doubled square lags.  Ewell needs fewer terms per entry.
* Q: "ewell" reads doubled pentagonal lags off a P list; "merca"
  (default) is self-contained, combining tripled square lags with an
  indicator of the generalized pentagonal numbers.

Two kernels hold the lag sums: ``_pentagonal_sum`` walks euler P's lags
k(3k -+ 1)/2 and ewell Q's twice those entry by entry, and
``_extend_square`` builds ewell P (lags 2k^2) and merca Q (3k^2) in
blocks, each lag reaching below a block one list slice.  Each
cross-checked pair, euler against ewell for P and merca against ewell for
Q, sets one kernel against the other.

Extension always restarts at the first missing index, so a cache only
ever grows and existing entries are never rewritten.  All values are
exact Python integers.

A saved cache is read one way: a file not in save_series' layout is
first walked line by line into it, leading zeros dropped; then int()
runs only on the values the caller reads, and ``cache info`` hashes the
laid-out bytes.

Thread contract: a cache may be shared across threads.  Reading the
materialized prefix takes no lock, and an ``ensure`` that finds its
index present returns without one; extension runs under a per-cache
lock and appends only, so concurrent callers never see an entry
rewritten, and a prefix that another thread has already extended is
never extended twice.  The running sums of a P cache that algorithm 2
reads, one integer per value it has read, keep the same contract.
"""

import hashlib
import os
import re
import sys
import threading
from io import BytesIO
from itertools import accumulate, islice
from math import isqrt

__all__ = [
    "CacheFormatError",
    "DistinctSeries",
    "PartitionSeries",
    "is_generalized_pentagonal",
    "load_series",
    "save_series",
    "serialize_series",
    "series_checksum",
    "shared_p_series",
    "shared_q_series",
]

# Indices (n, m) are bounded; the counted values themselves are not.
INDEX_CEILING = 2**62


def _check_index(value, name="n"):
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {type(value).__name__}")
    if value < 0:
        raise ValueError(f"{name} must be nonnegative, got {value}")
    if value > INDEX_CEILING:
        raise ValueError(f"{name} exceeds the index ceiling 2**62")


def is_generalized_pentagonal(n: int) -> bool:
    """True when n = k(3k +- 1)/2 for some k >= 0 (0, 1, 2, 5, 7, 12, ...)."""
    _check_index(n)
    # generalized pentagonal <=> 24n + 1 is a square with root = +-1 mod 6
    x = 24 * n + 1
    r = isqrt(x)
    return r * r == x and r % 6 in (1, 5)


# Width of the square-lag kernel's blocks.  Cold builds of P and Q to 10^4
# and 4*10^4 tie for widths 256 to 2048 and run slower at times for 4096.
_BLOCK = 1024


def _alternating_sum(v, arg, step, grow):
    # v[arg] - v[arg - step] + v[arg - 2*step - grow] - ...: a lag walk
    # whose gaps grow by a constant, summed with alternating signs while
    # the index stays nonnegative; odd and even terms go to separate sums
    odd = even = 0
    while arg >= 0:
        odd += v[arg]
        arg -= step
        step += grow
        if arg < 0:
            break
        even += v[arg]
        arg -= step
        step += grow
    return odd - even


def _pentagonal_sum(v, i, s):
    # sum_{k>=1} (-1)^(k+1) [v[i - s*k(3k-1)/2] + v[i - s*k(3k+1)/2]];
    # the lags k(3k-1)/2 = 1, 5, 12, ... grow by 3k + 1 and the lags
    # k(3k+1)/2 = 2, 7, 15, ... by 3k + 2
    return _alternating_sum(v, i - s, 4 * s, 3 * s) + _alternating_sum(
        v, i - 2 * s, 5 * s, 3 * s
    )


def _extend_p_euler(values, n):
    # P(i) = sum_{k>=1} (-1)^(k+1) [P(i - k(3k-1)/2) + P(i - k(3k+1)/2)]
    for i in range(len(values), n + 1):
        values.append(_pentagonal_sum(values, i, 1))


def _extend_q_ewell(values, pv, n):
    # Q(i) = P(i) + sum_{k>=1} (-1)^k [P(i - k(3k-1)) + P(i - k(3k+1))]
    for i in range(len(values), n + 1):
        values.append(pv[i] - _pentagonal_sum(pv, i, 2))


def _lag_sums(v, start, stop, lags):
    # [sum of v[j - lag] over lags for j in range(start, stop)], reading 0
    # at a negative index; every other v[j - lag] must already exist.  One
    # slice per lag, summed per entry: `sum` over `zip` beats `map(add)`
    slices = []
    for lag in lags:
        if lag <= start:
            slices.append(v[start - lag : stop - lag])
        elif lag < stop:
            slices.append([0] * (lag - start) + v[: stop - lag])
    return list(map(sum, zip(*slices))) or [0] * (stop - start)


def _extend_square(values, n, c, base):
    # values[i] = base[i] + 2 sum_{k>=1} (-1)^(k+1) values[i - c*k^2] up to
    # n, with base(values, s, e) = base[s:e].  A block [s, e) is no wider
    # than s, so each lag of at least its width w reads finished entries
    # only and is one slice for the whole block; the lags below w go per
    # entry, as each entry is appended.
    s = len(values)
    while s <= n:
        w = min(_BLOCK, s, n + 1 - s)
        e = s + w
        lags = [c * k * k for k in range(1, isqrt((e - 1) // c) + 1)]
        # odd k at lags[0::2], even k at lags[1::2]
        far = [_lag_sums(values, s, e, [g for g in lags[r::2] if g >= w]) for r in (0, 1)]
        odd_near, even_near = ([-g for g in lags[r::2] if g < w] for r in (0, 1))
        for b, odd, even in zip(base(values, s, e), *far):
            # len(values) == i here, so values[-g] is values[i - g]
            for lag in odd_near:
                odd += values[lag]
            for lag in even_near:
                even += values[lag]
            values.append(b + 2 * (odd - even))
        s = e


def _ewell_triangular(values, s, e):
    # Ewell: P(i) = sum over k >= 0 with 4 | i - k(k+1)/2 of
    # P((i - k(k+1)/2)/4) - 2 sum_{k>=1} (-1)^k P(i - 2k^2).  The first sum,
    # for i in range(s, e), per residue r of i mod 4: in quarter indices
    # j = (i - r)/4 it is a lag sum at the lags (T - r)/4, T = r mod 4
    tri = [k * (k + 1) // 2 for k in range(isqrt(2 * e) + 1)]
    base = [0] * (e - s)
    for r in range(4):
        first = s + (r - s) % 4
        lags = [(t - r) // 4 for t in tri if t % 4 == r and t < e]
        base[first - s :: 4] = _lag_sums(values, first // 4, (e + 3 - r) // 4, lags)
    return base


def _pentagonal_indicator(values, s, e):
    # Merca: Q(i) = s(i) - 2 sum_{k>=1} (-1)^k Q(i - 3k^2), s(i) being 1 at
    # the generalized pentagonal numbers k(3k -+ 1)/2, else 0; here s(s..e-1)
    gp = {k * (3 * k + d) // 2 for k in range(isqrt(2 * e // 3) + 2) for d in (-1, 1)}
    return [1 if i in gp else 0 for i in range(s, e)]


class _Series:
    """Materialized prefix of a partition-number series with on-demand
    extension.

    ``values[i]`` is the i-th count and ``values[0] == 1``.  The
    recurrences only ever look backward, so extension is a single
    append-only sweep from the first missing index.  Subclasses name
    their recurrences in ``ALGORITHMS`` (the first is the default), their
    cache header in ``KIND``, and supply the sweep as ``_extend``.
    """

    __slots__ = ("values", "algorithm", "_lock")

    def __init__(self, algorithm=None, values=None):
        if algorithm is None:
            algorithm = self.ALGORITHMS[0]
        if algorithm not in self.ALGORITHMS:
            raise ValueError(f"unknown {self.KIND[0]}-series algorithm {algorithm!r}")
        self.algorithm = algorithm
        self.values = [1] if values is None else values
        self._lock = threading.Lock()

    def __len__(self):
        return len(self.values)

    def __getitem__(self, n):
        self.ensure(n)
        return self.values[n]

    def __repr__(self):
        return f"{type(self).__name__}(algorithm={self.algorithm!r}, len={len(self.values)})"

    def ensure(self, n):
        """Materialize values[0..n]; no-op when already present."""
        _check_index(n)
        if n < len(self.values):
            return
        with self._lock:
            # another thread may have extended it while this one waited
            if n < len(self.values):
                return
            if not self.values:
                self.values.append(1)
            self._extend(n)


class PartitionSeries(_Series):
    """Materialized prefix of P(0), P(1), ...; ``values[i]`` is the
    number of partitions of i."""

    ALGORITHMS = ("ewell", "euler")
    KIND = "PCACHE"

    __slots__ = ("_sums",)

    def __init__(self, algorithm=None, values=None):
        super().__init__(algorithm, values)
        self._sums = [0]

    def _extend(self, n):
        if self.algorithm == "euler":
            _extend_p_euler(self.values, n)
        else:
            _extend_square(self.values, n, 2, _ewell_triangular)


class DistinctSeries(_Series):
    """Materialized prefix of Q(0), Q(1), ...

    "ewell" reads ``p_series``: a PartitionSeries, or None for the shared
    one; anything else raises ValueError.  "merca" is self-contained.
    """

    ALGORITHMS = ("merca", "ewell")
    KIND = "QCACHE"

    __slots__ = ("p_series",)

    def __init__(self, algorithm=None, values=None, p_series=None):
        super().__init__(algorithm, values)
        self.p_series = p_series

    def _extend(self, n):
        if self.algorithm == "ewell":
            _extend_q_ewell(self.values, _p_values(self.p_series, n), n)
        else:
            _extend_square(self.values, n, 3, _pentagonal_indicator)


class CacheFormatError(ValueError):
    """A cache file was rejected; ``line`` is the offending 1-based line."""

    def __init__(self, line, message):
        super().__init__(f"line {line}: {message}")
        self.line = line


_HEADER_RE = re.compile(r"(PCACHE|QCACHE) v1 (0|[1-9][0-9]*)\Z")


def serialize_series(series) -> bytes:
    """Canonical text form: header line, then one decimal value per line.

    The header is ``PCACHE v1 <count>`` or ``QCACHE v1 <count>``; values
    follow from index 0, each line terminated by a single newline.  The
    encoding is byte-deterministic, so save/load/save round-trips are
    byte-identical.
    """
    parts = [f"{series.KIND} v1 {len(series.values)}"]
    parts.extend(map(str, series.values))
    parts.append("")
    return "\n".join(parts).encode("ascii")


def save_series(series, path):
    # fspath refuses an int, which open() would take as a descriptor
    with open(os.fspath(path), "wb") as f:
        f.write(serialize_series(series))


def _is_canonical(raw, start, count):
    """True when raw[start:], the value lines, is in save_series' layout:
    ``count`` nonempty lines of ASCII digits, each newline-terminated and
    within the digit limit, leading zeros allowed.  Byte scans of raw in
    place: a copy of a large file costs more than a scan of it."""
    # deleting the digits must leave the header's own bytes, then exactly
    # `count` newlines: the line count and the stray-byte scan in one pass
    kept = raw.translate(None, b"0123456789")
    lines = len(kept) - len(raw[:start].translate(None, b"0123456789"))
    if str(lines) != count or not kept.endswith(b"\n" * lines):
        return False
    # from start - 1 this also finds an empty first line; a backward
    # search for b"\n\n" runs about twice as fast as a forward one
    if not raw.endswith(b"\n") or raw.rfind(b"\n\n", start - 1) >= 0:
        return False
    # the int-string digit limit, read per call since it can be reset; 0
    # (or an interpreter that predates it) means none
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        return True
    # a line of limit + 1 digits covers a whole block of `step` bytes on
    # any grid of that spacing, so some probe finds no newline; a shorter
    # line may too, and then merely takes the per-line walk
    step = (limit + 2) // 2
    return all(raw.find(b"\n", i, i + step) >= 0 for i in range(start, len(raw), step))


def _walk_lines(raw):
    # decode, split and check a file line by line, naming the first bad
    # line; returns the header match and the file laid out as save_series
    # writes it, leading zeros dropped
    try:
        text = raw.decode("ascii")
    except UnicodeDecodeError as exc:
        # the line splitlines() below would put the bad byte on
        line = len((raw[: exc.start].decode("ascii") + "x").splitlines())
        raise CacheFormatError(line, "cache file is not ASCII text") from exc
    lines = text.splitlines()
    if not lines:
        raise CacheFormatError(1, "empty file, expected a PCACHE/QCACHE header")
    match = _HEADER_RE.match(lines[0])
    if match is None:
        raise CacheFormatError(1, f"bad header {lines[0]!r}")
    # compared as text: a count over the int-string digit limit cannot
    # be converted, and leading zeros are already rejected
    count = match.group(2)
    if count != str(len(lines) - 1):
        raise CacheFormatError(
            len(lines), f"header promises {count} values, file has {len(lines) - 1}"
        )
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.isdigit():  # unlike int(), takes ASCII digits only
            raise CacheFormatError(lineno, f"not a decimal value: {line!r}")
        # int() refuses a digit line exactly when it is longer than the
        # limit, leading zeros included; its error is kept as the cause
        if 0 < limit < len(line):
            try:
                int(line)
            except ValueError as exc:
                message = f"{len(line)}-digit value exceeds the interpreter's limit"
                raise CacheFormatError(lineno, message) from exc
        lines[lineno - 1] = line.lstrip("0") or "0"
    lines.append("")
    return match, "\n".join(lines).encode("ascii")


def _parse_cache(raw, top, head):
    # (series holding values as _read_cache returns them, value count, the
    # file's bytes in save_series' layout), checked in full
    start = raw.find(b"\n") + 1
    # latin-1 decodes any byte; the pattern matches ASCII only
    match = start and _HEADER_RE.match(raw[: start - 1].decode("latin-1"))
    if not (match and _is_canonical(raw, start, match.group(2))):
        match, raw = _walk_lines(raw)
    kind, count = match.group(1), int(match.group(2))
    if top is None or top >= count:  # ensure grows from every value
        top, head = count - 1, count
    head = top + 1 if head is None else max(head, 1)  # P(0) is checked below
    # BytesIO shares raw's buffer: the lines are never copied as a whole
    lines = islice(BytesIO(raw), 1, None)
    values = list(map(int, islice(lines, head)))
    if head <= top:
        values += [None] * (top - head)
        values.append(int(next(islice(lines, top - head, None))))
    # every line has passed by now, so this error comes last
    if values and values[0] != 1:
        raise CacheFormatError(2, "first value must be 1")
    cls = PartitionSeries if kind == PartitionSeries.KIND else DistinctSeries
    return cls(values=values), count, raw


def _read_cache(path, top=None, head=None):
    """(series holding values 0..top, or all of them for None; the file's
    value count).  The whole file is checked, and the same CacheFormatError
    names the same first bad line.  A file not in save_series' layout is
    first walked into it; then int() runs only on the values returned:
    with ``head``, only on 0..head - 1 and top, None between, for a count
    whose plan (core._plan) reads no more, unless the file ends before
    top."""
    # fspath refuses an int, which open() would take as a descriptor
    with open(os.fspath(path), "rb") as f:
        return _parse_cache(f.read(), top, head)[:2]


def _cache_checksum(path):
    """(series, value count, series_checksum of every value) of a cache
    file checked in full: the SHA-256 of its bytes in save_series' layout,
    which is save_series' form once leading zeros are dropped."""
    with open(os.fspath(path), "rb") as f:
        raw = f.read()
    if re.search(rb"\n0[0-9]", raw):  # a leading zero, which the layout allows
        raw = _walk_lines(raw)[1]
    s, count, raw = _parse_cache(raw, 0, 0)
    return s, count, hashlib.sha256(raw).hexdigest()


def load_series(path):
    """Read a cache file back: a file not in save_series' layout is
    first walked line by line into it, then one int() per value.

    Returns a PartitionSeries or DistinctSeries as the header says, or
    raises CacheFormatError naming the first bad line: non-ASCII bytes, a
    bad header or count, a value line of anything but ASCII digits (a sign,
    underscore or space), a value past the interpreter's int-string digit
    limit, or a first value other than 1.  A missing final newline, CRLF
    or other ``str.splitlines`` endings and leading zeros are accepted.
    """
    return _read_cache(path)[0]


def series_checksum(series) -> str:
    """SHA-256 hex digest of the canonical serialized form."""
    return hashlib.sha256(serialize_series(series)).hexdigest()


_shared_p = PartitionSeries()
_shared_q = DistinctSeries()


def shared_p_series() -> PartitionSeries:
    """Process-wide default P series, safe to share across threads."""
    return _shared_p


def shared_q_series() -> DistinctSeries:
    """Process-wide default Q series, safe to share across threads."""
    return _shared_q


def _running_sums(series, k):
    """series' running sums through index k, P(0) + ... + P(j - 1) at j,
    grown on demand like ``values``: under the series' lock, append-only."""
    sums = series._sums
    if k >= len(sums):
        with series._lock:  # from where another thread may have left them
            values = series.values[len(sums) - 1 : k]
            sums += islice(accumulate(values, initial=sums[-1]), 1, None)
    return sums


def _p_values(cache, top, sums=None):
    """cache.values through index top, None meaning the shared P series:
    the one place a count picks, checks and extends the P series it reads.
    With ``sums`` = k, the pair (values, _running_sums through index k)."""
    cache = _shared_p if cache is None else cache
    if not isinstance(cache, PartitionSeries):
        raise ValueError(f"expected a PartitionSeries, got {type(cache).__name__}")
    cache.ensure(top)
    return cache.values if sums is None else (cache.values, _running_sums(cache, sums))
