"""The benchmark's workloads.

A workload turns the seed into a fixed list of calls, one round.  It
sets partita up in the round's starting state, runs one call at a time
(closed loop, one caller, no threads), and afterwards checks one
round's outputs by a route that shares no code with the timed one.
Calls are plain lists of strings and integers made from the seed alone,
so the same seed gives the same calls whatever version of partita runs
them.

Why each workload exists, and which layers it stresses:

* ``scalar-mix``: scalar ``p_parts``/``q_parts`` across the five
  dispatch bands.  ``core`` does nearly all the work and ``lists`` none,
  so route and stage-update changes show here and convolution changes
  must not.
* ``tables``: rows and columns.  ``lists.causal_convolution`` and the
  column route choice dominate; ``scalar-mix`` bypasses both.
* ``cache-cycle``: series build, save, load and grow beside many CLI
  reads of a saved cache, malformed caches and a few CLI processes.
  The other workloads hide this path in their set-up.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from collections import namedtuple
from math import isqrt
from random import Random

from reference import cache_bytes, cache_digest, p_nm, parts_at_most

CliResult = namedtuple("CliResult", "code stdout stderr")
Raised = namedtuple("Raised", "text")

# Failure reasons that start with this prefix are operations that missed
# their documented outcome (exit code or reported line) without returning
# a wrong count; they count as failed calls but leave ``correct`` true.
OUTCOME = "outcome: "


def run_cli(pkg, argv):
    """cli.main in this process, with its printed output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = pkg.cli.main(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


def compare(got, expected):
    """None when got == expected, else a one-line failure reason."""
    if isinstance(got, Raised):
        return f"raised {got.text}"
    if got == expected:
        return None
    return f"wrong value: got {str(got)[:60]}, expected {str(expected)[:60]}"


def compare_cli(res, expected_stdout):
    if isinstance(res, Raised):
        return f"raised {res.text}"
    if res.code != 0:
        return f"{OUTCOME}exit {res.code}: {res.stderr.strip()[:80]}"
    return compare(res.stdout, expected_stdout)


def jitter(rng, value):
    """value moved up by at most 2%: inputs differ between seeds while each
    call's cost stays within a few percent, which keeps runs comparable."""
    return value + rng.randrange(value // 50 + 1)


class Workload:
    """One workload: ``calls`` is the round, the rest runs and checks it."""

    name = ""

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.calls = self.make_calls(Random(f"{self.name}:{seed}"))

    def make_calls(self, rng):
        raise NotImplementedError

    def setup(self, pkg):
        """Bring a freshly imported partita to the round's starting state."""

    def run(self, pkg, call):
        raise NotImplementedError

    def settle(self, call, out):
        """Turn a call's output into a value that compares across rounds;
        runs after the round, outside the timed region."""
        return out

    def check(self, pkg, refs, outputs):
        """One failure reason or None per call of a round's outputs."""
        raise NotImplementedError


def _floor_sqrt(tenths, n):
    # floor(c * sqrt(n)) exactly, for c = tenths / 10
    return isqrt(tenths * tenths * n) // 10


class ScalarMix(Workload):
    """Scalar counts in five bands of m, stratified over log n in [10^3, 10^4].

    Bands: the fast path m >= n/2, closed forms m <= 6, alg1 below
    1.2 sqrt(n), the band 1.2 sqrt(n)..2.7 sqrt(n) where the dispatcher
    picks alg1 although alg2 measured faster, and alg2 up to 6 sqrt(n).
    Each band gets one call per stratum of log n, paired with a stratum
    of m over the band by a fixed permutation; the seed picks the point
    inside each stratum, so the round's cost varies little between seeds.
    One call in five asks for Q through the staircase shift, landing on
    the same (n, m) for P.  Set-up warms the shared series to 10^4.
    """

    name = "scalar-mix"
    STRATA = 25  # an odd call count puts the median inside one call's samples
    TOP = 10**4
    BANDS = ("fast", "closed", "alg1", "misroute", "alg2")

    @staticmethod
    def band_m(band, n, u):
        lo, hi = {
            "fast": ((n + 1) // 2, n - 1),
            "closed": (1, 6),
            "alg1": (7, _floor_sqrt(12, n)),
            "misroute": (_floor_sqrt(12, n) + 1, _floor_sqrt(27, n)),
            "alg2": (_floor_sqrt(27, n) + 1, _floor_sqrt(60, n)),
        }[band]
        return min(hi, lo + int(u * (hi - lo + 1)))

    def make_calls(self, rng):
        calls = []
        for band in self.BANDS:
            for j in range(self.STRATA):
                slot = 7 * j % self.STRATA  # 7 is prime to STRATA: a permutation
                n = round(10 ** (3 + (j + rng.random()) / self.STRATA))
                m = self.band_m(band, n, (slot + rng.random()) / self.STRATA)
                calls.append(["p", n, m])
        for i in rng.sample(range(len(calls)), len(calls) // 5):
            _, n, m = calls[i]
            calls[i] = ["q", n + m * (m - 1) // 2, m]
        rng.shuffle(calls)
        return calls

    @staticmethod
    def p_point(kind, n, m):
        """The (n, m) of P that a call lands on after the staircase shift."""
        return (n - m * (m - 1) // 2 if kind == "q" else n), m

    def setup(self, pkg):
        pkg.series.shared_p_series().ensure(self.TOP)

    def run(self, pkg, call):
        kind, n, m = call
        if kind == "q":
            return pkg.core.q_parts(n, m)
        return pkg.core.p_parts(n, m)

    def check(self, pkg, refs, outputs):
        p = refs.p(self.TOP)
        reasons = []
        for call, value in zip(self.calls, outputs):
            n, m = self.p_point(*call)
            # the other forced algorithm than the one auto picks at the
            # paper's constant 2.7, or the reference series for P(n - m)
            if 2 * m >= n:
                expected = p[n - m]
            elif m <= 6 or 100 * m * m > 729 * n:
                expected = pkg.core.p_parts(n, m, method="alg1")
            else:
                expected = pkg.core.p_parts(n, m, method="alg2")
            reasons.append(compare(value, expected))
        return reasons


class Tables(Workload):
    """Rows, columns and one CLI row, each at a fixed point moved by up to
    2% with the seed.

    The p_column points sit on both sides of the column threshold
    0.21 n^0.78: direct picked and right, conv picked although direct is
    faster (the known misroutes, such as (800, 50)), and conv picked and
    right (such as (4000, 1000)).  The q_column points are given as the P
    column they shift to.  The median call and the call op_tail_ms reads
    each come three times, at (800, 50) and (4000, 1000), so that which
    copy lands on the percentile barely moves it.
    """

    name = "tables"
    P_ROWS = (1000,)
    CLI_ROWS = (1200,)
    Q_ROWS = (20000,)
    P_COLUMNS = (
        (1000, 20), (1200, 30), (1400, 25),
        (800, 50), (800, 50), (800, 50), (1000, 60), (2000, 300),
        (2000, 700), (2500, 1000), (3000, 900), (4000, 1000), (4000, 1000), (4000, 1000),
    )
    Q_COLUMNS = ((1000, 20), (2000, 700))

    def make_calls(self, rng):
        calls = [["p_row", jitter(rng, n)] for n in self.P_ROWS]
        calls += [["cli_p_row", jitter(rng, n)] for n in self.CLI_ROWS]
        calls += [["q_row", jitter(rng, n)] for n in self.Q_ROWS]
        calls += [["p_column", jitter(rng, n), jitter(rng, m)] for n, m in self.P_COLUMNS]
        for n, m in self.Q_COLUMNS:
            n, m = jitter(rng, n), jitter(rng, m)
            calls.append(["q_column", n + m * (m - 1) // 2, m])
        rng.shuffle(calls)
        return calls

    @property
    def row_path(self):
        return self.workdir / "row.json"

    def setup(self, pkg):
        # as far as any call reads it, whatever the seed
        top = max(*(n for n, _ in self.P_COLUMNS), *self.P_ROWS, *self.CLI_ROWS)
        pkg.series.shared_p_series().ensure(top + top // 50)

    def run(self, pkg, call):
        kind, *args = call
        if kind == "cli_p_row":
            argv = ["list", "p-row", str(args[0]), "--format", "json", "--out", str(self.row_path)]
            return run_cli(pkg, argv)
        return getattr(pkg.lists, kind)(*args)

    def settle(self, call, out):
        # the row goes to --out; keep it as the command's output
        if call[0] == "cli_p_row" and not isinstance(out, Raised):
            return out._replace(stdout=out.stdout + self.row_path.read_text())
        return out

    def check(self, pkg, refs, outputs):
        rng = Random(f"check:{self.name}:{self.seed}")
        p = refs.p(max(c[1] for c in self.calls if c[0] in ("p_row", "cli_p_row")))
        reasons = []
        for (kind, *args), out in zip(self.calls, outputs):
            if isinstance(out, Raised):
                reasons.append(f"raised {out.text}")
            elif kind == "p_row":
                reasons.append(self.check_row(args[0], out, p, rng))
            elif kind == "cli_p_row":
                if out.code != 0:
                    reasons.append(compare_cli(out, ""))
                else:
                    values = [int(v) for v in json.loads(out.stdout)["values"]]
                    reasons.append(self.check_row(args[0], values, p, rng))
            elif kind == "q_row":
                reasons.append(self.check_q_row(args[0], out, rng))
            elif kind == "p_column":
                n, m = args
                reasons.append(compare(out, parts_at_most(n - m, m)))
            else:
                n, m = args
                shifted = n - m * (m - 1) // 2
                reasons.append(compare(out, parts_at_most(shifted - m, m)))
        return reasons

    @staticmethod
    def check_row(n, row, p, rng):
        """Sampled entries against the reference table, and sum_m P(n, m) = P(n)."""
        if len(row) != n:
            return f"wrong value: row of {len(row)} entries for n = {n}"
        if sum(row) != p[n]:
            return f"wrong value: row {n} sums to {sum(row)}, not P({n})"
        for m in (1, 2, n - 1, n, *rng.sample(range(3, n - 1), 4)):
            reason = compare(row[m - 1], p_nm(n, m))
            if reason:
                return f"P({n}, {m}): {reason}"
        return None

    @staticmethod
    def check_q_row(n, row, rng):
        """Sampled entries Q(n, i) = P(n - i(i - 1)/2, i) against the reference."""
        top = (isqrt(8 * n + 1) - 1) // 2
        if len(row) != top:
            return f"wrong value: q_row of {len(row)} entries for n = {n}"
        for i in (1, 2, top, *rng.sample(range(3, top), 2)):
            reason = compare(row[i - 1], p_nm(n - i * (i - 1) // 2, i))
            if reason:
                return f"Q({n}, {i}): {reason}"
        return None


class CacheCycle(Workload):
    """Series caches written and read in one round.

    Write side, for the P (ewell), Q (merca) and a smaller P (euler)
    series: cold build, save, load, grow the loaded series, save again.
    Read side, shuffled: ``partita p N M --cache`` through cli.main on a
    P cache saved in set-up, with m on the fast path or in the alg2 band
    m >= n/3 so that loading dominates; ``cache info`` and ``cache load``
    on the set-up cache and on files the write side just wrote; one call
    on each kind of malformed cache, whose documented outcome is exit 3
    naming the offending line; and a few ``python -m partita``
    processes.
    """

    name = "cache-cycle"
    BASE = 8000
    CHAIN = {"P": ("PartitionSeries", "ewell", 6000, 2000),
             "Q": ("DistinctSeries", "merca", 6000, 2000),
             "E": ("PartitionSeries", "euler", 3000, 1000)}
    READS = 24
    PROCESSES = 2
    MALFORMED = ("header", "count", "digit", "first", "nonascii", "long")

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.live = {}

    def make_calls(self, rng):
        base = self.BASE
        calls = []
        for key, (_, _, size, growth) in self.CHAIN.items():
            size = jitter(rng, size)
            calls += [["build", key, size], ["save", key, 1], ["load", key],
                      ["grow", key, size + growth], ["save", key, 2]]
        reads = []
        for i in range(self.READS + self.PROCESSES):
            n = rng.randint(4000, 12000)
            lo, hi = ((n + 1) // 2, n - 1) if i % 2 else (-(-n // 3), (n + 1) // 2 - 1)
            reads.append(["p" if i < self.READS else "process", n, rng.randint(lo, hi)])
        reads += [["info", "base"], ["info", "P-2"], ["cli_load", "base"], ["cli_load", "Q-2"]]
        for kind in self.MALFORMED:
            line = {"header": 1, "first": 2, "count": base + 2}.get(kind) or rng.randint(3, base + 2)
            reads.append(["malformed", kind, line])
        rng.shuffle(reads)
        return calls + reads

    def path(self, name):
        return self.workdir / f"{name}.cache"

    def setup(self, pkg):
        base = self.BASE
        s = pkg.series.PartitionSeries()
        s.ensure(base)
        pkg.series.save_series(s, self.path("base"))
        lines = self.path("base").read_bytes().split(b"\n")
        for kind, line in (c[1:] for c in self.calls if c[0] == "malformed"):
            bad = list(lines)
            if kind == "header":
                bad[0] = b"PCACHE v2 " + bad[0].split()[-1]
            elif kind == "count":
                bad[0] = b"PCACHE v1 %d" % (base + 2)
            elif kind == "first":
                bad[1] = b"2"
            else:
                bad[line - 1] = {"digit": bad[line - 1] + b"x",
                                 "nonascii": bad[line - 1] + b"\xe9",
                                 "long": b"1" + b"0" * 5000}[kind]
            self.path(f"bad-{kind}").write_bytes(b"\n".join(bad))

    def run(self, pkg, call):
        kind, *args = call
        if kind == "build":
            cls, algorithm, _, _ = self.CHAIN[args[0]]
            s = self.live[args[0]] = getattr(pkg.series, cls)(algorithm=algorithm)
            s.ensure(args[1])
            return s
        if kind == "save":
            pkg.series.save_series(self.live[args[0]], self.path(f"{args[0]}-{args[1]}"))
            return None
        if kind == "load":
            s = self.live[args[0]] = pkg.series.load_series(self.path(f"{args[0]}-1"))
            return len(s.values)
        if kind == "grow":
            s = self.live[args[0]]
            s.ensure(args[1])
            return s
        if kind == "p":
            return run_cli(pkg, ["p", str(args[0]), str(args[1]), "--cache", str(self.path("base"))])
        if kind == "process":
            return self.process(pkg, ["p", str(args[0]), str(args[1]), "--cache", str(self.path("base"))])
        if kind == "info":
            return run_cli(pkg, ["cache", "info", str(self.path(args[0]))])
        if kind == "cli_load":
            return run_cli(pkg, ["cache", "load", str(self.path(args[0]))])
        return run_cli(pkg, ["p", "5000", "2600", "--cache", str(self.path(f"bad-{args[0]}"))])

    @staticmethod
    def process(pkg, argv):
        src = os.path.dirname(os.path.dirname(pkg.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "partita", *argv], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=path), timeout=60,
        )
        return CliResult(done.returncode, done.stdout, done.stderr)

    def settle(self, call, out):
        if isinstance(out, Raised):
            return out
        if call[0] == "save":
            return self.path(f"{call[1]}-{call[2]}").read_bytes()
        if call[0] in ("build", "grow"):
            return out.values
        return out

    def check(self, pkg, refs, outputs):
        base = self.BASE
        sizes = {c[1]: c[2] for c in self.calls if c[0] == "build"}
        grown = {c[1]: c[2] for c in self.calls if c[0] == "grow"}
        p = refs.p(max(base, *grown.values()))  # reads need P(j) for j <= n - m <= base
        q = refs.q(grown["Q"])
        lists = {"P": p, "E": p, "Q": q}
        kinds = {"P": "PCACHE", "E": "PCACHE", "Q": "QCACHE"}
        reasons = []
        for (kind, *args), out in zip(self.calls, outputs):
            if kind in ("build", "grow"):
                reason = compare(out, lists[args[0]][: args[1] + 1])
            elif kind == "save":
                top = (sizes if args[1] == 1 else grown)[args[0]]
                reason = compare(out, cache_bytes(kinds[args[0]], lists[args[0]][: top + 1]))
            elif kind == "load":
                reason = compare(out, sizes[args[0]] + 1)
            elif kind in ("p", "process"):
                n, m = args
                # m >= n/3: a partition of n - m with a part k > m leaves
                # n - m - k <= k, so P(n, m) = P(n - m) - sum_{j < n - 2m} P(j)
                expected = p[n - m] - sum(p[: max(0, n - 2 * m)])
                reason = compare_cli(out, f"{expected}\n")
            elif kind == "info":
                top = base if args[0] == "base" else grown["P"]
                digest = cache_digest("PCACHE", p[: top + 1])
                reason = compare_cli(out, f"kind: p\nlength: {top + 1}\nsha256: {digest}\n")
            elif kind == "cli_load":
                kind_letter, top = ("p", base) if args[0] == "base" else ("q", grown["Q"])
                reason = compare_cli(
                    out, f"{self.path(args[0])}: ok, kind={kind_letter}, {top + 1} values\n")
            else:
                reason = self.check_malformed(*args, out)
            reasons.append(reason)
        return reasons

    @staticmethod
    def check_malformed(kind, line, res):
        if isinstance(res, Raised):
            return f"raised {res.text}"
        if res.code == 3 and f"line {line}:" in res.stderr:
            return None
        return f"{OUTCOME}{kind} cache exits {res.code}, expected 3 naming line {line}: {res.stderr.strip()[:80]}"


WORKLOADS = {w.name: w for w in (ScalarMix, Tables, CacheCycle)}
