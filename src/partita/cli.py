"""Command line front end.

Subcommands:

* ``p N M`` / ``q N M``: one partition count, optionally forced onto a
  specific algorithm, recounted by the enumeration oracle, or explained
  (route taken plus step models).
* ``list ...``: whole rows, columns and series prefixes.
* ``bench N``: step models and optional wall-clock timings for both
  algorithms across a range of m, or a fitted crossover point.
* ``cache ...``: save, validate and inspect series cache files.

Output formats: ``plain`` (human-oriented), ``csv``, ``json``.  Counts
appear in JSON as decimal strings, since they outgrow the integers many
JSON consumers can hold.  Exit codes: 0 success, 2 bad usage or bad
values (including oracle limits, I/O failures and running out of
memory), 3 malformed cache file.
"""

import argparse
import functools
import json
import sys
from time import perf_counter_ns

from . import core, lists, oracle, series

__all__ = ["build_parser", "main"]


def _index(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return value


def _positive(text):
    value = _index(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _fraction(text):
    # accepts "2.7", "27/10", "3"; stored exactly, never as a float
    try:
        return core._as_fraction(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _emit(text, out_path):
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="ascii") as fh:
            fh.write(text)


# Series class of each kind letter, as in ``cache save --kind`` and the
# list tables' names.
_SERIES = {"p": series.PartitionSeries, "q": series.DistinctSeries}


def _kind_of(s):
    return "p" if s.KIND == series.PartitionSeries.KIND else "q"


def _load_p_cache(path, top, head):
    loaded = series._read_cache(path, top, head)[0]
    if _kind_of(loaded) != "p":
        raise ValueError(f"{path} holds a Q series; scalar commands need a P cache")
    return loaded


def _json(payload):
    return json.dumps(payload, separators=(",", ":")) + "\n"


def _csv(rows):
    return "".join(",".join(map(str, row)) + "\n" for row in rows)


def _scalar_output(args, value, plan):
    explained = {} if plan is None else {
        "chosen": plan.chosen, "steps_alg1": plan.alg1, "steps_alg2": plan.alg2
    }
    if args.format == "json":
        algorithm = "oracle" if args.oracle else args.algorithm
        params = {"n": args.n, "m": args.m, "algorithm": algorithm, **explained}
        return _json({"kind": args.kind, "params": params, "value": str(value)})
    if args.format == "csv":
        row = {"n": args.n, "m": args.m, "value": value, **explained}
        return _csv([row.keys(), row.values()])
    text = f"{value}\n"
    if plan is not None:
        text += " ".join(f"{k}={v}" for k, v in explained.items()) + "\n"
    return text


def _sequence_output(args, kind, params, start, values):
    if args.format == "json":
        params = {**params, "start_index": start}
        return _json({"kind": kind, "params": params, "values": list(map(str, values))})
    if args.format == "csv":
        return _csv([("index", "value"), *enumerate(values, start)])
    return ",".join(map(str, values)) + "\n"


def _cmd_scalar(args):
    distinct = args.kind == "q"
    n, m = args.n, args.m
    shifted = core._staircase(n, m) if distinct else n
    # P(shifted, m)'s plan comes before any read or count, --oracle included
    route, top, head = core._plan(shifted, m, args.crossover_constant, args.algorithm)
    if args.oracle:
        oracle._guard(n)  # the oracle limit, before the cache is read
    cache = None if args.cache is None else _load_p_cache(args.cache, top, head)
    if args.oracle:
        route = "oracle"
        value = oracle.count_partitions(n, m, distinct=distinct)
    else:
        value = core._count(route, shifted, m, top, cache)
    plan = core._estimate(shifted, m, route) if args.explain else None
    return _scalar_output(args, value, plan)


def _cmd_row(args):
    values = (lists.p_row if args.kind == "p" else lists.q_row)(args.n)
    return _sequence_output(args, args.table, {"n": args.n}, 1, values)


def _cmd_col(args):
    n, m = args.n, args.m
    if args.kind == "q":
        values = lists.q_column(n, m, strategy=args.strategy)
        start = m * (m + 1) // 2
    else:
        # n < m means the column has no entries, not that the call is bad
        values = [] if n < m else lists.p_column(n, m, strategy=args.strategy)
        start = m
    return _sequence_output(args, args.table, {"n": n, "m": m}, start, values)


def _cmd_series(args):
    s = _SERIES[args.kind](algorithm=args.series_algorithm)
    s.ensure(args.n)
    params = {"n": args.n, "algorithm": args.series_algorithm}
    return _sequence_output(args, args.table, params, 0, s.values)


def _parse_m_range(text, n):
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise ValueError("--m-range must be LO:HI or LO:HI:STEP")
    try:
        lo, hi = int(parts[0]), int(parts[1])
        step = int(parts[2]) if len(parts) == 3 else 1
    except ValueError:
        raise ValueError(f"bad --m-range {text!r}")
    if lo < 1 or hi < lo or step < 1:
        raise ValueError("--m-range needs 1 <= LO <= HI and STEP >= 1")
    return range(lo, min(hi, n) + 1, step)


def _median_time_ns(fn, repetitions):
    times = []
    for _ in range(repetitions):
        start = perf_counter_ns()
        fn()
        times.append(perf_counter_ns() - start)
    return sorted(times)[(repetitions - 1) // 2]  # the low median


def _bench_rows(args):
    n = args.n
    cache = series.PartitionSeries()
    rows = []
    for m in _parse_m_range(args.m_range or f"1:{n}", n):
        plan = core.dispatch_plan(n, m, args.crossover_constant)
        row = {
            "m": m,
            "steps_alg1": plan.alg1,
            "steps_alg2": plan.alg2,
            "chosen": plan.chosen,
        }
        if not args.steps_only:
            cache.ensure(n - m)  # warm outside the timed region
            row["time_alg1_ns"] = _median_time_ns(
                lambda: core.p_parts_alg1(n, m), args.repetitions
            )
            row["time_alg2_ns"] = _median_time_ns(
                lambda: core.p_parts_alg2(n, m, cache), args.repetitions
            )
        rows.append(row)
    return rows


def _bench_table_output(args, rows):
    fields = ["m", "steps_alg1", "steps_alg2"]
    if not args.steps_only:
        fields += ["time_alg1_ns", "time_alg2_ns"]
    fields.append("chosen")
    if args.format == "json":
        payload = {
            "kind": "bench",
            "params": {
                "n": args.n,
                "m_range": args.m_range or f"1:{args.n}",
                "repetitions": args.repetitions,
                "steps_only": args.steps_only,
                "crossover_constant": str(args.crossover_constant),
            },
            "rows": rows,
        }
        return _json(payload)
    cells = [fields] + [[str(row[f]) for f in fields] for row in rows]
    if args.format == "csv":
        return _csv(cells)
    widths = [max(len(row[i]) for row in cells) for i in range(len(fields))]
    lines = (
        "  ".join(cell.rjust(width) for cell, width in zip(row, widths))
        for row in cells
    )
    return "\n".join(lines) + "\n"


def _bench_fit_output(args, rows):
    # first sampled m where algorithm 1 measured slower, plus the two
    # predictions it should be compared against: the step-model
    # crossover and the dispatcher threshold floor(c*sqrt(n))
    crossed = next(
        (row["m"] for row in rows if row["time_alg1_ns"] > row["time_alg2_ns"]), None
    )
    constant = None if crossed is None else crossed / args.n**0.5
    analytic = float(core.analytic_crossover(args.n))
    practical = core.practical_crossover(args.n, args.crossover_constant)
    if args.format == "json":
        payload = {
            "kind": "bench-fit",
            "params": {"n": args.n, "m_range": args.m_range or f"1:{args.n}"},
            "m": crossed,
            "constant": None if constant is None else round(constant, 4),
            "analytic": round(analytic, 2),
            "practical": practical,
        }
        return _json(payload)
    if args.format == "csv":
        fit = ("", "") if crossed is None else (crossed, f"{constant:.4f}")
        head = ("m", "constant", "analytic", "practical")
        return _csv([head, (*fit, f"{analytic:.2f}", practical)])
    if crossed is None:
        return f"no crossover in range; analytic={analytic:.2f} practical={practical}\n"
    return (
        f"m={crossed} constant={constant:.4f} "
        f"analytic={analytic:.2f} practical={practical}\n"
    )


def _cmd_bench(args):
    if args.fit_crossover and args.steps_only:
        raise ValueError("--fit-crossover needs timings; drop --steps-only")
    output = _bench_fit_output if args.fit_crossover else _bench_table_output
    return output(args, _bench_rows(args))


def _cmd_cache_save(args):
    s = _SERIES[args.kind]()
    s.ensure(args.n)
    series.save_series(s, args.path)
    return f"wrote {len(s.values)} values to {args.path}\n"


def _cmd_cache_load(args):
    s, count = series._read_cache(args.path, 0)  # checks every line, converts one
    return f"{args.path}: ok, kind={_kind_of(s)}, {count} values\n"


def _cmd_cache_info(args):
    s, count, checksum = series._cache_checksum(args.path)
    return f"kind: {_kind_of(s)}\nlength: {count}\nsha256: {checksum}\n"


# ``partita list`` tables, in help order; the name is "<kind>-<shape>".
_LIST_TABLES = (
    ("p-row", "P(n, m) for m = 1..n"),
    ("p-col", "P(i, m) for i = m..n"),
    ("q-row", "Q(n, m) for all feasible m"),
    ("q-col", "Q(i, m) for i = m(m+1)/2..n"),
    ("p-series", "P(0), P(1), ..., P(n)"),
    ("q-series", "Q(0), Q(1), ..., Q(n)"),
)
_LIST_COMMANDS = {"row": _cmd_row, "col": _cmd_col, "series": _cmd_series}


def build_parser():
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument(
        "--format", choices=("plain", "csv", "json"), default="plain",
        help="output format (default plain)",
    )
    fmt.add_argument("--out", metavar="PATH", help="write output to PATH")

    scalar = argparse.ArgumentParser(add_help=False)
    scalar.add_argument("n", type=_index, help="number being partitioned")
    scalar.add_argument("m", type=_index, help="number of parts")
    scalar.add_argument(
        "--algorithm", choices=core._METHODS, default="auto",
        help="force a computation route (default auto)",
    )
    scalar.add_argument(
        "--crossover-constant", type=_fraction, default=core.DEFAULT_CROSSOVER,
        metavar="C", help="auto picks alg1 while m <= C*sqrt(n) (default 2.7)",
    )
    scalar.add_argument(
        "--explain", action="store_true",
        help="also report the route taken (oracle under --oracle) and both "
        "step models",
    )
    scalar.add_argument(
        "--oracle", action="store_true",
        help="recount by direct enumeration instead (slow, n <= 80); a "
        "forced --algorithm is still checked",
    )
    scalar.add_argument(
        "--cache", metavar="PATH", help="seed the series cache from a saved P cache"
    )

    parser = argparse.ArgumentParser(
        prog="partita",
        description="Count integer partitions of n into exactly m parts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for kind, help_text in (
        ("p", "partitions of N into exactly M parts"),
        ("q", "partitions of N into M distinct parts"),
    ):
        sp = sub.add_parser(kind, parents=[scalar, fmt], help=help_text)
        sp.set_defaults(func=_cmd_scalar, kind=kind)

    lst = sub.add_parser("list", help="whole rows, columns and series prefixes")
    lsub = lst.add_subparsers(dest="table", required=True)

    for table, help_text in _LIST_TABLES:
        kind, shape = table.split("-")
        sp = lsub.add_parser(table, parents=[fmt], help=help_text)
        sp.add_argument("n", type=_positive if shape == "row" else _index)
        if shape == "col":
            sp.add_argument("m", type=_index)
            sp.add_argument(
                "--strategy", choices=lists._STRATEGIES, default="auto",
                help="column construction route (default auto)",
            )
        elif shape == "series":
            algorithms = _SERIES[kind].ALGORITHMS
            sp.add_argument(
                "--series-algorithm", choices=algorithms,
                default=algorithms[0], help="recurrence used to extend the series",
            )
        sp.set_defaults(func=_LIST_COMMANDS[shape], kind=kind)

    bench = sub.add_parser(
        "bench", parents=[fmt],
        help="compare both algorithms across a range of m",
    )
    bench.add_argument("n", type=_positive)
    bench.add_argument(
        "--m-range", metavar="LO:HI[:STEP]", default=None,
        help="inclusive range of m to sample (default 1:N)",
    )
    bench.add_argument(
        "--repetitions", type=_positive, default=3, metavar="R",
        help="timing runs per cell; the low median is reported (default 3)",
    )
    bench.add_argument(
        "--steps-only", action="store_true",
        help="report step models only, skip wall-clock timing",
    )
    bench.add_argument(
        "--fit-crossover", action="store_true",
        help="report the first sampled m where alg1 measures slower than alg2",
    )
    bench.add_argument(
        "--crossover-constant", type=_fraction, default=core.DEFAULT_CROSSOVER,
        metavar="C", help="constant used for the chosen column (default 2.7)",
    )
    bench.set_defaults(func=_cmd_bench)

    cache = sub.add_parser("cache", help="save, validate and inspect cache files")
    csub = cache.add_subparsers(dest="action", required=True)

    save = csub.add_parser("save", help="compute a series and write it to a file")
    save.add_argument("path")
    save.add_argument("-n", type=_index, required=True, help="highest index to store")
    save.add_argument(
        "--kind", choices=("p", "q"), default="p",
        help="which series to store (default p)",
    )
    save.set_defaults(func=_cmd_cache_save)

    load = csub.add_parser("load", help="validate a cache file")
    load.add_argument("path")
    load.set_defaults(func=_cmd_cache_load)

    info = csub.add_parser("info", help="report kind, length and checksum")
    info.add_argument("path")
    info.set_defaults(func=_cmd_cache_info)

    return parser


_parser = functools.cache(build_parser)  # a build costs more than a cache-backed count


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        _emit(args.func(args), getattr(args, "out", None))
    except series.CacheFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory for this request", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
