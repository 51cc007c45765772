"""Benchmark runner for partita.

Run from the root of a checkout, one workload per process:

    python3 perfbench/run.py --workload scalar-mix --seed 1 --seconds 30 --trace 0

``--workload`` is ``scalar-mix``, ``tables`` or ``cache-cycle`` (see
workloads.py for what each does and why).  The workload's calls are made
from ``--seed``; the loop makes one call at a time, with no threads.
The last line printed is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give every
metric by name with its unit.

With ``--trace 0`` the metrics are end to end, measured untraced:

* ``setup_s``: median time to import partita afresh and bring it to the
  workload's starting state (warm series, saved caches), set up once
  before the first round and once more after every round, outside the
  rounds' timing, so the samples spread over the run;
* ``wall_s``: median time of one round of the workload's call list;
  rounds repeat until they have taken ``--seconds``, and at least
  MIN_ROUNDS times;
* ``op_p50_ms`` and ``op_tail_ms``: per-call latency over all rounds, at
  the median and at a high percentile with at least ten samples beyond
  it in MIN_ROUNDS rounds (fixed per workload, recorded; see
  ``tail_percentile``);
* ``peak_rss_mb``: ru_maxrss of this process, read before the checks.

``error_rate``, failed over attempted calls, is printed and recorded
too.  A call fails when its value is wrong, when it raises, or when it
misses its documented exit code or line; ``correct`` is false only for
the first two.  After timing, the first round's outputs are checked by
another route and every later round must repeat them exactly.

With ``--trace 1`` an untraced pass is followed by a traced one, each
for half of ``--seconds``, and by a route audit; the metrics are the
per-layer ones of tracing.py.

Each run writes a record (seed, call counts, tail percentile, machine,
Python version, git revision, metrics) and, when traced, its spans under
``.perfbench/`` in the checkout.
"""

import argparse
import contextlib
import gc
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

from reference import References
from tracing import Tracer, audit_routes, layer_metrics
from workloads import OUTCOME, WORKLOADS, CliResult, Raised

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
MIN_ROUNDS = 3


def import_partita():
    """Import partita from this checkout's src/, executing its modules afresh."""
    for name in [n for n in sys.modules if n == "partita" or n.startswith("partita.")]:
        del sys.modules[name]
    pkg = importlib.import_module("partita")
    importlib.import_module("partita.cli")
    if Path(pkg.__file__).resolve().parent.parent != SRC:
        raise RuntimeError(f"imported partita from {pkg.__file__}, not from {SRC}")
    return pkg


def set_up(workload):
    """(partita imported afresh in the workload's starting state, seconds taken)."""
    start = perf_counter()
    pkg = import_partita()
    workload.setup(pkg)
    return pkg, perf_counter() - start


class Pass:
    """Timings and outputs of repeated rounds of one workload."""

    def __init__(self, walls, latencies, first, differing):
        self.walls = walls            # seconds per round
        self.latencies = latencies    # seconds per call, all rounds
        self.first = first            # settled outputs of the first round
        self.differing = differing    # per call: rounds whose output differed from the reference

    @property
    def rounds(self):
        return len(self.walls)


def measure(workload, pkg, seconds, tracer=None, reference=None, after_round=None):
    """Run rounds until they have taken about ``seconds``.  After each
    round, untimed, its outputs are compared with ``reference`` (default:
    this pass's first round) and ``after_round`` is called."""
    walls, latencies = [], []
    first = None
    differing = [0] * len(workload.calls)
    while len(walls) < MIN_ROUNDS or sum(walls) + walls[-1] <= seconds:
        outs = []
        round_start = perf_counter()
        for i, call in enumerate(workload.calls):
            call_id = len(walls) * len(workload.calls) + i
            scope = tracer.op(call_id, call[0]) if tracer else contextlib.nullcontext()
            began = perf_counter()
            try:
                with scope:
                    out = workload.run(pkg, call)
            except Exception as exc:  # a raising call fails; the loop goes on
                out = Raised(f"{type(exc).__name__}: {exc}")
            latencies.append(perf_counter() - began)
            outs.append(out)
        walls.append(perf_counter() - round_start)
        settled = [workload.settle(call, out) for call, out in zip(workload.calls, outs)]
        if first is None:
            first = settled
        for i, (got, want) in enumerate(zip(settled, reference or first)):
            differing[i] += got != want
        if after_round is not None:
            after_round()
    return Pass(walls, latencies, first, differing)


def count_failures(reasons, passes):
    """Failed calls over all rounds of all passes: every round of a call
    whose checked output is wrong, plus rounds that did not repeat it."""
    return sum(p.rounds if reason else p.differing[i]
               for p in passes for i, reason in enumerate(reasons))


def tail_percentile(calls_per_round):
    """The percentile reported as op_tail_ms.

    Every call of the round adds one sample per round, so the samples of
    the slowest calls sit in blocks, one block per call.  The percentile
    leaves the fewest whole blocks plus half a block beyond it that still
    hold ten samples in MIN_ROUNDS rounds: it reads the middle of one
    call's block, not the edge between two calls, so it does not jump
    with the number of rounds a run fits in.
    """
    beyond = math.ceil(10 / MIN_ROUNDS - 0.5) + 0.5
    return 100 * (1 - beyond / calls_per_round)


def percentile(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def cli_output_bytes(outputs):
    return sum(len(o.stdout) + len(o.stderr) for o in outputs if isinstance(o, CliResult))


def machine():
    model = None
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
        model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": model or platform.processor() or None,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
    }


def git_revision():
    """The checkout's commit from .git, or None where there is no repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run(workload, seconds, trace, spans_path=None):
    """Measure, check and summarise one workload; returns the run's record.

    A traced run splits ``seconds`` between its untraced and traced passes.
    """
    pkg, seconds_taken = set_up(workload)
    setup_times = [seconds_taken]

    def sample_setup():
        # a throwaway copy of partita; the rounds keep using ``pkg``
        setup_times.append(set_up(workload)[1])
        gc.collect()

    if trace:
        seconds /= 2
    untraced = measure(workload, pkg, seconds, after_round=sample_setup)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    passes = [untraced]
    if trace:
        tracer = Tracer(pkg)
        tracer.install()
        try:
            traced = measure(workload, pkg, seconds, tracer, untraced.first)
        finally:
            tracer.uninstall()
        passes.append(traced)
        audit = audit_routes(pkg, tracer.spans)
        if spans_path is not None:
            tracer.write_spans(spans_path)
    refs = References()
    reasons = workload.check(pkg, refs, untraced.first)
    attempted = sum(p.rounds for p in passes) * len(workload.calls)
    failed = count_failures(reasons, passes)
    q = tail_percentile(len(workload.calls))
    if trace:
        overhead = statistics.median(traced.walls) / statistics.median(untraced.walls) - 1
        metrics = layer_metrics(pkg, tracer.spans, traced.rounds, audit, overhead,
                                cli_output_bytes(untraced.first))
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "wall_s": {"value": statistics.median(untraced.walls), "unit": "s"},
            "op_p50_ms": {"value": 1000 * statistics.median(untraced.latencies), "unit": "ms"},
            "op_tail_ms": {"value": 1000 * percentile(untraced.latencies, q), "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    failures = [f"{call}: {reason}" for call, reason in zip(workload.calls, reasons) if reason]
    return {
        "workload": workload.name,
        "seed": workload.seed,
        "seconds_per_pass": seconds,
        "trace": int(trace),
        "correct": not any(r and not r.startswith(OUTCOME) for r in reasons)
        and not any(any(p.differing) for p in passes),
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "failures": failures[:20],
        "calls_per_round": len(workload.calls),
        "rounds": [p.rounds for p in passes],
        "samples": len(untraced.latencies),
        "tail_percentile": q,
        "setup_samples_s": setup_times,
        "round_walls_s": [p.walls for p in passes],
        "reference": refs.source,
        "dispatch_audit_untimed": sum(t[0] is None for t in audit[0]) if trace else None,
        "machine": machine(),
        "git_revision": git_revision(),
        "metrics": metrics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "partita" / "__init__.py").is_file():
        print(f"perfbench: partita's sources are missing from {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"work-{stem}-{os.getpid()}"
    workdir.mkdir()
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        record = run(workload, args.seconds, args.trace, results / f"{stem}-spans.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record_path = results / f"{stem}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    for name, metric in record["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"error_rate = {record['error_rate']:.6g} share "
          f"({record['failed']} of {record['attempted']} calls failed)")
    if not args.trace:
        print(f"op_tail_ms is p{record['tail_percentile']:.4g} of {record['samples']} samples "
              f"({record['rounds'][0]} rounds of {record['calls_per_round']} calls)")
    for failure in record["failures"]:
        print(f"failed: {failure}")
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
