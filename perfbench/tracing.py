"""The traced run: spans around partita's public functions, from outside.

``Tracer.install`` replaces the public functions of partita's ``core``,
``series``, ``lists`` and ``cli`` modules, and ``ensure`` on the two
series classes, with wrappers that record a span each: name, start,
end, parent span and the workload call it belongs to.  partita's
modules call each other through module globals and attributes, so the
calls between layers are seen too.  Spans stay in memory until
``write_spans`` writes them once at the end.

``layer_metrics`` turns the spans into per-layer numbers, all per round
of the workload's call list.  Each is expected to move an end-to-end
metric on one workload and to stay put on another:

============================================  ==========================================
per-layer metric                              moves, on workload
============================================  ==========================================
core.alg1.{calls,self_s,slot_updates},        wall_s, op_p50_ms, op_tail_ms on
core.alg2.{calls,self_s,terms},               scalar-mix; no change on tables
core.closed.calls, core.fast_path.calls
core.dispatch.{misroute_share,excess_s}       wall_s, op_tail_ms on scalar-mix
series.ensure.{calls,self_s,entries_added,    wall_s on cache-cycle; setup_s on
hit_share}                                    scalar-mix and tables
series.{save,load}.{s,bytes},                 wall_s, op_p50_ms on cache-cycle
series.checksum.s
lists.{p_row,p_column,q_row}.self_s,          wall_s, peak_rss_mb on tables; no
lists.conv.{calls,self_s,input_elems,         change on scalar-mix
schoolbook_mults}
lists.column.{misroute_share,excess_s}        wall_s on tables
cli.main.{calls,self_s}, cli.output_bytes,    wall_s on cache-cycle and tables
cli.process_s
trace.overhead_share                          (traced over untraced wall_s, minus 1)
============================================  ==========================================

``core.alg1.slot_updates`` is the sum of ``alg1_steps``, the exact loop
count; ``core.alg2.terms`` the sum of ``expansion_depth``;
``lists.conv.schoolbook_mults`` is computed as the sum of L(L + 1)/2
over convolution lengths L, not counted; ``series.load.bytes`` counts
the files that loaded, while ``series.load.s`` also times rejected
ones.  The two route audits time the
forced other route of every ``alg1``/``alg2`` call made by ``p_parts``
with ``method="auto"`` and of every ``p_column`` call with
``strategy="auto"``; a call is misrouted when the other route ran more
than 1.2 times faster, and ``excess_s`` sums max(0, t_chosen - t_other).
"""

import contextlib
import functools
import json
import os
from collections import defaultdict
from time import perf_counter, perf_counter_ns

PUBLIC = {
    "core": ("p_parts", "q_parts", "p_parts_alg1", "p_parts_alg2", "p_parts_closed"),
    "series": ("save_series", "load_series", "serialize_series", "series_checksum"),
    "lists": ("p_row", "p_column", "q_row", "q_column", "causal_convolution"),
    "cli": ("main",),
}


def _arg(args, kwargs, index, name, default):
    return kwargs.get(name, args[index] if len(args) > index else default)


# What a span remembers about its call, from the call's arguments after
# it returns.
NOTES = {
    "core.p_parts": lambda a, k: _arg(a, k, 4, "method", "auto"),
    "core.p_parts_alg1": lambda a, k: (a[0], a[1]),
    "core.p_parts_alg2": lambda a, k: (a[0], a[1]),
    "lists.p_column": lambda a, k: (a[0], a[1], _arg(a, k, 3, "strategy", "auto")),
    "lists.causal_convolution": lambda a, k: len(a[0]),
    "series.save_series": lambda a, k: os.path.getsize(a[1]),
    "series.load_series": lambda a, k: os.path.getsize(a[0]),
}

NAME, START, END, PARENT, CALL, NOTE = range(6)


class Tracer:
    def __init__(self, pkg):
        self.pkg = pkg
        self.spans = []  # [name, start_ns, end_ns, parent index, call id, note]
        self.stack = []
        self.call_id = None
        self.saved = []

    def install(self):
        for module_name, names in PUBLIC.items():
            module = getattr(self.pkg, module_name)
            for name in names:
                self._patch(module, name, f"{module_name}.{name}")
        for cls in (self.pkg.series.PartitionSeries, self.pkg.series.DistinctSeries):
            self._patch(cls, "ensure", "series.ensure")

    def uninstall(self):
        for owner, attr, fn in reversed(self.saved):
            setattr(owner, attr, fn)
        self.saved.clear()

    def _patch(self, owner, attr, span_name):
        fn = getattr(owner, attr)
        self.saved.append((owner, attr, fn))
        setattr(owner, attr, self._wrap(span_name, fn))

    def _open(self, name):
        span = [name, 0, 0, self.stack[-1] if self.stack else None, self.call_id, None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = perf_counter_ns()
        return span

    def _close(self, span):
        span[END] = perf_counter_ns()
        self.stack.pop()

    def _wrap(self, name, fn):
        note = NOTES.get(name)
        grows = name == "series.ensure"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = len(args[0].values) if grows else 0
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if grows:
                span[NOTE] = len(args[0].values) - before
            elif note is not None:
                span[NOTE] = note(args, kwargs)
            return result

        return wrapper

    @contextlib.contextmanager
    def op(self, call_id, kind):
        """Root span of one workload call; partita's spans nest under it."""
        self.call_id = call_id
        span = self._open(f"op.{kind}")
        try:
            yield
        finally:
            self._close(span)

    def write_spans(self, path):
        with open(path, "w", encoding="ascii") as fh:
            for name, start, end, parent, call, note in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "call": call, "note": note}) + "\n")


def _tree(spans):
    kids = defaultdict(list)
    child_ns = [0] * len(spans)
    for i, span in enumerate(spans):
        if span[PARENT] is not None:
            kids[span[PARENT]].append(i)
            child_ns[span[PARENT]] += span[END] - span[START]
    return kids, child_ns


def best_time(fn):
    """Least of up to three timings, stopping once 0.2 s has been spent."""
    times = []
    while len(times) < 3 and sum(times) < 0.2:
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return min(times)


# The dispatch audit does not time a route that the step models put at
# more than this many times the chosen route's steps (alg1 at m >= n/3,
# for instance, would take seconds per call); such calls count as routed
# right.
AUDIT_STEP_RATIO = 100


def audit_routes(pkg, spans):
    """(t_chosen, t_other) lists for auto dispatch and auto columns, each
    distinct call timed once more on both forced routes, untraced; both
    times are None for a call the audit does not time."""
    kids, _ = _tree(spans)
    dispatch, columns = {}, {}
    for i, span in enumerate(spans):
        parent = span[PARENT]
        if (span[NAME] in ("core.p_parts_alg1", "core.p_parts_alg2") and parent is not None
                and spans[parent][NAME] == "core.p_parts" and spans[parent][NOTE] == "auto"):
            dispatch[span[NOTE]] = span[NAME][-4:]
        elif span[NAME] == "lists.p_column" and span[NOTE] and span[NOTE][2] == "auto" and span[NOTE][1]:
            # the conv route extends the series and convolves; direct calls nothing traced
            columns[span[NOTE][:2]] = "conv" if kids[i] else "direct"
    core, lists = pkg.core, pkg.lists
    forced = {"alg1": core.p_parts_alg1, "alg2": core.p_parts_alg2}
    dispatch_times = []
    for (n, m), chosen in sorted(dispatch.items()):
        other = "alg2" if chosen == "alg1" else "alg1"
        steps = {"alg1": core.alg1_steps(n, m), "alg2": core.alg2_steps(n, m)}
        if steps[other] > AUDIT_STEP_RATIO * max(1, steps[chosen]):
            dispatch_times.append((None, None))
            continue
        dispatch_times.append((best_time(lambda: forced[chosen](n, m)),
                               best_time(lambda: forced[other](n, m))))
    column_times = []
    for (n, m), chosen in sorted(columns.items()):
        other = "conv" if chosen == "direct" else "direct"
        column_times.append((best_time(lambda: lists.p_column(n, m, strategy=chosen)),
                             best_time(lambda: lists.p_column(n, m, strategy=other))))
    return dispatch_times, column_times


def misroutes(times):
    """(share of calls whose other route was over 1.2x faster, summed excess seconds)."""
    if not times:
        return 0.0, 0.0
    timed = [(chosen, other) for chosen, other in times if chosen is not None]
    share = sum(chosen > 1.2 * other for chosen, other in timed) / len(times)
    return share, sum(max(0.0, chosen - other) for chosen, other in timed)


def layer_metrics(pkg, spans, rounds, audit, overhead_share, output_bytes):
    """Per-layer metrics, per round, from the spans of ``rounds`` traced rounds."""
    kids, child_ns = _tree(spans)
    by_name = defaultdict(list)
    for i, span in enumerate(spans):
        by_name[span[NAME]].append(i)

    def calls(name):
        return len(by_name[name]) / rounds

    def seconds(name, own=True):
        ns = sum(spans[i][END] - spans[i][START] - (child_ns[i] if own else 0) for i in by_name[name])
        return ns / 1e9 / rounds

    def notes(name):
        return [spans[i][NOTE] for i in by_name[name] if spans[i][NOTE] is not None]

    routes = {"core.p_parts_alg1", "core.p_parts_alg2", "core.p_parts_closed"}
    fast = sum(spans[i][NOTE] == "auto" and not any(spans[k][NAME] in routes for k in kids[i])
               for i in by_name["core.p_parts"])
    added = notes("series.ensure")
    lengths = notes("lists.causal_convolution")
    dispatch_share, dispatch_excess = misroutes(audit[0])
    column_share, column_excess = misroutes(audit[1])
    core = pkg.core
    values = {
        "core.alg1.calls": (calls("core.p_parts_alg1"), "count"),
        "core.alg1.self_s": (seconds("core.p_parts_alg1"), "s"),
        "core.alg1.slot_updates": (sum(core.alg1_steps(n, m) for n, m in notes("core.p_parts_alg1")) / rounds, "count"),
        "core.alg2.calls": (calls("core.p_parts_alg2"), "count"),
        "core.alg2.self_s": (seconds("core.p_parts_alg2"), "s"),
        "core.alg2.terms": (sum(core.expansion_depth(n, m) for n, m in notes("core.p_parts_alg2")) / rounds, "count"),
        "core.closed.calls": (calls("core.p_parts_closed"), "count"),
        "core.fast_path.calls": (fast / rounds, "count"),
        "core.dispatch.misroute_share": (dispatch_share, "share"),
        "core.dispatch.excess_s": (dispatch_excess, "s"),
        "series.ensure.calls": (calls("series.ensure"), "count"),
        "series.ensure.self_s": (seconds("series.ensure"), "s"),
        "series.ensure.entries_added": (sum(added) / rounds, "count"),
        "series.ensure.hit_share": (added.count(0) / len(added) if added else 0.0, "share"),
        "series.save.s": (seconds("series.save_series", own=False), "s"),
        "series.save.bytes": (sum(notes("series.save_series")) / rounds, "bytes"),
        "series.load.s": (seconds("series.load_series", own=False), "s"),
        "series.load.bytes": (sum(notes("series.load_series")) / rounds, "bytes"),
        "series.checksum.s": (seconds("series.series_checksum", own=False), "s"),
        "lists.p_row.self_s": (seconds("lists.p_row"), "s"),
        "lists.p_column.self_s": (seconds("lists.p_column"), "s"),
        "lists.q_row.self_s": (seconds("lists.q_row"), "s"),
        "lists.conv.calls": (calls("lists.causal_convolution"), "count"),
        "lists.conv.self_s": (seconds("lists.causal_convolution"), "s"),
        "lists.conv.input_elems": (sum(2 * n for n in lengths) / rounds, "count"),
        "lists.conv.schoolbook_mults": (sum(n * (n + 1) // 2 for n in lengths) / rounds, "computed"),
        "lists.column.misroute_share": (column_share, "share"),
        "lists.column.excess_s": (column_excess, "s"),
        "cli.main.calls": (calls("cli.main"), "count"),
        "cli.main.self_s": (seconds("cli.main"), "s"),
        "cli.output_bytes": (output_bytes, "bytes"),
        "cli.process_s": (seconds("op.process", own=False), "s"),
        "trace.overhead_share": (overhead_share, "share"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
