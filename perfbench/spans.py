"""Spans and counts around calls into the engine's modules.

Nothing under ``src/`` knows about this file. For a traced evaluation,
:meth:`Tracer.installed` swaps the names the engine looks up at call time
(``repro.core.engine.compile_rule_body``, ``StatsCollector.analyze``,
``DataFrame.localCheckpoint`` ...) for wrappers that record a span, then
puts the originals back. Each span has a name, start, end, parent and the
id of the evaluation it belongs to; spans stay in memory until the run
writes them out.

Spark work is attributed through job groups: every pyspark action span
sets its own group, so ``statusTracker().getJobIdsForGroup`` later gives
the jobs (and through their stages, the tasks) that action ran.
"""
from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

from pyspark.sql import functions as F
from pyspark.sql.classic.dataframe import DataFrame

from repro.core import dedup as dedup_mod
from repro.core import engine as engine_mod
from repro.core import pbme as pbme_mod
from repro.core.stats import StatsCollector

IDLE_GROUP = "perfbench-idle"


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    eval_id: int
    start: float
    end: float = 0.0
    #: Spark job group this span set (pyspark actions and the root only)
    group: str | None = None
    #: the relation name passed to StatsCollector calls, or the DSD method
    arg: str | None = None
    #: rows returned by ``analyze`` or passed to ``record``
    rows: int | None = None
    jobs: int = 0
    tasks: int = 0

    @property
    def dur(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    sc: object
    spans: list[Span] = field(default_factory=list)
    #: per evaluation: F.broadcast calls made inside a compiler span
    broadcast_hints: Counter = field(default_factory=Counter)
    _stack: list[Span] = field(default_factory=list)
    _eval_id: int = -1

    # -- recording -----------------------------------------------------
    def _enter(self, name: str, *, group: bool) -> Span:
        parent = self._stack[-1].id if self._stack else None
        sp = Span(len(self.spans), name, parent, self._eval_id, time.perf_counter())
        self.spans.append(sp)
        self._stack.append(sp)
        if group:
            sp.group = f"perfbench-{sp.id}"
            self.sc.setJobGroup(sp.group, name)
        return sp

    def _exit(self, sp: Span) -> None:
        self._stack.pop()
        if sp.group is not None:
            outer = next((s.group for s in reversed(self._stack) if s.group), None)
            self.sc.setJobGroup(outer or IDLE_GROUP, "perfbench")
        sp.end = time.perf_counter()

    @contextmanager
    def span(self, name: str, *, group: bool = False):
        sp = self._enter(name, group=group)
        try:
            yield sp
        finally:
            self._exit(sp)

    @contextmanager
    def evaluation(self):
        """Root span of one traced evaluation (the timed region)."""
        self._eval_id += 1
        with self.span("eval", group=True) as root:
            yield root
        self._collect_jobs(self._eval_id)

    def _wrap(self, name: str, fn, *, group: bool = False, arg=None, rows=None):
        @functools.wraps(fn)
        def wrapper(*a, **kw):
            with self.span(name, group=group) as sp:
                out = fn(*a, **kw)
            if arg is not None:
                sp.arg = arg(a, kw)
            if rows is not None:
                sp.rows = rows(a, kw, out)
            return out

        return wrapper

    def _broadcast(self, fn):
        @functools.wraps(fn)
        def wrapper(df):
            if any(s.name.startswith("compiler.") for s in self._stack):
                self.broadcast_hints[self._eval_id] += 1
            return fn(df)

        return wrapper

    @contextmanager
    def installed(self):
        """Patch the engine's call targets for the duration of the block."""
        stats_name = lambda a, kw: a[1]  # noqa: E731  (self, name, ...)
        targets = [
            (engine_mod, name, self._wrap(f"compiler.{name}", getattr(engine_mod, name)))
            for name in ("compile_rule_body", "project_head", "apply_aggregation", "normalize_edb")
        ] + [
            (engine_mod, "dedup", self._wrap("dedup.dedup", engine_mod.dedup)),
            (dedup_mod, "with_compact_key",
             self._wrap("dedup.with_compact_key", dedup_mod.with_compact_key)),
            (engine_mod, "choose_set_difference",
             self._wrap("setdiff.choose_set_difference", engine_mod.choose_set_difference)),
            (engine_mod, "set_difference",
             self._wrap("setdiff.set_difference", engine_mod.set_difference,
                        arg=lambda a, kw: kw["method"])),
            (pbme_mod, "match_program", self._wrap("pbme.match_program", pbme_mod.match_program)),
            (pbme_mod, "pack_matrix", self._wrap("pbme.pack_matrix", pbme_mod.pack_matrix)),
            (pbme_mod, "evaluate", self._wrap("pbme.evaluate", pbme_mod.evaluate)),
            (StatsCollector, "analyze",
             self._wrap("stats.analyze", StatsCollector.analyze, arg=stats_name,
                        rows=lambda a, kw, out: out)),
            (StatsCollector, "record",
             self._wrap("stats.record", StatsCollector.record, arg=stats_name,
                        rows=lambda a, kw, out: a[2])),
            (F, "broadcast", self._broadcast(F.broadcast)),
        ] + [
            (DataFrame, attr, self._wrap(f"spark.{label}", getattr(DataFrame, attr), group=True))
            for attr, label in (
                ("localCheckpoint", "checkpoint"),
                ("count", "count"),
                ("collect", "collect"),
                ("toPandas", "toPandas"),
            )
        ]
        saved = [(owner, name, owner.__dict__[name]) for owner, name, _ in targets]
        try:
            for owner, name, fn in targets:
                setattr(owner, name, fn)
            yield self
        finally:
            for owner, name, fn in saved:
                setattr(owner, name, fn)

    def _collect_jobs(self, eval_id: int) -> None:
        tracker = self.sc.statusTracker()
        for sp in self.of_eval(eval_id):
            if sp.group is None:
                continue
            job_ids = tracker.getJobIdsForGroup(sp.group)
            sp.jobs = len(job_ids)
            for jid in job_ids:
                job = tracker.getJobInfo(jid)
                for sid in job.stageIds if job else ():
                    stage = tracker.getStageInfo(sid)
                    sp.tasks += stage.numTasks if stage else 0

    def of_eval(self, eval_id: int) -> list[Span]:
        return [s for s in self.spans if s.eval_id == eval_id]


# -- derived numbers -------------------------------------------------------


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of it that child spans cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(s.id, []), key=lambda c: c.start):
            lo, hi = max(c.start, reach, s.start), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = s.dur - covered
    return out


def _ancestors(by_id: dict[int, Span], s: Span):
    p = s.parent
    while p is not None:
        yield by_id[p]
        p = by_id[p].parent


def _top(spans: list[Span], prefix: str) -> list[Span]:
    """Spans under ``prefix`` with no ancestor under the same prefix."""
    by_id = {s.id: s for s in spans}
    return [
        s for s in spans
        if s.name.startswith(prefix)
        and not any(a.name.startswith(prefix) for a in _ancestors(by_id, s))
    ]


def layer_metrics(tracer: Tracer, eval_id: int, metrics) -> dict[str, float]:
    """Per-layer numbers of one traced evaluation (``metrics`` is the
    engine's ``EngineMetrics`` after that evaluation)."""
    spans = tracer.of_eval(eval_id)
    root = spans[0]
    ev = next(s for s in spans if s.name == "engine.evaluate")
    selft = self_times(spans)
    named = lambda n: [s for s in spans if s.name == n]  # noqa: E731
    total = lambda ss: sum(s.dur for s in ss)  # noqa: E731

    plan_calls = [s for s in spans if s.name in (
        "compiler.compile_rule_body", "compiler.project_head", "compiler.apply_aggregation")]
    first_work = min((s.start for s in plan_calls + named("pbme.match_program")),
                     default=ev.end)

    # useful/attempted: Σ|ΔR| over Σ|Rδ| for the iterations that analyzed Rδ
    rdelta = delta_after = 0
    pending: set[str] = set()
    for s in spans:
        if s.name == "stats.analyze" and s.arg.startswith("Rδ") and s.rows is not None:
            rdelta += s.rows
            pending.add(s.arg[2:])
        elif s.name == "stats.record" and s.arg.startswith("Δ") and s.arg[1:] in pending:
            delta_after += s.rows
            pending.discard(s.arg[1:])

    by_id = {s.id: s for s in spans}
    counts = named("spark.count")
    analyze_counts = [
        s for s in counts if any(a.name == "stats.analyze" for a in _ancestors(by_id, s))
    ]
    plain_counts = [s for s in counts if s not in analyze_counts]
    checkpoints = named("spark.checkpoint")
    jobs = sum(s.jobs for s in spans)
    iterations = sum(metrics.iterations.values())
    pbme_s = total(_top(spans, "pbme."))
    dedups = named("dedup.dedup")
    fast = {s.parent for s in named("dedup.with_compact_key")}
    methods = Counter(s.arg for s in named("setdiff.set_difference"))
    return {
        "compiler.plan_s": total(_top(spans, "compiler.")),
        "compiler.plans": len(plan_calls),
        "compiler.broadcast_hints": tracer.broadcast_hints[eval_id],
        "engine.load_s": first_work - ev.start,
        "engine.self_s": selft[ev.id],
        "engine.iterations": iterations,
        "engine.delta_rows": sum(s.rows for s in named("stats.record") if s.arg.startswith("Δ")),
        "engine.new_fraction": delta_after / rdelta if rdelta else 0.0,
        "stats.busy_s": total(_top(spans, "stats.")),
        "stats.analyze_calls": len(named("stats.analyze")),
        "dedup.fast_calls": sum(1 for s in dedups if s.id in fast),
        "dedup.generic_calls": sum(1 for s in dedups if s.id not in fast),
        "setdiff.opsd_calls": methods["opsd"],
        "setdiff.tpsd_calls": methods["tpsd"],
        "pbme.busy_s": pbme_s,
        "pbme.pack_share": total(named("pbme.pack_matrix")) / pbme_s if pbme_s else 0.0,
        "pbme.result_rows": sum(metrics.final_counts.values()) if metrics.pbme_used else 0,
        "spark.checkpoint_s": total(checkpoints),
        "spark.checkpoint_calls": len(checkpoints),
        "spark.count_s": total(plain_counts),
        "spark.count_calls": len(plain_counts),
        "spark.jobs": jobs,
        "spark.jobs_per_iteration": jobs / max(iterations, 1),
        "spark.jobs.checkpoint": sum(s.jobs for s in checkpoints),
        "spark.jobs.analyze": sum(s.jobs for s in analyze_counts),
        "spark.jobs.count": sum(s.jobs for s in plain_counts),
        "spark.jobs.other": jobs - sum(s.jobs for s in checkpoints + counts),
        "spark.tasks": sum(s.tasks for s in spans),
        "trace.eval_s": root.dur,
        "trace.self_sum_s": sum(selft.values()),
        "trace.spans": len(spans),
    }


def invariant_violations(tracer: Tracer, eval_id: int, metrics, set_idbs) -> list[str]:
    """Checks that tie the trace to the engine's own counters."""
    spans = tracer.of_eval(eval_id)
    by_id = {s.id: s for s in spans}
    bad = []
    for s in spans:
        if s.end < s.start:
            bad.append(f"span {s.name}#{s.id} ends before it starts")
        if s.parent is not None:
            p = by_id[s.parent]
            if s.start < p.start or s.end > p.end:
                bad.append(f"span {s.name}#{s.id} lies outside its parent {p.name}#{p.id}")
    root = spans[0]
    if abs(sum(self_times(spans).values()) - root.dur) > 1e-6:
        bad.append("self times do not add up to the evaluation time")
    analyze_calls = sum(1 for s in spans if s.name == "stats.analyze")
    if analyze_calls != metrics.analyze_calls:
        bad.append(f"stats.analyze spans {analyze_calls} != engine analyze_calls "
                   f"{metrics.analyze_calls}")
    methods = Counter(s.arg for s in spans if s.name == "setdiff.set_difference")
    if methods != Counter(metrics.setdiff_choices):
        bad.append(f"set_difference methods {dict(methods)} != engine setdiff_choices "
                   f"{dict(Counter(metrics.setdiff_choices))}")
    for pred in set_idbs:
        deltas = sum(s.rows for s in spans if s.name == "stats.record" and s.arg == f"Δ{pred}")
        if deltas != metrics.final_counts.get(pred):
            bad.append(f"Σ Δ{pred} = {deltas} != final rows {metrics.final_counts.get(pred)}")
    return bad
