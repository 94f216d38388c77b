"""The RecStep interpreter: Algorithm 1 of the paper on Spark SQL.

One semi-naive loop per stratum (in stratification order), shared by
set and MIN/MAX-meld semantics; iteration 0 is the same step over every
rule, and a non-recursive stratum is iteration 0 alone:

    first <- true
    while first or (stratum is recursive and some ΔR ≠ ∅):
      for each IDB R in the stratum:
        R_t <- uieval(rules(R))       # UIE; Δ-rewrites after iteration 0
        C   <- dedup(R_t)             # FAST-DEDUP (a meld skips it)
        C   <- aggregate(C)           # aggregate IDBs only
        if first:   R <- ΔR <- C; analyze(R)
        elif meld:  ΔR <- groups of C that improve on R; R <- R ⊕ ΔR
        else:       Rδ <- C; analyze(Rδ)       # OOF breakpoint
                    ΔR <- Rδ - R               # DSD: OPSD or TPSD
                    R  <- R ∪ ΔR
      first <- false

The meld (R ⊕ ΔR keeps each group's best value) is the recursive
aggregation of CC/SSSP. Around the loop: the EOST materialization policy
(in-memory ``localCheckpoint`` vs per-iteration Parquet commit) and the
PBME fast path for TC/SG-shaped programs (Section 5.3).

Spark specifics: every per-iteration state frame is materialized with a
truncated lineage (``localCheckpoint``) so plans do not grow across
iterations, and — because the session disables automatic broadcast —
all broadcasts are explicit OOF decisions. Every row count the loop
needs (|Rδ| for ``analyze`` and DSD, |ΔR| for termination, |R|, the EDB
sizes and domain bounds, the final counts) is observed on the action
that materializes the frame, so no Spark job runs just to count.
"""
from __future__ import annotations

import shutil
import tempfile
import uuid
from dataclasses import dataclass, field

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core import pbme
from repro.core.compiler import (
    apply_aggregation,
    column_types,
    compile_rule_body,
    empty_relation,
    normalize_edb,
    positional_columns,
    project_head,
)
from repro.core.dedup import dedup
from repro.core.options import RecStepOptions
from repro.core.setdiff import choose_set_difference, set_difference
from repro.core.stats import StatsCollector, observed
from repro.datalog.analyzer import AnalyzedProgram, Stratum, analyze as analyze_program
from repro.datalog.ast import AggTerm, BinExpr, Const, Program

_INTEGRAL = ("bigint", "int", "smallint", "tinyint")


@dataclass
class EngineMetrics:
    """Observable evaluation behaviour, used by tests and benchmarks."""

    iterations: dict[str, int] = field(default_factory=dict)
    setdiff_choices: list[str] = field(default_factory=list)
    analyze_calls: int = 0
    pbme_used: bool = False
    final_counts: dict[str, int] = field(default_factory=dict)


class RecStepEngine:
    """General-purpose Datalog engine over a SparkSession backend."""

    def __init__(self, spark: SparkSession, options: RecStepOptions | None = None):
        self.spark = spark
        self.options = options or RecStepOptions()
        self.metrics = EngineMetrics()
        self._commit_dir: str | None = None

    # ------------------------------------------------------------------
    def evaluate(
        self,
        program_or_analyzed: Program | AnalyzedProgram,
        edb: dict[str, DataFrame],
    ) -> dict[str, DataFrame]:
        """Evaluate the program over the EDB frames; returns IDB frames
        with positional columns ``c0..``. Inputs may have any column
        names (taken positionally) and are deduplicated on entry."""
        analyzed = (
            program_or_analyzed
            if isinstance(program_or_analyzed, AnalyzedProgram)
            else analyze_program(program_or_analyzed)
        )
        self.metrics = EngineMetrics()
        opts = self.options
        stats = StatsCollector(opts.oof)

        rels: dict[str, DataFrame] = {}
        # The compact dedup key and PBME need a bound on every value an
        # IDB can hold: the EDB maximum, widened to the head constants;
        # None when a negative value or a computed head value rules
        # packing out.
        domain_bound = _head_bound(analyzed.program)
        for pred in analyzed.edbs:
            if pred not in edb:
                raise ValueError(f"missing EDB relation {pred!r}")
            rels[pred], rows, bound = _load_edb(
                normalize_edb(edb[pred], analyzed.arities[pred])
            )
            stats.record(pred, rows)
            if bound is None or domain_bound is None:
                domain_bound = None
            else:
                domain_bound = max(domain_bound, bound)
        self._domain_bound = domain_bound

        types = analyzed.infer_types({p: column_types(rels[p]) for p in analyzed.edbs})

        self._commit_dir = None if opts.eost else tempfile.mkdtemp(prefix="recstep_commits_")

        try:
            # PBME fast path (Section 5.3): TC/SG-shaped program over a
            # small enough active domain.
            if opts.pbme and domain_bound is not None:
                shape = pbme.match_program(analyzed)
                if shape is not None and domain_bound + 1 <= opts.pbme_max_vertices:
                    df, rows = pbme.evaluate(
                        self.spark, shape, rels, n=int(domain_bound) + 1
                    )
                    self.metrics.pbme_used = True
                    self.metrics.final_counts[shape.idb] = rows
                    return {shape.idb: df}

            for pred in analyzed.idbs:
                rels[pred] = empty_relation(self.spark, types[pred])
                stats.record(pred, 0)

            for stratum in analyzed.strata:
                self._evaluate_stratum(analyzed, stratum, rels, stats, types)

            self.metrics.analyze_calls = stats.analyze_calls
            out = {}
            for pred in analyzed.idbs:
                df = rels[pred]
                if not opts.eost:
                    # The commit directory is deleted below; pin the final
                    # result in memory before handing it back.
                    df = df.localCheckpoint(eager=True)
                out[pred] = df
                self.metrics.final_counts[pred] = stats.rows(pred)
            return out
        finally:
            if self._commit_dir is not None:
                shutil.rmtree(self._commit_dir, ignore_errors=True)
                self._commit_dir = None

    # -- helpers ---------------------------------------------------------
    def _materialize(self, df: DataFrame, name: str) -> tuple[DataFrame, int]:
        """EOST on: keep in memory; EOST off: commit to Parquet and read
        back — the per-query transaction I/O RecStep removes. Returns the
        materialized frame and its row count, observed on that action."""
        df, obs = observed(df)
        if self.options.eost:
            out = df.localCheckpoint(eager=True)
        else:
            assert self._commit_dir is not None
            path = f"{self._commit_dir}/{name}_{uuid.uuid4().hex}"
            df.write.mode("overwrite").parquet(path)
            out = self.spark.read.parquet(path)
        return out, obs.get["rows"]

    def _uieval(self, parts: list[DataFrame], types: tuple[str, ...]) -> DataFrame:
        """UNION ALL of the subqueries deriving one IDB.

        UIE on: a single lazy unioned plan, evaluated as one query (all
        subqueries share the scan/broadcast work and the cores).
        UIE off: each subquery is materialized separately (its own query
        with its own overhead), then the results are appended.
        """
        if not parts:
            return empty_relation(self.spark, types)
        if not self.options.uie:
            parts = [self._materialize(p, "subquery")[0] for p in parts]
        out = parts[0]
        for p in parts[1:]:
            out = out.union(p)
        return out

    # -- rule evaluation --------------------------------------------------
    def _eval_rules(
        self,
        stratum: Stratum,
        pred: str,
        rels: dict[str, DataFrame],
        stats: StatsCollector,
        types: dict[str, tuple[str, ...]],
        deltas: dict[str, DataFrame] | None,
    ) -> list[DataFrame]:
        """The subqueries deriving ``pred``. With ``deltas=None``, every
        rule over the current relations. Otherwise the semi-naive
        Δ-rewrites: one subquery per same-stratum body atom whose ΔR is in
        ``deltas`` (the non-empty ones), the union-of-subqueries
        construction of Section 3.2 / Figure 4."""
        parts = []
        for rule in stratum.rules:
            if rule.head.pred != pred:
                continue
            if deltas is None:
                rewrites = [{}]
            else:
                rewrites = [
                    {"delta_idx": i, "delta": deltas[a.pred], "delta_name": f"Δ{a.pred}"}
                    for i, a in enumerate(rule.positive_body)
                    if a.pred in deltas
                ]
            for rewrite in rewrites:
                body = compile_rule_body(
                    rule, rels, stats=stats, broadcast_rows=self.options.broadcast_rows,
                    **rewrite,
                )
                parts.append(project_head(rule, body, types=types[pred], spark=self.spark))
        return parts

    # -- strata -------------------------------------------------------------
    def _evaluate_stratum(
        self,
        analyzed: AnalyzedProgram,
        stratum: Stratum,
        rels: dict[str, DataFrame],
        stats: StatsCollector,
        types: dict[str, tuple[str, ...]],
    ) -> None:
        """Algorithm 1 on one stratum. Iteration 0 evaluates every rule
        over the current relations and takes the candidates as both R and
        ΔR; a non-recursive stratum stops there. Each later iteration
        evaluates the Δ-rewrites and folds the candidates into R with set
        (:meth:`_set_step`) or meld (:meth:`_meld_step`) semantics, until
        every ΔR of the stratum is empty."""
        deltas: dict[str, DataFrame] = {}  # the non-empty ΔR of the last step
        mu_prev: dict[str, float | None] = {}
        first = True
        while first or (stratum.recursive and deltas):
            for pred in sorted(stratum.predicates):
                parts = self._eval_rules(
                    stratum, pred, rels, stats, types, None if first else deltas
                )
                raw = self._uieval(parts, types[pred])
                # Candidates: deduplicated tuples for set IDBs; one row per
                # group with its best value for aggregates (a meld takes
                # MIN/MAX over every derivation, so it skips the dedup).
                cand = raw if pred in analyzed.meld_idbs else dedup(
                    raw, fast=self.options.fast_dedup, max_value=self._domain_bound
                )
                if pred in analyzed.agg_specs:
                    spec = analyzed.agg_specs[pred]
                    cand = apply_aggregation(
                        cand,
                        spec.group_positions,
                        spec.agg_position,
                        spec.op,
                        out_type=types[pred][spec.agg_position],
                    )
                if first:
                    rels[pred], rows = self._materialize(cand, pred)
                    delta, delta_rows = rels[pred], rows
                elif pred in analyzed.meld_idbs:
                    rels[pred], rows, delta, delta_rows = self._meld_step(
                        analyzed, pred, rels[pred], cand
                    )
                else:
                    rels[pred], rows, delta, delta_rows = self._set_step(
                        pred, rels[pred], cand, stats, mu_prev
                    )
                # |R| is known in every OOF mode: DSD and the final counts
                # need it, analyze() or not.
                stats.record(pred, rows)
                if first:
                    stats.analyze(pred, rels[pred], rows)
                stats.record(f"Δ{pred}", delta_rows)
                if delta_rows:
                    deltas[pred] = delta
                else:
                    deltas.pop(pred, None)
                self.metrics.iterations[pred] = self.metrics.iterations.get(pred, 0) + 1
            first = False

    def _set_step(
        self,
        pred: str,
        current: DataFrame,
        cand: DataFrame,
        stats: StatsCollector,
        mu_prev: dict[str, float | None],
    ) -> tuple[DataFrame, int, DataFrame, int]:
        """Set semantics: Rδ = dedup'd candidates, analyze(Rδ, R), ΔR =
        Rδ - R (DSD: OPSD or TPSD), R ∪ ΔR; returns the new R and ΔR, each
        with its row count. Updates ``mu_prev[pred]`` for the next DSD
        decision."""
        opts = self.options
        r_delta, new_rows = self._materialize(cand, f"{pred}_rdelta")
        stats.analyze(f"Rδ{pred}", r_delta, new_rows)
        full_rows = stats.rows(pred)
        if opts.dsd:
            method = choose_set_difference(
                full_rows, new_rows, opts.alpha, mu_prev.get(pred)
            ).method
        else:
            method = "opsd"
        self.metrics.setdiff_choices.append(method)
        delta = set_difference(
            r_delta,
            current,
            method=method,
            broadcast_threshold_rows=opts.broadcast_rows,
            new_rows=new_rows,
            # OOF-NA issues no broadcast hints, OPSD's included.
            full_rows=full_rows if opts.oof != "na" else None,
        )
        delta, delta_rows = self._materialize(delta, f"{pred}_delta")
        # μ = |Rδ| / |r| where r = Rδ ∩ R = Rδ - ΔR.
        overlap = new_rows - delta_rows
        mu_prev[pred] = (new_rows / overlap) if overlap > 0 else None
        if delta_rows == 0:
            return current, full_rows, delta, 0
        merged, rows = self._materialize(current.union(delta), pred)
        return merged, rows, delta, delta_rows

    def _meld_step(
        self,
        analyzed: AnalyzedProgram,
        pred: str,
        current: DataFrame,
        cand: DataFrame,
    ) -> tuple[DataFrame, int, DataFrame, int]:
        """MIN/MAX meld for recursive aggregation (CC, SSSP) over the
        aggregated candidates; returns the new R and ΔR, each with its
        row count.

        ΔR = candidate groups whose best value strictly improves on (or
        is absent from) the current relation; R keeps one row per group
        with the running best. This is the monotonic-aggregate semantics
        of [12] the paper adopts for recursive aggregation.
        """
        spec = analyzed.agg_specs[pred]
        val = f"c{spec.agg_position}"
        group = [f"c{i}" for i in spec.group_positions]
        old = current.withColumnRenamed(val, "__old")
        joined = cand.join(old, on=group, how="left")
        if spec.op == "MIN":
            improved = joined.filter(
                F.col("__old").isNull() | (F.col(val) < F.col("__old"))
            )
        else:
            improved = joined.filter(
                F.col("__old").isNull() | (F.col(val) > F.col("__old"))
            )
        delta, delta_rows = self._materialize(
            improved.select(*positional_columns(len(group) + 1)), f"{pred}_delta"
        )
        # Merge: groups not improved keep their old row.
        merged = (
            current.join(delta.select(*group), on=group, how="left_anti")
            .union(delta)
        )
        new_rel, rows = self._materialize(merged, pred)
        return new_rel, rows, delta, delta_rows


def _load_edb(df: DataFrame) -> tuple[DataFrame, int, int | None]:
    """Checkpoint an EDB frame; returns it, its row count and its domain
    bound, all observed on the checkpoint. The bound is the maximum over
    integral columns if all are non-negative (the active-domain bound
    the compact dedup key needs), ``None`` when any integral value is
    negative (packing would smear sign bits) or any column holds strings
    (no integer domain to pack or to index a bit matrix with), and 0 for
    frames without integral values (nothing to pack there)."""
    int_cols = [c for c, t in df.dtypes if t in _INTEGRAL]
    df, obs = observed(
        df,
        *(F.min(c).alias(f"mn_{c}") for c in int_cols),
        *(F.max(c).alias(f"mx_{c}") for c in int_cols),
    )
    df = df.localCheckpoint()
    seen = obs.get
    minima = [seen[f"mn_{c}"] for c in int_cols if seen[f"mn_{c}"] is not None]
    maxima = [seen[f"mx_{c}"] for c in int_cols if seen[f"mx_{c}"] is not None]
    if "string" in column_types(df) or (minima and min(minima) < 0):
        return df, seen["rows"], None
    return df, seen["rows"], int(max(maxima, default=0))


def _head_bound(program: Program) -> int | None:
    """Largest integer constant a rule head emits (0 if none). ``None``
    if one is negative, or if a head computes a value — arithmetic or a
    COUNT/SUM aggregate — since no load-time bound covers those."""
    consts = []
    for rule in program.rules:
        for t in rule.head.terms:
            if isinstance(t, AggTerm):
                if t.op in ("COUNT", "SUM"):
                    return None
                t = t.expr
            if isinstance(t, BinExpr):
                return None
            if isinstance(t, Const):
                consts.append(t.value)
    if consts and min(consts) < 0:
        return None
    return max(consts, default=0)
