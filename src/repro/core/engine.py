"""The RecStep interpreter: Algorithm 1 of the paper on Spark SQL.

Per stratum (in stratification order), semi-naive evaluation:

    repeat
      for each IDB R in the stratum:
        R_t  <- uieval(rules(R, s))        # UIE: one unioned plan
        analyze(R_t)                       # OOF breakpoint
        Rδ   <- dedup(R_t)                 # FAST-DEDUP
        analyze(Rδ, R)                     # OOF breakpoint
        ΔR   <- Rδ - R                     # DSD: OPSD or TPSD
        R    <- R ∪ ΔR
    until ∀R: ΔR = ∅

plus the EOST materialization policy (in-memory ``localCheckpoint`` vs
per-iteration Parquet commit), MIN/MAX meld semantics for recursive
aggregation (CC/SSSP), and the PBME fast path for TC/SG-shaped programs
(Section 5.3).

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
    compile_rule_body,
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

        edb_types = {
            p: tuple(
                "double" if t in ("double", "float") else ("string" if t == "string" else "long")
                for _, t in rels[p].dtypes
            )
            for p in analyzed.edbs
        }
        types = analyzed.infer_types(edb_types)

        if opts.eost:
            self._commit_dir = None
        else:
            self._commit_dir = tempfile.mkdtemp(prefix="recstep_commits_")

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
                rels[pred] = self._empty(analyzed.arities[pred], types[pred])
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
    def _empty(self, arity: int, types: tuple[str, ...]) -> DataFrame:
        schema = ", ".join(
            f"c{i} {'DOUBLE' if types[i] == 'double' else 'BIGINT'}"
            for i in range(arity)
        )
        return self.spark.createDataFrame([], schema)

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

    def _uieval(
        self,
        parts: list[DataFrame],
        arity: int,
        types: tuple[str, ...],
    ) -> DataFrame:
        """UNION ALL of the subqueries deriving one IDB.

        UIE on: a single lazy unioned plan, evaluated as one query (all
        subqueries share the scan/broadcast work and the cores).
        UIE off: each subquery is materialized separately (its own query
        with its own overhead), then the results are appended.
        """
        if not parts:
            return self._empty(arity, types)
        if self.options.uie:
            out = parts[0]
            for p in parts[1:]:
                out = out.union(p)
            return out
        materialized = [self._materialize(p, "subquery")[0] for p in parts]
        out = materialized[0]
        for p in materialized[1:]:
            out = out.union(p)
        return out

    def _dedup(self, df: DataFrame) -> DataFrame:
        return dedup(
            df,
            fast=self.options.fast_dedup,
            max_value=self._domain_bound if self.options.fast_dedup else None,
        )

    def _set_diff(
        self,
        new: DataFrame,
        full: DataFrame,
        *,
        full_rows: int | None,
        new_rows: int | None,
        mu_prev: float | None,
    ) -> DataFrame:
        opts = self.options
        if opts.dsd and full_rows is not None and new_rows is not None:
            decision = choose_set_difference(full_rows, new_rows, opts.alpha, mu_prev)
            method = decision.method
        else:
            method = opts.static_setdiff
        self.metrics.setdiff_choices.append(method)
        return set_difference(
            new,
            full,
            method=method,
            broadcast_threshold_rows=opts.broadcast_rows,
            new_rows=new_rows,
            # OOF-NA issues no broadcast hints, OPSD's included.
            full_rows=full_rows if opts.oof != "na" else None,
        )

    # -- rule evaluation --------------------------------------------------
    def _eval_rules_full(
        self,
        analyzed: AnalyzedProgram,
        pred: str,
        rels: dict[str, DataFrame],
        stats: StatsCollector,
        types: dict[str, tuple[str, ...]],
    ) -> list[DataFrame]:
        """All rules for ``pred`` with current relation values (used for
        non-recursive strata and for iteration 0 of recursive strata)."""
        parts = []
        for rule in analyzed.program.rules_for(pred):
            body = compile_rule_body(
                rule, rels, stats=stats, broadcast_rows=self.options.broadcast_rows
            )
            parts.append(
                project_head(rule, body, types=types[pred], spark=self.spark)
            )
        return parts

    def _eval_rules_delta(
        self,
        analyzed: AnalyzedProgram,
        stratum: Stratum,
        pred: str,
        rels: dict[str, DataFrame],
        deltas: dict[str, DataFrame],
        delta_counts: dict[str, int],
        stats: StatsCollector,
        types: dict[str, tuple[str, ...]],
    ) -> list[DataFrame]:
        """Semi-naive Δ-rewrites: one subquery per same-stratum body atom
        (the union-of-subqueries construction of Section 3.2 / Figure 4)."""
        parts = []
        for rule in stratum.rules:
            if rule.head.pred != pred:
                continue
            rec_positions = [
                i
                for i, a in enumerate(rule.positive_body)
                if a.pred in stratum.predicates
            ]
            for i in rec_positions:
                atom_pred = rule.positive_body[i].pred
                if delta_counts.get(atom_pred) == 0:
                    continue
                body = compile_rule_body(
                    rule,
                    rels,
                    delta_idx=i,
                    delta=deltas[atom_pred],
                    delta_name=f"Δ{atom_pred}",
                    stats=stats,
                    broadcast_rows=self.options.broadcast_rows,
                )
                parts.append(
                    project_head(rule, body, types=types[pred], spark=self.spark)
                )
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
        preds = sorted(stratum.predicates)
        opts = self.options

        if not stratum.recursive:
            for pred in preds:
                parts = self._eval_rules_full(analyzed, pred, rels, stats, types)
                raw = self._uieval(parts, analyzed.arities[pred], types[pred])
                if pred in analyzed.agg_specs:
                    spec = analyzed.agg_specs[pred]
                    pre = self._dedup(raw)
                    out = apply_aggregation(
                        pre,
                        spec.group_positions,
                        spec.agg_position,
                        spec.op,
                        out_type=types[pred][spec.agg_position],
                    )
                else:
                    out = self._dedup(raw)
                rels[pred], rows = self._materialize(out, pred)
                stats.record(pred, rows)
                stats.analyze(pred, rels[pred], rows)
                self.metrics.iterations[pred] = 1
            return

        # --- recursive stratum -------------------------------------------
        deltas: dict[str, DataFrame] = {}
        delta_counts: dict[str, int] = {}
        mu_prev: dict[str, float | None] = {p: None for p in preds}

        # Iteration 0: same-stratum IDBs are empty, so only exit rules
        # contribute; R = ΔR = dedup(base facts).
        for pred in preds:
            parts = self._eval_rules_full(analyzed, pred, rels, stats, types)
            raw = self._uieval(parts, analyzed.arities[pred], types[pred])
            if pred in analyzed.meld_idbs:
                spec = analyzed.agg_specs[pred]
                best = apply_aggregation(
                    raw,
                    spec.group_positions,
                    spec.agg_position,
                    spec.op,
                    out_type=types[pred][spec.agg_position],
                )
                rels[pred], rows = self._materialize(best, pred)
            else:
                rels[pred], rows = self._materialize(self._dedup(raw), pred)
            deltas[pred] = rels[pred]
            delta_counts[pred] = rows
            # R = ΔR after iteration 0. Its size is known in every mode
            # (DSD and the final counts need it), analyze() or not.
            stats.record(pred, rows)
            stats.analyze(pred, rels[pred], rows)
            stats.record(f"Δ{pred}", rows)
            self.metrics.iterations[pred] = 1

        while any(delta_counts[p] > 0 for p in preds):
            for pred in preds:
                parts = self._eval_rules_delta(
                    analyzed, stratum, pred, rels, deltas, delta_counts, stats, types
                )
                raw = self._uieval(parts, analyzed.arities[pred], types[pred])
                if pred in analyzed.meld_idbs:
                    rels[pred], rows, deltas[pred], delta_counts[pred] = self._meld_step(
                        analyzed, pred, rels[pred], raw, types
                    )
                    stats.record(pred, rows)
                else:
                    # analyze(R_t) -> dedup -> analyze(Rδ, R) -> ΔR = Rδ - R
                    r_delta, new_rows = self._materialize(
                        self._dedup(raw), f"{pred}_rdelta"
                    )
                    stats.analyze(f"Rδ{pred}", r_delta, new_rows)
                    full_rows = stats.rows(pred)
                    delta = self._set_diff(
                        r_delta,
                        rels[pred],
                        full_rows=full_rows,
                        new_rows=new_rows,
                        mu_prev=mu_prev[pred],
                    )
                    delta, dcount = self._materialize(delta, f"{pred}_delta")
                    # μ = |Rδ| / |r| where r = Rδ ∩ R = Rδ - ΔR.
                    overlap = new_rows - dcount
                    mu_prev[pred] = (new_rows / overlap) if overlap > 0 else None
                    if dcount > 0:
                        rels[pred], rows = self._materialize(
                            rels[pred].union(delta), pred
                        )
                        stats.record(pred, rows)
                    deltas[pred] = delta
                    delta_counts[pred] = dcount
                stats.record(f"Δ{pred}", delta_counts[pred])
                self.metrics.iterations[pred] += 1

        self.metrics.analyze_calls = stats.analyze_calls

    def _meld_step(
        self,
        analyzed: AnalyzedProgram,
        pred: str,
        current: DataFrame,
        candidates_raw: DataFrame,
        types: dict[str, tuple[str, ...]],
    ) -> tuple[DataFrame, int, DataFrame, int]:
        """MIN/MAX meld for recursive aggregation (CC, SSSP); returns the
        new R and ΔR, each with its row count.

        ΔR = candidate groups whose best value strictly improves on (or
        is absent from) the current relation; R keeps one row per group
        with the running best. This is the monotonic-aggregate semantics
        of [12] the paper adopts for recursive aggregation.
        """
        spec = analyzed.agg_specs[pred]
        val = f"c{spec.agg_position}"
        group = [f"c{i}" for i in spec.group_positions]
        cand = apply_aggregation(
            candidates_raw,
            spec.group_positions,
            spec.agg_position,
            spec.op,
            out_type=types[pred][spec.agg_position],
        )
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
    negative (packing would smear sign bits), and 0 for frames without
    integral values (nothing to pack there)."""
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
    if minima and min(minima) < 0:
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
