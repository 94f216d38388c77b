"""Datalog -> DataFrame compiler tests, oracle-checked against DuckDB."""
import pandas as pd
import pytest

from repro.core.compiler import (
    CompileError,
    apply_aggregation,
    compile_rule_body,
    normalize_edb,
    project_head,
)
from repro.core.stats import StatsCollector
from repro.datalog.parser import parse_rule
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def rels(spark):
    e_pdf = pd.DataFrame({"src": [0, 0, 1, 2, 3], "dst": [1, 2, 2, 3, 0]})
    f_pdf = pd.DataFrame({"a": [1, 2], "b": [10, 20]})
    return {
        "e": normalize_edb(spark.createDataFrame(e_pdf), 2).localCheckpoint(),
        "f": normalize_edb(spark.createDataFrame(f_pdf), 2).localCheckpoint(),
    }, e_pdf, f_pdf


def run_rule(spark, rule_text, rels, types=("long", "long")):
    rule = parse_rule(rule_text)
    body = compile_rule_body(rule, rels)
    return project_head(rule, body, types=types, spark=spark)


class TestNormalizeEdb:
    def test_renames_positionally(self, spark):
        df = normalize_edb(
            spark.createDataFrame(pd.DataFrame({"x": [1], "y": [2]})), 2
        )
        assert df.columns == ["c0", "c1"]

    def test_dedups(self, spark):
        df = normalize_edb(
            spark.createDataFrame(pd.DataFrame({"x": [1, 1], "y": [2, 2]})), 2
        )
        assert df.count() == 1

    def test_wrong_arity(self, spark):
        with pytest.raises(CompileError):
            normalize_edb(spark.createDataFrame(pd.DataFrame({"x": [1]})), 2)


class TestSingleRuleCompilation:
    def test_copy_rule(self, spark, rels):
        r, e_pdf, _ = rels
        out = run_rule(spark, "p(x, y) :- e(x, y).", r)
        assert_equivalent(
            out, "SELECT DISTINCT src AS c0, dst AS c1 FROM e", e=e_pdf
        )

    def test_swap_projection(self, spark, rels):
        r, e_pdf, _ = rels
        out = run_rule(spark, "p(y, x) :- e(x, y).", r)
        assert_equivalent(
            out, "SELECT DISTINCT dst AS c0, src AS c1 FROM e", e=e_pdf
        )

    def test_self_join(self, spark, rels):
        r, e_pdf, _ = rels
        out = run_rule(spark, "p(x, z) :- e(x, y), e(y, z).", r)
        assert_equivalent(
            out,
            "SELECT a.src AS c0, b.dst AS c1 FROM e a JOIN e b ON a.dst = b.src",
            e=e_pdf,
        )

    def test_constant_filter(self, spark, rels):
        r, e_pdf, _ = rels
        out = run_rule(spark, "p(y, y) :- e(0, y).", r)
        assert_equivalent(
            out,
            "SELECT dst AS c0, dst AS c1 FROM e WHERE src = 0",
            e=e_pdf,
        )

    def test_condition(self, spark, rels):
        r, e_pdf, _ = rels
        out = run_rule(spark, "p(x, y) :- e(x, y), x < y.", r)
        assert_equivalent(
            out,
            "SELECT src AS c0, dst AS c1 FROM e WHERE src < dst",
            e=e_pdf,
        )

    def test_negation(self, spark, rels):
        r, e_pdf, _ = rels
        out = run_rule(spark, "p(x, y) :- e(x, y), !e(y, x).", r)
        assert_equivalent(
            out,
            """SELECT src AS c0, dst AS c1 FROM e
               WHERE NOT EXISTS (
                 SELECT 1 FROM e e2 WHERE e2.src = e.dst AND e2.dst = e.src)""",
            e=e_pdf,
        )

    def test_cross_join(self, spark, rels):
        r, e_pdf, f_pdf = rels
        out = run_rule(spark, "p(x, a) :- e(x, 1), f(a, 20).", r)
        assert_equivalent(
            out,
            """SELECT e.src AS c0, f.a AS c1 FROM e, f
               WHERE e.dst = 1 AND f.b = 20""",
            e=e_pdf,
            f=f_pdf,
        )

    def test_constant_head(self, spark, rels):
        r, e_pdf, _ = rels
        out = run_rule(spark, "p(x, 99) :- e(x, 1).", r)
        assert_equivalent(
            out,
            "SELECT src AS c0, 99 AS c1 FROM e WHERE dst = 1",
            e=e_pdf,
        )

    def test_fact_rule(self, spark, rels):
        r, _, _ = rels
        out = run_rule(spark, "p(7, 8).", r)
        assert [tuple(x) for x in out.collect()] == [(7, 8)]

    def test_repeated_var_in_atom(self, spark, rels):
        r, e_pdf, _ = rels
        # add a self loop to exercise it
        out = run_rule(spark, "p(x, x) :- e(x, x).", r)
        assert out.count() == 0  # no self loops in fixture

    def test_existence_guard_atom(self, spark, rels):
        r, e_pdf, f_pdf = rels
        out = run_rule(spark, "p(x, y) :- e(x, y), f(1, 10).", r)
        assert out.count() == 5  # guard satisfied -> e passes through
        out2 = run_rule(spark, "p(x, y) :- e(x, y), f(1, 99).", r)
        assert out2.count() == 0  # guard fails -> empty

    def test_delta_substitution(self, spark, rels):
        r, e_pdf, _ = rels
        rule = parse_rule("p(x, z) :- e(x, y), e(y, z).")
        delta = r["e"].filter("c0 = 0")
        body = compile_rule_body(rule, r, delta_idx=0, delta=delta, delta_name="Δe")
        out = project_head(rule, body, types=("long", "long"), spark=spark)
        assert_equivalent(
            out,
            """SELECT a.src AS c0, b.dst AS c1 FROM e a JOIN e b ON a.dst = b.src
               WHERE a.src = 0""",
            e=e_pdf,
        )

    def test_negated_unshared_rejected(self, spark, rels):
        r, _, _ = rels
        rule = parse_rule("p(x, y) :- e(x, y), !f(a, b).")
        # unsafe per analyzer, and the compiler independently rejects it
        with pytest.raises(CompileError):
            compile_rule_body(rule, r)


class TestBroadcastHints:
    def test_small_side_broadcast_in_plan(self, spark, rels):
        r, e_pdf, f_pdf = rels
        rule = parse_rule("p(x, z) :- e(x, y), f(y, z).")
        stats = StatsCollector("oof")
        stats.analyze("e", r["e"], len(e_pdf))
        stats.analyze("f", r["f"], len(f_pdf))
        body = compile_rule_body(rule, r, stats=stats, broadcast_rows=100)
        plan = body._jdf.queryExecution().executedPlan().toString()
        assert "Broadcast" in plan

    def test_na_mode_no_broadcast(self, spark, rels):
        r, _, _ = rels
        rule = parse_rule("p(x, z) :- e(x, y), f(y, z).")
        stats = StatsCollector("na")
        body = compile_rule_body(rule, r, stats=stats, broadcast_rows=100)
        plan = body._jdf.queryExecution().executedPlan().toString()
        assert "BroadcastHashJoin" not in plan

    def test_big_side_not_broadcast(self, spark, rels):
        r, _, _ = rels
        rule = parse_rule("p(x, z) :- e(x, y), f(y, z).")
        stats = StatsCollector("oof")
        stats.record("e", 10**7)
        stats.record("f", 10**7)
        body = compile_rule_body(rule, r, stats=stats, broadcast_rows=100)
        plan = body._jdf.queryExecution().executedPlan().toString()
        assert "BroadcastHashJoin" not in plan


class TestAggregation:
    def test_count(self, spark, rels):
        r, e_pdf, _ = rels
        rule = parse_rule("g(x, COUNT(y)) :- e(x, y).")
        body = compile_rule_body(rule, r)
        pre = project_head(rule, body, types=("long", "long"), spark=spark)
        out = apply_aggregation(
            pre.dropDuplicates(), (0,), 1, "COUNT", out_type="long"
        )
        assert_equivalent(
            out,
            "SELECT src AS c0, COUNT(DISTINCT dst) AS c1 FROM e GROUP BY src",
            e=e_pdf,
        )

    def test_global_min(self, spark, rels):
        r, e_pdf, _ = rels
        rule = parse_rule("g(MIN(y)) :- e(x, y).")
        body = compile_rule_body(rule, r)
        pre = project_head(rule, body, types=("long",), spark=spark)
        out = apply_aggregation(pre, (), 0, "MIN", out_type="long")
        assert [tuple(x) for x in out.collect()] == [(0,)]

    def test_sum_with_arithmetic_expr(self, spark, rels):
        r, e_pdf, _ = rels
        rule = parse_rule("g(x, SUM(x + y)) :- e(x, y).")
        body = compile_rule_body(rule, r)
        pre = project_head(rule, body, types=("long", "long"), spark=spark)
        out = apply_aggregation(pre, (0,), 1, "SUM", out_type="long")
        assert_equivalent(
            out,
            "SELECT src AS c0, SUM(src + dst) AS c1 FROM e GROUP BY src",
            e=e_pdf,
        )
