"""OOF StatsCollector tests (modes oof / na / fa) and observed counts."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.stats import StatsCollector, observed


@pytest.fixture()
def df(spark):
    return spark.createDataFrame(pd.DataFrame({"c0": [1, 2, 3], "c1": [4, 5, 6]}))


class TestModes:
    def test_oof_counts(self, df):
        s = StatsCollector("oof")
        assert s.analyze("t", df, 3) == 3
        assert s.rows("t") == 3
        assert s.analyze_calls == 1
        assert s.tables["t"].column_stats == {}

    def test_na_collects_nothing(self, df):
        s = StatsCollector("na")
        assert s.analyze("t", df, 3) is None
        assert s.rows("t") is None
        assert s.analyze_calls == 0
        assert not s.enabled

    def test_fa_collects_full_stats(self, df):
        s = StatsCollector("fa")
        assert s.analyze("t", df, 3) == 3
        cs = s.tables["t"].column_stats
        assert cs["c0"] == {"min": 1, "max": 3, "avg": 2.0}
        assert s.analyze_calls == 2  # count + full scan

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            StatsCollector("bogus")


class TestRecordAndPrealloc:
    def test_record_without_action(self, df):
        s = StatsCollector("na")
        s.record("t", 42)
        assert s.rows("t") == 42
        assert s.analyze_calls == 0

    def test_latest_analyze_wins(self, spark, df):
        s = StatsCollector("oof")
        s.analyze("t", df, 3)
        s.analyze("t", df.limit(1), 1)
        assert s.rows("t") == 1


class TestObserved:
    def test_count_and_exprs_come_from_the_materializing_action(self, df):
        out, obs = observed(df.filter("c0 > 1"), F.max("c1").alias("mx"))
        out = out.localCheckpoint()
        assert obs.get == {"rows": 2, "mx": 6}
        assert out.count() == 2

    def test_empty_frame(self, spark):
        empty = spark.createDataFrame([], "c0 bigint")
        out, obs = observed(empty, F.min("c0").alias("mn"))
        out.localCheckpoint()
        assert obs.get == {"rows": 0, "mn": None}
