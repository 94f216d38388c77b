"""pytest-benchmark harness for the optimization ablation (Figure 2 as
a table): RecStep on CSPA with each Section 5 optimization turned off.

The paper normalizes against RecStep-NO-OP (all optimizations off =
100%); the percentages are recorded in EXPERIMENTS.md from these runs.
"""
import time

import pytest

from repro import synth_data
from repro.core import RecStepEngine, RecStepOptions
from repro.datalog import programs

CONFIGS = {
    "all_on": RecStepOptions.all_on(),
    "no_uie": RecStepOptions().without("uie"),
    "oof_na": RecStepOptions().without("oof"),
    "oof_fa": RecStepOptions().without("oof-fa"),
    "no_dsd": RecStepOptions().without("dsd"),
    "no_eost": RecStepOptions().without("eost"),
    "no_fast_dedup": RecStepOptions().without("fast_dedup"),
    "all_off": RecStepOptions.all_off(),
}

PAPER_PERCENT_OF_NOOP = {"all_on": 24.0, "oof_na": 63.0, "oof_fa": 41.0, "all_off": 100.0}


@pytest.fixture(scope="module")
def cspa_edb(spark):
    edb = synth_data.cspa_input(scale=0.5, seed=50)
    return {k: spark.createDataFrame(v).localCheckpoint() for k, v in edb.items()}


@pytest.mark.parametrize("config", list(CONFIGS), ids=list(CONFIGS))
def test_ablation_cspa(benchmark, spark, cspa_edb, config):
    program = programs.get_program("cspa")
    counts = {}

    def run():
        engine = RecStepEngine(spark, CONFIGS[config])
        out = engine.evaluate(program, cspa_edb)
        counts.update({k: df.count() for k, df in out.items()})

    benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info.update(
        {
            "config": config,
            "paper_percent_of_noop": PAPER_PERCENT_OF_NOOP.get(config),
            "result_counts": counts,
        }
    )
    # Every configuration computes the same fixpoint.
    assert counts["valueFlow"] > 0
