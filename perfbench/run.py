"""Time RecStep-on-Spark to fixpoint on one benchmark workload.

Run from the repository root:

    python3 perfbench/run.py --workload csda-chains --seed 42 --seconds 20 --trace 0

One run is one fresh local Spark session (``local[N]``, N = usable
cores) evaluating the workload's program with
``RecStepEngine(spark, RecStepOptions(pbme=True))``, the Table 4
configuration. Its steps:

1. set-up, twice: launch the JVM and start the session, generate the
   inputs from the seed, ``createDataFrame``. ``setup_s`` is the median;
2. the first evaluation in the last session (``cold_eval_s``), one warm-up
   evaluation, then warm evaluations until ``--seconds`` have passed since
   the cold one began, and at least ``MEASURED_WARM`` of them (``eval_s``
   is the median of the first ``MEASURED_WARM``). An evaluation's clock
   runs from ``evaluate(program, frames)`` until every returned IDB frame
   is counted;
3. off the clock: every evaluation's answer (row count plus an
   order-independent hash) is compared with an oracle that shares no
   code with the engine, and the engine must have taken (only on
   ``tc-pbme``) or skipped the PBME path.

With ``--trace 1`` the warm evaluations alternate between untraced and
traced (see ``spans.py``), and the run reports per-layer numbers instead
of end-to-end ones; ``trace.overhead`` compares the two kinds.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The line before it lists every
metric with its unit, ``fail_ratio`` included, and the provenance (cores,
memory, versions, Spark conf, engine options, seed). Spans and per-eval
figures go to ``.perfbench/<workload>-seed<seed>-trace<t>.json``.
The exit code is 0 only when every evaluation matched its oracle.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import asdict
from pathlib import Path

SETUP_ROUNDS = 2
#: eval_s is the median of this many untraced warm evaluations, always the
#: ones right after the warm-up: the JIT keeps speeding the engine up for
#: many evaluations, so a median over however many fit the window would
#: move with the machine's speed.
MEASURED_WARM = 2
DRIVER_MEMORY = "4g"
SHUFFLE_PARTITIONS = 64

END_TO_END_UNITS = {
    "eval_s": "s",
    "cold_eval_s": "s",
    "setup_s": "s",
    "mem_mb": "MB",
}


def _prepare_environment(root: Path) -> Path:
    """Point Python workers at ``src`` and keep scratch files in the checkout.

    Must run before pyspark is imported: the JVM reads its launch
    arguments from ``PYSPARK_SUBMIT_ARGS`` once.
    """
    src = root / "src"
    if not (src / "repro" / "core" / "engine.py").is_file():
        sys.exit(f"perfbench: no engine sources under {src}; run from the repository root")
    work = root / ".perfbench"
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    # The PBME path runs mapInPandas workers, which import ``repro``: they
    # see PYTHONPATH, not this process's sys.path.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    sys.path.insert(0, str(src))
    os.environ["TMPDIR"] = str(tmp)
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYSPARK_DRIVER_PYTHON"] = sys.executable
    # -XX:-UsePerfData: a JVM would otherwise write /tmp/hsperfdata_*; the
    # launcher JVM that spark-submit starts first reads SPARK_LAUNCHER_OPTS.
    java_opts = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["SPARK_LAUNCHER_OPTS"] = java_opts
    cores = len(os.sched_getaffinity(0))
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{cores}] --driver-memory {DRIVER_MEMORY} "
        f"--driver-java-options '{java_opts}' "
        f"--conf spark.local.dir={tmp} "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "pyspark-shell"
    )
    return work


def _session_conf() -> dict[str, str]:
    """The settings of the test fixture in ``conftest.py``."""
    return {
        "spark.sql.shuffle.partitions": str(SHUFFLE_PARTITIONS),
        "spark.sql.execution.arrow.pyspark.enabled": "true",
        "spark.sql.autoBroadcastJoinThreshold": "-1",
        "spark.ui.showConsoleProgress": "false",
    }


def _start_session():
    from pyspark.sql import SparkSession

    builder = SparkSession.builder.appName("perfbench")
    for k, v in _session_conf().items():
        builder = builder.config(k, v)
    spark = builder.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def _fingerprint(df) -> tuple[int, int, int]:
    """Row count and an order-independent hash of a frame's rows."""
    from pyspark.sql import functions as F

    cols = [F.col(c).cast("long") for c in df.columns]
    h = F.xxhash64(*cols)
    row = df.agg(
        F.count(F.lit(1)),
        F.sum(h.bitwiseAND(0x7FFFFFFF)),
        F.sum(F.shiftright(h, 32)),
    ).collect()[0]
    return int(row[0]), int(row[1] or 0), int(row[2] or 0)


def _jvm_pid(spark) -> int:
    return spark.sparkContext._gateway.proc.pid


def _vm_hwm_mb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    return 0.0


def _jvm_block_storage_mb(spark) -> float:
    """Memory Spark's block manager holds for persisted frames (the
    engine's checkpoints), after full collections have let Spark's
    cleaner drop the blocks of frames no longer referenced."""
    jvm = spark.sparkContext._jvm
    jvm.System.gc()
    time.sleep(0.2)
    jvm.System.gc()
    infos = spark.sparkContext._jsc.sc().getRDDStorageInfo()
    return sum(info.memSize() for info in infos) / 2**20


def _cpu_steal_jiffies() -> tuple[int, int]:
    """(steal, total) from /proc/stat: how much CPU the host took away."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return fields[7], sum(fields)


def _python_peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _provenance(spark, regime, seed: int, tiny: bool, options) -> dict:
    import pyspark

    with open("/proc/meminfo") as f:
        mem_kb = int(f.readline().split()[1])
    return {
        "workload": regime.name,
        "program": regime.program,
        "seed": seed,
        "tiny": tiny,
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_gb": round(mem_kb / 2**20, 1),
        "python": platform.python_version(),
        "java": spark.sparkContext._jvm.System.getProperty("java.runtime.version"),
        "spark": pyspark.__version__,
        "master": spark.sparkContext.master,
        "driver_memory": DRIVER_MEMORY,
        "spark_conf": _session_conf(),
        "recstep_options": asdict(options),
    }


class Run:
    """One workload in one session: its evaluations and their answers."""

    def __init__(self, regime, spark, frames, options):
        from repro.core import RecStepEngine

        self.regime = regime
        self.spark = spark
        self.frames = frames
        self.engine = RecStepEngine(spark, options)
        self.program = regime.parsed_program()
        #: one per evaluation attempted: seconds (None if it raised) and answer
        self.evals: list[dict] = []

    def evaluate(self, tracer=None) -> dict:
        """One timed evaluation; its answer is fingerprinted off the clock."""
        rec = {"traced": tracer is not None, "seconds": None, "answer": None,
               "block_mb": None, "error": None}
        self.evals.append(rec)
        out = None
        try:
            if tracer is None:
                t0 = time.perf_counter()
                out = self.engine.evaluate(self.program, self.frames)
                for df in out.values():
                    df.count()
                rec["seconds"] = time.perf_counter() - t0
            else:
                with tracer.installed(), tracer.evaluation() as root:
                    with tracer.span("engine.evaluate"):
                        out = self.engine.evaluate(self.program, self.frames)
                    for df in out.values():
                        df.count()
                rec["seconds"] = root.dur
            rec["answer"] = {p: _fingerprint(df) for p, df in out.items()}
            rec["pbme_used"] = self.engine.metrics.pbme_used
            gc.collect()  # let py4j release the JVM objects of dead frames
            rec["block_mb"] = _jvm_block_storage_mb(self.spark)
        except Exception as exc:  # noqa: BLE001 - a failed evaluation is a data point
            rec["error"] = repr(exc)
        finally:
            out = None
            gc.collect()
        return rec

    def check(self, expected: dict) -> list[str]:
        """Mark every evaluation that raised or answered unlike the oracle."""
        failures = []
        for i, rec in enumerate(self.evals):
            if rec["error"] is None and rec["answer"] != expected:
                rec["error"] = f"answer {rec['answer']} != oracle {expected}"
            elif rec["error"] is None and rec["pbme_used"] != self.regime.pbme:
                rec["error"] = f"pbme_used={rec['pbme_used']}, expected {self.regime.pbme}"
            if rec["error"] is not None:
                failures.append(f"evaluation {i}: {rec['error']}")
        return failures


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs, for the benchmark's self-test")
    args = ap.parse_args(argv)

    root = Path.cwd()
    work = _prepare_environment(root)
    from regimes import REGIMES

    if args.workload not in REGIMES:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(REGIMES)}")
    regime = REGIMES[args.workload]

    from repro.core import RecStepOptions

    options = RecStepOptions(pbme=True)

    setup_times = []
    spark = None
    try:
        for _ in range(SETUP_ROUNDS):
            if spark is not None:
                _shutdown(spark)
                spark = None
            t0 = time.perf_counter()
            spark = _start_session()
            inputs = regime.make_inputs(args.seed, args.tiny)
            frames = {k: spark.createDataFrame(v) for k, v in inputs.items()}
            setup_times.append(time.perf_counter() - t0)
        return _measure(args, regime, spark, inputs, frames, setup_times, options, work)
    finally:
        if spark is not None:
            _shutdown(spark)


def _shutdown(spark) -> None:
    """Stop the session, then the JVM, and wait for the JVM to exit (it
    exits when its stdin closes; its Python workers follow it). The next
    session starts a new JVM."""
    from pyspark import SparkContext

    gateway = spark.sparkContext._gateway
    spark.stop()
    gateway.shutdown()
    gateway.proc.stdin.close()
    gateway.proc.wait(timeout=120)
    SparkContext._gateway = None
    SparkContext._jvm = None


def _measure(args, regime, spark, inputs, frames, setup_times, options, work) -> int:
    from spans import Tracer, invariant_violations, layer_metrics

    run = Run(regime, spark, frames, options)
    tracer = Tracer(spark.sparkContext) if args.trace else None
    traced: list[tuple[dict, dict, list[str]]] = []
    steal0 = _cpu_steal_jiffies()
    window = time.perf_counter()
    cold = run.evaluate()
    # The JIT is still compiling the engine's hot paths during the first
    # warm evaluation: it is checked like every other, but kept out of eval_s.
    run.evaluate()
    untraced = lambda: [r for r in run.evals[2:] if not r["traced"]]  # noqa: E731
    while time.perf_counter() - window < args.seconds or len(untraced()) < MEASURED_WARM:
        if tracer is not None and len(untraced()) > len(traced):
            rec = run.evaluate(tracer)
            if rec["error"] is None:
                eval_id = tracer.spans[-1].eval_id
                m = run.engine.metrics
                traced.append((rec, layer_metrics(tracer, eval_id, m),
                               invariant_violations(tracer, eval_id, m, regime.set_idbs)))
        else:
            run.evaluate()
        if len(run.evals) >= 2 * MEASURED_WARM and all(r["error"] for r in run.evals):
            break
    # Read before the oracle runs in this process: the peak is the engine's.
    python_peak_mb = _python_peak_mb()
    steal1 = _cpu_steal_jiffies()
    steal_share = (steal1[0] - steal0[0]) / max(steal1[1] - steal0[1], 1)

    t0 = time.perf_counter()
    expected = {
        p: _fingerprint(spark.createDataFrame(df.set_axis(
            [f"c{i}" for i in range(df.shape[1])], axis=1)))
        for p, df in regime.oracle(inputs).items()
    }
    oracle_s = time.perf_counter() - t0
    failures = run.check(expected)
    failed = len(failures)
    for _, _, bad in traced:
        failures += [f"trace: {b}" for b in bad]
    fail_ratio = failed / len(run.evals)

    def median(recs: list[dict], key: str = "seconds") -> float | None:
        xs = [r[key] for r in recs if r["error"] is None and r[key] is not None]
        return statistics.median(xs) if xs else None

    blocks = [r["block_mb"] for r in run.evals if r["block_mb"] is not None]
    block_mb = min(blocks) if blocks else None
    end_to_end = {
        "eval_s": median(untraced()[:MEASURED_WARM]),
        "cold_eval_s": median([cold]),
        "setup_s": statistics.median(setup_times),
        "mem_mb": None if block_mb is None else python_peak_mb + block_mb,
    }
    if tracer is None:
        metrics = end_to_end
        units = dict(END_TO_END_UNITS)
    else:
        good = [t for t in traced if t[0]["error"] is None]
        names = good[0][1].keys() if good else ()
        metrics = {n: statistics.median([t[1][n] for t in good]) for n in names}
        if good and end_to_end["eval_s"]:
            metrics["trace.overhead"] = median([t[0] for t in good]) / end_to_end["eval_s"] - 1
        units = {n: _layer_unit(n) for n in metrics}
    correct = not failures and all(v is not None for v in metrics.values()) and bool(metrics)

    detail = {
        "provenance": _provenance(spark, regime, args.seed, args.tiny, options),
        "fail_ratio": fail_ratio,
        "cpu_steal_share": steal_share,
        "failures": failures,
        "end_to_end": end_to_end,
        "setup_times_s": setup_times,
        "oracle_s": oracle_s,
        "expected": expected,
        "evaluations": run.evals,
        "traced_evals": [{"metrics": m, "violations": v} for _, m, v in traced],
        "memory": {"python_peak_mb": python_peak_mb, "jvm_vm_hwm_mb": _vm_hwm_mb(_jvm_pid(spark))},
    }
    if tracer is not None:
        detail["spans"] = [asdict(s) for s in tracer.spans]
    out = work / f"{regime.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(detail, indent=1, default=str))

    summary = {n: f"{v:.6g} {units[n]}" for n, v in metrics.items() if v is not None}
    summary["fail_ratio"] = f"{fail_ratio:.6g} fraction"
    # CPU time the host gave to other guests while this run measured: a
    # run with a high share ran on a slower machine.
    summary["cpu_steal_share"] = f"{steal_share:.3g} fraction"
    print("perfbench " + json.dumps({"workload": regime.name, "metrics": summary,
                                     "failures": failures[:5],
                                     "provenance": detail["provenance"]}))
    print(json.dumps({
        "correct": correct,
        "attempted": len(run.evals),
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0 if correct else 1


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_fraction", "_per_iteration", ".overhead")):
        return "ratio"
    if name.endswith("_rows"):
        return "rows"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
