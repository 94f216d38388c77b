"""The local Spark session of the tests and the ``jobs/`` entry points.

Both get the same session: driver memory sized to the machine, 64
shuffle partitions, Arrow on, and automatic broadcast joins off, so that
OOF's explicit hints are the only broadcasts. ``spark.driver.memory`` is
read when the JVM launches, not from SparkConf, so it has to be in
``PYSPARK_SUBMIT_ARGS`` before the first session starts; this module
therefore imports pyspark only inside :func:`build_session`.
"""
import os

_CGROUP_LIMITS = (
    "/sys/fs/cgroup/memory.max",
    "/sys/fs/cgroup/memory/memory.limit_in_bytes",
)


def _driver_memory() -> tuple[str, str]:
    """Driver heap size and where it came from: 75% of the cgroup memory
    limit, else half of ``MemTotal`` clamped to 2–8g. The cgroup read is
    best-effort: a sandbox's sysfs may not pass the host limit through,
    and an unbounded value (cgroup v1's ~9.2e18 "unlimited" sentinel) is
    treated as absent so the JVM is never handed an impossible heap.
    """
    for p in _CGROUP_LIMITS:
        try:
            with open(p) as f:
                raw = f.read().strip()
            if not raw or raw == "max":
                continue
            gib = int(raw) / (1 << 30)
            if 1 <= gib <= 1024:
                return f"{max(1, int(gib * 0.75))}g", f"cgroup:{p}={raw}"
        except (OSError, ValueError):
            continue
    try:
        with open("/proc/meminfo") as f:
            kib = next(int(line.split()[1]) for line in f if line.startswith("MemTotal:"))
        gib = kib // (1 << 21)  # half of MemTotal, in GiB
    except (OSError, StopIteration, ValueError):
        gib = 2
    return f"{min(max(gib, 2), 8)}g", "meminfo"


def build_session(app_name: str):
    """Set the JVM launch arguments (unless the environment already
    has them; ``SPARK_DRIVER_MEM`` overrides the heap size) and return
    the shared local session."""
    if "SPARK_DRIVER_MEM" not in os.environ:
        os.environ["SPARK_DRIVER_MEM"], os.environ["_SPARK_DRIVER_MEM_SRC"] = _driver_memory()
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {os.environ['SPARK_DRIVER_MEM']} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false "
        "pyspark-shell",
    )
    from pyspark.sql import SparkSession

    return (
        SparkSession.builder.appName(app_name)
        .config("spark.sql.shuffle.partitions", os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
