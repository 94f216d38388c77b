import os
import sys

import pytest


@pytest.fixture(scope="session")
def spark():
    """One local-mode SparkSession for the whole test session, with the
    settings of :func:`repro.session.build_session` (driver memory sized
    to the machine; broadcast joins only where OOF hints them)."""
    # Imported here, not at module level: suites that start no session
    # here (perfbench's self-test) run without ``src`` on the path.
    from repro.session import build_session

    s = build_session("repro")
    # One line in the test output that tells whether driver memory came
    # from the environment, the cgroup limit or MemTotal.
    print(
        f"[conftest] SPARK_DRIVER_MEM={os.environ['SPARK_DRIVER_MEM']} "
        f"(src={os.environ.get('_SPARK_DRIVER_MEM_SRC', 'env')}) "
        f"master={s.sparkContext.master} "
        f"defaultParallelism={s.sparkContext.defaultParallelism}",
        file=sys.stderr,
    )
    yield s
    s.stop()
