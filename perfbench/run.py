"""Layered maintenance benchmark entry point.

Run from the repository root::

    python3 perfbench/run.py --workload khop_jod_stream --seed 1 --seconds 15 --trace 0

Starts a local Spark session, runs one seeded workload (see
``layered/workloads.py``) in a closed loop for ``--seconds``, checks the final
states against a from-scratch run and prints the metrics. The last stdout
line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``). The full record (inputs fingerprint, environment, per-batch
data and, when traced, every span) is written under ``.bench_run/``.
Exits non-zero when any batch fails or the final states are wrong.
"""
from __future__ import annotations

import time

T_PROCESS = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shlex  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_run"


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--master", default="local[2]")
    ap.add_argument("--driver-memory", default="2g")
    return ap.parse_args(argv)


def start_spark(master: str, driver_memory: str):
    """A local session whose JVM and temp files stay under ``.bench_run/``."""
    tmp, local = WORK / "tmp", WORK / "spark-local"
    tmp.mkdir(parents=True, exist_ok=True)
    local.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(local)  # overrides spark.local.dir if inherited
    tempfile.tempdir = None  # re-read TMPDIR
    java_opts = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master {shlex.quote(master)}",
            f"--driver-memory {shlex.quote(driver_memory)}",
            f"--driver-java-options {shlex.quote(java_opts)}",
            f"--conf spark.local.dir={shlex.quote(str(local))}",
            f"--conf spark.sql.warehouse.dir={shlex.quote(str(WORK / 'warehouse'))}",
            "--conf spark.driver.host=127.0.0.1",
            "--conf spark.ui.enabled=false",
            "--conf spark.ui.showConsoleProgress=false",
            "pyspark-shell",
        ]
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", "8")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and wait for the gateway JVM to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    gateway.shutdown()
    proc = getattr(gateway, "proc", None)
    if proc is not None:
        proc.stdin.close()  # the JVM exits when its stdin closes
        proc.wait(timeout=60)
    SparkContext._gateway = None
    SparkContext._jvm = None


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from layered.measure import run
    from layered.workloads import WORKLOADS

    spec = WORKLOADS[args.workload]
    spark = start_spark(args.master, args.driver_memory)
    try:
        record = run(
            spark, spec, args.seed, args.seconds, bool(args.trace),
            spark_start_s=time.perf_counter() - T_PROCESS, root=ROOT,
        )
    finally:
        stop_spark(spark)

    out = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str))
    if record["error"]:
        print(record["error"], file=sys.stderr)
    print(
        f"{args.workload} seed={args.seed} batches={record['batch_samples']} "
        f"gate_mismatches={record['gate_mismatches']} "
        f"record={out.relative_to(ROOT)}"
    )
    for name, m in record["metrics"].items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    keys = ("correct", "attempted", "failed", "metrics")
    print(json.dumps({k: record[k] for k in keys}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
