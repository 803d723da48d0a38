"""One benchmark run: set up, drive the closed loop, check, report.

A run builds the workload's engine through ``repro.harness.runner`` and
sends batches one at a time (the next only after ``apply_batch`` returns)
until ``seconds`` of maintenance have passed and at least the workload's
``min_batches`` timed batches are done. Counts that must repeat exactly
(jobs, recomputations, modelled bytes) are taken over those first
``min_batches`` batches, which every run completes.

Untraced (``trace=False``) runs install no wrapper and produce the
end-to-end metrics. Traced runs give the per-layer split, and the tracing
overhead as spans per batch times the measured cost of one wrapper call.
"""
from __future__ import annotations

import os
import platform
import resource
import statistics
import time
import traceback
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pandas as pd

from repro.bloom import BloomFilter
from repro.bloom.bloom import encode_vt
from repro.core import engine as engine_mod
from repro.core import frontier, static_ife
from repro.core.dropping import DropManager
from repro.core.engine import DCJODEngine
from repro.core.static_ife import run_static
from repro.core.store import DiffStore
from repro.core.vdc import VDCEngine
from repro.graphs.updates import apply_batch
from repro.harness.runner import build_engine

from layered.trace import Tracer, span_cost_s, summarize
from layered.workloads import WorkloadSpec, build, fingerprint

FRONTIER_ENTRIES = ("aggregate_at", "push_messages", "raw_messages", "aggregate_msgs")

END_TO_END_UNITS = {
    "setup_s": "s",
    "load_s": "s",
    "batch_p50_s": "s",
    "batch_tail_s": "s",
    "updates_per_s": "1/s",
    "peak_diff_bytes": "B",
    "driver_rss_mb": "MB",
    "ok_frac": "frac",
}

PER_LAYER_UNITS = {
    "updates.apply_s": "s",
    "engine.refresh_s": "s",
    "engine.schedule_s": "s",
    "engine.sched_vertices": "count",
    "engine.changed_vertices": "count",
    "engine.useful_frac": "frac",
    "engine.resolve_s": "s",
    "engine.resolve_depth": "count",
    "engine.recompute_s": "s",
    "store.read_s": "s",
    "store.write_s": "s",
    "store.copy_s": "s",
    "store.rows": "count",
    "store.driver_bytes": "B",
    "drops.probe_s": "s",
    "drops.filter_s": "s",
    "drops.recomputed": "count",
    "bloom.load": "frac",
    "bloom.fp_rate": "frac",
    "frontier.calls": "count",
    "frontier.s": "s",
    **{f"frontier.{e}.calls": "count" for e in FRONTIER_ENTRIES},
    **{f"frontier.{e}.s": "s" for e in FRONTIER_ENTRIES},
    "frontier.upload_s": "s",
    "frontier.collect_s": "s",
    "frontier.rows_in": "count",
    "frontier.rows_out": "count",
    "spark.jobs": "count",
    "spark.s_per_job": "s",
    "spark.floor_s": "s",
    "vdc.dj_maint_s": "s",
    "vdc.dj_rows": "count",
    "static.run_s": "s",
    "static.iters": "count",
    "trace.covered_frac": "frac",
    "trace.overhead_frac": "frac",
}


# ------------------------------------------------------------------ tracing
class LayerCounters:
    """Counts the tracer's hooks collect at layer boundaries."""

    def __init__(self) -> None:
        self.reset()
        self.static_iters = 0
        self.drops: DropManager | None = None

    def reset(self) -> None:
        self.rows_in = 0
        self.rows_out = 0
        # (keys, answers, dropped-log length) per BloomFilter.contains call
        self.bloom_queries: list[tuple[np.ndarray, np.ndarray, int]] = []

    def frontier_rows(self, args, kwargs, out) -> None:
        self.rows_in += sum(len(a) for a in args if isinstance(a, pd.DataFrame))
        self.rows_out += len(out)

    def static_run(self, args, kwargs, out) -> None:
        self.static_iters = out.n_iters

    def bloom_contains(self, args, kwargs, out) -> None:
        n_log = len(self.drops.dropped_log) if self.drops is not None else 0
        keys = np.atleast_1d(np.asarray(args[1], dtype=np.uint64))
        self.bloom_queries.append((keys, np.asarray(out, bool), n_log))

    def bloom_false_positives(self) -> tuple[int, int]:
        """(positive answers for absent keys, absent keys queried)."""
        if self.drops is None or not self.bloom_queries:
            return 0, 0
        log = self.drops.dropped_log
        enc = encode_vt(log["v"].to_numpy(), log["it"].to_numpy(), log["qid"].to_numpy())
        fp = neg = 0
        for keys, hits, n_log in self.bloom_queries:
            absent = ~np.isin(keys, enc[:n_log])
            fp += int((hits & absent).sum())
            neg += int(absent.sum())
        return fp, neg


def make_tracer(spark, counters: LayerCounters) -> Tracer:
    """Register every layer entry point the per-layer metrics read."""
    t = Tracer()
    t.add(engine_mod, "apply_batch", "updates.apply")
    t.add(DCJODEngine, "_refresh_graph", "engine.refresh")
    t.add(DCJODEngine, "_seed_schedule", "engine.schedule")
    t.add(DCJODEngine, "_expand_schedule", "engine.schedule")
    t.add(DCJODEngine, "_states_for", "engine.states_for")
    t.add(DCJODEngine, "_resolve", "engine.resolve")
    t.add(DCJODEngine, "_recompute", "engine.recompute")
    t.add(DCJODEngine, "_store_new_rows", "engine.store_new_rows")
    t.add(DCJODEngine, "_register_new_vertices", "engine.register")
    t.add(VDCEngine, "_recompute", "engine.recompute")
    t.add(VDCEngine, "_on_batch_start", "vdc.dj_maint")
    t.add(VDCEngine, "_on_changed", "vdc.dj_maint")
    for m in ("latest_leq", "iters_after", "rows_for_keys", "snapshot_at", "iters_of"):
        t.add(DiffStore, m, "store.read")
    for m in ("set_rows", "delete_rows"):
        t.add(DiffStore, m, "store.write")
    t.add(DiffStore, "copy", "store.copy")
    t.add(DropManager, "latest_dropped_in", "drops.probe")
    t.add(DropManager, "dropped_iters_after", "drops.probe")
    t.add(DropManager, "filter_new_rows", "drops.filter")
    t.add(DropManager, "count_recomputations", "drops.count")
    t.add(BloomFilter, "contains", "bloom.contains", counters.bloom_contains)
    for e in FRONTIER_ENTRIES:
        t.add(frontier, e, f"frontier.{e}", counters.frontier_rows)
    t.add(static_ife, "run_static", "static.run", counters.static_run)
    # Spark 4 classic sessions/frames: wrap the class that defines the method
    # (patching pyspark.sql.DataFrame.toPandas misses the classic subclass).
    t.add(_definer(type(spark), "createDataFrame"), "createDataFrame", "spark.upload")
    t.add(_definer(type(spark.range(1)), "toPandas"), "toPandas", "spark.collect")
    return t


def _definer(cls: type, attr: str) -> type:
    return next(c for c in cls.__mro__ if attr in vars(c))


# ----------------------------------------------------------------- helpers
def job_floor_s(spark, reps: int = 7) -> float:
    """Median wall time of a trivial one-row Spark job collected to pandas."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        spark.range(1).toPandas()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def tail_s(times: list[float]) -> float:
    """75th percentile of the batch times (inclusive method).

    A run holds 3 to 20 batches, too few for any percentile above the median
    to have 10 batches beyond it, so the upper quartile stands for the tail.
    """
    if len(times) < 2:
        return max(times, default=0.0)
    return statistics.quantiles(times, n=4, method="inclusive")[2]


def states_mismatch(got: pd.DataFrame, exp: pd.DataFrame, atol: float = 1e-6) -> int:
    """Keys missing on either side or differing by more than ``atol``."""
    m = got.merge(exp, on=["qid", "v"], how="outer", suffixes=("_got", "_exp"))
    missing = m["val_got"].isna() | m["val_exp"].isna()
    bad = (m["val_got"] - m["val_exp"]).abs() > atol
    return int((missing | bad).sum())


def git_commit(root: Path) -> str:
    """HEAD of the checkout if it is a git work tree, else 'unknown'."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment(spark, root: Path) -> dict:
    sc = spark.sparkContext
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "master": sc.master,
        "default_parallelism": sc.defaultParallelism,
        "driver_memory": sc.getConf().get("spark.driver.memory", "default"),
        "spark": spark.version,
        "java": sc._jvm.java.lang.System.getProperty("java.version"),
        "python": platform.python_version(),
        "pandas": pd.__version__,
        "numpy": np.__version__,
        "git_commit": git_commit(root),
    }


def _mem_total(eng) -> int:
    return int(eng.memory_bytes()["total_bytes"])


def _jobs_in(sc, group: str) -> int:
    return len(sc.statusTracker().getJobIdsForGroup(group))


# --------------------------------------------------------------------- run
def run(
    spark,
    spec: WorkloadSpec,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    spark_start_s: float = 0.0,
    root: Path | None = None,
) -> dict:
    """One closed-loop run; returns the full result record.

    ``record["metrics"]`` holds the end-to-end metrics (untraced) or the
    per-layer metrics (traced), each as ``{"value", "unit"}``.
    """
    sc = spark.sparkContext
    counters = LayerCounters()
    tracer = make_tracer(spark, counters) if trace else None
    # the drop policy's own randomness is part of the system, not the input
    kw = dict(p=spec.p, policy="degree") if spec.system in ("det", "prob") else {}

    # -- set-up: generate, build the engine (traced: under the "load" request),
    # then untimed warm-up batches while the JVM compiles the code paths
    t0 = time.perf_counter()
    wl = build(spec, seed)
    gen_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.request = "load"
        tracer.install()
    t0 = time.perf_counter()
    try:
        eng = build_engine(spark, wl, spec.system, **kw)
    finally:
        if tracer is not None:
            tracer.uninstall()
    load_s = time.perf_counter() - t0
    counters.drops = eng.drops
    peak = _mem_total(eng)
    error = None
    t0 = time.perf_counter()
    try:
        for b in wl.batches[: spec.warmup_batches]:
            eng.apply_batch(b)
            peak = max(peak, _mem_total(eng))
    except Exception:  # a failing batch ends the run; reported, not raised
        error = traceback.format_exc()
    warmup_s = time.perf_counter() - t0
    setup_s = spark_start_s + gen_s + load_s + warmup_s
    floor_s = job_floor_s(spark)  # JVM warm, as for the timed batches

    # -- closed loop; job groups are unique per run (runs may share a session)
    run_id = f"perfbench-{time.monotonic_ns()}"
    batches: list[dict] = []
    bloom = eng.drops.bloom if eng.drops is not None else None
    bloom_load = 0.0
    t_begin = time.perf_counter()
    k = spec.warmup_batches
    while error is None and k < len(wl.batches) and (
        len(batches) < spec.min_batches or time.perf_counter() - t_begin < seconds
    ):
        b = wl.batches[k]
        rec0 = eng.drops.n_recomputed if eng.drops is not None else 0
        group = f"{run_id}-batch-{k}"
        if tracer is not None:
            sc.setJobGroup(group, group)
            counters.reset()
            tracer.request = group
            tracer.install()
            root_span = tracer.open("batch")
        t0 = time.perf_counter()
        try:
            m = eng.apply_batch(b)
        except Exception:  # a failing batch ends the run; reported, not raised
            error = traceback.format_exc()
            break
        finally:
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.close(root_span)
                tracer.uninstall()
                sc.setLocalProperty("spark.jobGroup.id", None)
        rec = {
            "k": k,
            "s": dt,
            "changes": len(b.changes),
            "n_sched": m["n_sched"],
            "n_changed": m["n_changed"],
            "diff_bytes": _mem_total(eng),
            "store_rows": len(eng.store),
            "dj_rows": len(eng.jstore) if eng.materializes_join else 0,
            "recomputed": (eng.drops.n_recomputed if eng.drops is not None else 0) - rec0,
        }
        if tracer is not None:
            rec["s"] = tracer.spans[root_span].end - tracer.spans[root_span].start
            spans, first = tracer.request_spans(group)
            rec["spans"] = len(spans)
            rec["layers"] = summarize(spans, first)
            rec["frontier_rows_in"] = counters.rows_in
            rec["frontier_rows_out"] = counters.rows_out
            rec["bloom_fp"], rec["bloom_neg"] = counters.bloom_false_positives()
            rec["store_driver_bytes"] = int(eng.store.df.memory_usage(deep=True).sum())
            rec["jobs"] = _jobs_in(sc, group)
        batches.append(rec)
        if len(batches) <= spec.min_batches:
            peak = max(peak, rec["diff_bytes"])
            bloom_load = bloom.n_inserted / bloom.capacity if bloom is not None else 0.0
        k += 1
    timed_s = time.perf_counter() - t_begin

    # -- correctness gate (outside timing): D ≡ a static run on the final graph
    edges = wl.initial
    for b in wl.batches[:k]:
        edges = apply_batch(edges, b)
    mismatches = -1
    if error is None:
        exp = run_static(spark, edges, wl.spec).final
        mismatches = states_mismatch(eng.final_states(), exp)
    eng.close()

    attempted = max(spec.min_batches, len(batches) + (error is not None))
    ok = 0 if mismatches > 0 else len(batches)
    failed = attempted - ok
    times = [b["s"] for b in batches]
    record = {
        "workload": asdict(spec),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "inputs": fingerprint(wl),
        "env": environment(spark, root or Path.cwd()),
        "correct": error is None and mismatches == 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "error": error,
        "gate_mismatches": mismatches,
        "setup": {
            "spark_start_s": spark_start_s,
            "gen_s": gen_s,
            "load_s": load_s,
            "warmup_s": warmup_s,
            "job_floor_s": floor_s,
        },
        "timed_s": timed_s,
        "batch_samples": len(times),
        "batches": batches,
    }
    if not trace:
        values = {
            "setup_s": setup_s,
            "load_s": load_s,
            "batch_p50_s": statistics.median(times) if times else 0.0,
            "batch_tail_s": tail_s(times),
            "updates_per_s": sum(b["changes"] for b in batches) / sum(times) if times else 0.0,
            "peak_diff_bytes": peak,
            "driver_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": ok / attempted,
        }
        units = END_TO_END_UNITS
    else:
        values = layer_metrics(batches, spec.min_batches, tracer, counters, floor_s, bloom_load)
        units = PER_LAYER_UNITS
        record["spans"] = tracer.to_json()
    record["metrics"] = {n: {"value": float(values[n]), "unit": u} for n, u in units.items()}
    return record


def layer_metrics(batches, n_prefix, tracer, counters, floor_s, bloom_load) -> dict:
    """Per-layer metrics: times are means per traced batch, counts per batch
    over the counted prefix (so they repeat exactly for a given seed)."""
    span_cost = span_cost_s()
    traced = batches
    prefix = batches[:n_prefix]
    nt = max(1, len(traced))

    def per_traced(name: str, field: str = "total_s") -> float:
        return sum(b["layers"].get(name, {}).get(field, 0.0) for b in traced) / nt

    def per_prefix(field: str) -> float:
        return sum(b[field] for b in prefix) / max(1, len(prefix))

    jobs = sum(b["jobs"] for b in traced)
    collect = per_traced("spark.collect") * nt
    sched = sum(b["n_sched"] for b in prefix)
    load = summarize(*tracer.request_spans("load"))
    out = {
        "updates.apply_s": per_traced("updates.apply"),
        "engine.refresh_s": per_traced("engine.refresh"),
        "engine.schedule_s": per_traced("engine.schedule"),
        "engine.sched_vertices": per_prefix("n_sched"),
        "engine.changed_vertices": per_prefix("n_changed"),
        "engine.useful_frac": sum(b["n_changed"] for b in prefix) / sched if sched else 0.0,
        "engine.resolve_s": per_traced("engine.states_for"),
        "engine.resolve_depth": max(
            (b["layers"].get("engine.resolve", {}).get("max_depth", 0) for b in traced),
            default=0,
        ),
        "engine.recompute_s": per_traced("engine.recompute", "self_s"),
        "store.read_s": per_traced("store.read"),
        "store.write_s": per_traced("store.write"),
        "store.copy_s": per_traced("store.copy"),
        "store.rows": per_prefix("store_rows"),
        "store.driver_bytes": sum(b["store_driver_bytes"] for b in traced) / nt,
        "drops.probe_s": per_traced("drops.probe"),
        "drops.filter_s": per_traced("drops.filter"),
        "drops.recomputed": per_prefix("recomputed"),
        "bloom.load": bloom_load,
        "bloom.fp_rate": _ratio(sum(b["bloom_fp"] for b in traced), sum(b["bloom_neg"] for b in traced)),
        "frontier.calls": sum(per_traced(f"frontier.{e}", "calls") for e in FRONTIER_ENTRIES),
        "frontier.s": sum(per_traced(f"frontier.{e}") for e in FRONTIER_ENTRIES),
        "frontier.upload_s": per_traced("spark.upload"),
        "frontier.collect_s": per_traced("spark.collect"),
        "frontier.rows_in": sum(b["frontier_rows_in"] for b in traced) / nt,
        "frontier.rows_out": sum(b["frontier_rows_out"] for b in traced) / nt,
        "spark.jobs": per_prefix("jobs"),
        "spark.s_per_job": _ratio(collect, jobs),
        "spark.floor_s": floor_s,
        "vdc.dj_maint_s": per_traced("vdc.dj_maint"),
        "vdc.dj_rows": per_prefix("dj_rows"),
        "static.run_s": load.get("static.run", {}).get("total_s", 0.0),
        "static.iters": counters.static_iters,
        "trace.covered_frac": sum(
            1.0 - b["layers"]["batch"]["self_s"] / b["s"] for b in traced
        ) / nt,
        "trace.overhead_frac": sum(
            b["spans"] * span_cost / (b["s"] - b["spans"] * span_cost) for b in traced
        ) / nt,
    }
    for e in FRONTIER_ENTRIES:
        out[f"frontier.{e}.calls"] = per_traced(f"frontier.{e}", "calls")
        out[f"frontier.{e}.s"] = per_traced(f"frontier.{e}")
    return out


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0
