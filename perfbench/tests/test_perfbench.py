"""Tests of the benchmark itself, at tiny scale on the shared Spark session.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""
import dataclasses

import pytest

from layered import measure
from layered.trace import WRAPPER_MARK, Span, Tracer, self_times, summarize
from layered.workloads import WORKLOADS


def tiny(name: str):
    spec = WORKLOADS[name]
    return dataclasses.replace(
        spec, scale=0.05, batch_size=min(spec.batch_size, 10),
        warmup_batches=1, min_batches=2, max_batches=4,
    )


def run_tiny(spark, name, trace, seed=3):
    return measure.run(spark, tiny(name), seed, 0.0, trace)


def wrapped_targets(tracer: Tracer) -> list[str]:
    return [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in tracer._targets
        if hasattr(vars(owner)[attr], WRAPPER_MARK)
    ]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_is_correct_and_complete(spark, name):
    rec = run_tiny(spark, name, trace=False)
    assert rec["correct"], rec["error"] or rec["gate_mismatches"]
    assert rec["attempted"] == 2 and rec["failed"] == 0
    assert set(rec["metrics"]) == set(measure.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in rec["metrics"].values())

    traced = run_tiny(spark, name, trace=True)
    assert traced["correct"]
    assert set(traced["metrics"]) == set(measure.PER_LAYER_UNITS)
    assert traced["metrics"]["spark.jobs"]["value"] > 0
    assert traced["metrics"]["trace.covered_frac"]["value"] > 0.5


def test_counts_repeat_exactly(spark):
    a, b = (run_tiny(spark, "khop_prob_drop", trace=True) for _ in range(2))
    for m in ("spark.jobs", "drops.recomputed", "engine.sched_vertices", "static.iters"):
        assert a["metrics"][m]["value"] == b["metrics"][m]["value"], m
    assert a["inputs"] == b["inputs"]
    c, d = (run_tiny(spark, "sssp_vdc_mixed", trace=False) for _ in range(2))
    assert c["metrics"]["peak_diff_bytes"] == d["metrics"]["peak_diff_bytes"]


def test_untraced_run_installs_no_wrapper(spark, monkeypatch):
    tracer = measure.make_tracer(spark, measure.LayerCounters())
    assert wrapped_targets(tracer) == []

    def refuse(*a, **k):
        raise AssertionError("untraced run built a tracer")

    monkeypatch.setattr(measure, "make_tracer", refuse)
    run_tiny(spark, "khop_jod_stream", trace=False)
    assert wrapped_targets(tracer) == []


def test_install_and_uninstall_restore_originals(spark):
    tracer = measure.make_tracer(spark, measure.LayerCounters())
    originals = {(id(o), a): vars(o)[a] for o, a, _, _ in tracer._targets}
    tracer.install()
    assert len(wrapped_targets(tracer)) == len(tracer._targets)
    tracer.uninstall()
    assert wrapped_targets(tracer) == []
    assert all(vars(o)[a] is originals[(id(o), a)] for o, a, _, _ in tracer._targets)


def test_self_time_arithmetic():
    spans = [
        Span("batch", 0.0, 10.0, -1, "b"),
        Span("a", 1.0, 4.0, 0, "b"),
        Span("a", 2.0, 3.0, 1, "b"),  # recursion: nested inside the first "a"
        Span("c", 5.0, 9.0, 0, "b"),
        Span("d", 6.0, 7.5, 3, "b"),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 2.5, 1.5]
    s = summarize(spans)
    assert s["a"] == {"calls": 2, "self_s": 3.0, "total_s": 3.0, "max_depth": 2}
    assert s["c"]["total_s"] == 4.0 and s["c"]["self_s"] == 2.5
    assert s["batch"]["self_s"] == 3.0
    # a slice keeps its parent links through the offset
    assert self_times(spans[3:], offset=3) == [2.5, 1.5]
