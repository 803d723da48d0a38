"""The benchmark's tracer still finds every engine entry point it wraps.

``perfbench/layered/measure.py`` wraps module functions and class methods by
name; a rename in ``src/`` would otherwise surface only in the slow
``perfbench/tests`` suite.
"""
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_uninstalls(spark):
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    from layered.measure import LayerCounters, make_tracer
    from layered.trace import WRAPPER_MARK

    tracer = make_tracer(spark, LayerCounters())
    tracer.install()
    try:
        assert len(tracer._patched) == len(tracer._targets)
    finally:
        tracer.uninstall()
    assert not any(
        hasattr(vars(owner)[attr], WRAPPER_MARK) for owner, attr, _, _ in tracer._targets
    )
