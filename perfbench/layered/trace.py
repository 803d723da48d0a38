"""In-memory span tracer that wraps the engine's layer entry points.

Spans are recorded from outside the program: :meth:`Tracer.install` swaps
module- and class-level attributes for timing wrappers and
:meth:`Tracer.uninstall` puts the originals back, so ``src/`` is never
edited and an untraced run executes the unmodified functions.

A span is (name, start, end, parent, request). The Python driver process is
single-threaded, so spans nest strictly and a span's *self time* is its
duration minus the summed durations of its direct children.
"""
from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from typing import Callable

#: marker attribute set on every wrapper (tests check it is gone after uninstall)
WRAPPER_MARK = "__perfbench_original__"

Hook = Callable[[tuple, dict, object], None]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root
    request: str  # "load", "batch-<k>", ...


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request = "setup"
        self._stack: list[int] = []
        self._targets: list[tuple[object, str, str, Hook | None]] = []
        self._patched: list[tuple[object, str, object]] = []

    # ----------------------------------------------------------------- spans
    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), math.nan, parent, self.request))
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    # -------------------------------------------------------------- wrapping
    def add(self, owner: object, attr: str, name: str, hook: Hook | None = None) -> None:
        """Register ``owner.attr`` to be wrapped in a span called ``name``.

        ``owner`` is a module or a class; for a class the attribute must be
        defined in the class itself (a subclass override is registered
        separately). ``hook(args, kwargs, result)`` runs after the span
        closes, for counting rows and the like.
        """
        if isinstance(owner, type) and attr not in vars(owner):
            raise AttributeError(f"{owner.__name__} does not define {attr}")
        self._targets.append((owner, attr, name, hook))

    def install(self) -> None:
        if self._patched:
            return
        for owner, attr, name, hook in self._targets:
            original = vars(owner)[attr]
            setattr(owner, attr, self._wrap(original, name, hook))
            self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _wrap(self, fn, name: str, hook: Hook | None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if hook is not None:
                hook(args, kwargs, out)
            return out

        setattr(wrapper, WRAPPER_MARK, fn)
        return wrapper

    # ------------------------------------------------------------- analysis
    def request_spans(self, request: str) -> tuple[list[Span], int]:
        """The spans recorded under ``request`` and the index of the first.

        A request's spans are contiguous: requests run one after another.
        """
        idx = [i for i, s in enumerate(self.spans) if s.request == request]
        if not idx:
            return [], 0
        return self.spans[idx[0] : idx[-1] + 1], idx[0]

    def to_json(self) -> list[dict]:
        return [vars(s) for s in self.spans]


def self_times(spans: list[Span], offset: int = 0) -> list[float]:
    """Duration minus direct children, for a contiguous slice of spans.

    ``offset`` is the index of ``spans[0]`` in the tracer's full list, so
    parent indices can be mapped into the slice.
    """
    child = [0.0] * len(spans)
    for s in spans:
        p = s.parent - offset
        if 0 <= p < len(spans):
            child[p] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def summarize(spans: list[Span], offset: int = 0) -> dict[str, dict[str, float]]:
    """Per span name: call count, self time, outermost-inclusive time, depth.

    ``total_s`` sums only spans not nested inside a span of the same name,
    so a recursive entry point is not double counted; ``max_depth`` is the
    deepest same-name nesting seen (1 = never recursed).
    """
    selfs = self_times(spans, offset)
    out: dict[str, dict[str, float]] = {}
    depth: list[int] = []
    for i, s in enumerate(spans):
        p = s.parent - offset
        same = 0
        while 0 <= p < len(spans):
            if spans[p].name == s.name:
                same = depth[p]
                break
            p = spans[p].parent - offset
        depth.append(same + 1)
        agg = out.setdefault(s.name, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "max_depth": 0})
        agg["calls"] += 1
        agg["self_s"] += selfs[i]
        if same == 0:
            agg["total_s"] += s.end - s.start
        agg["max_depth"] = max(agg["max_depth"], same + 1)
    return out


def span_cost_s(reps: int = 20000) -> float:
    """Wall time one wrapper adds to a call: wrapped minus bare no-op, per call."""

    def noop() -> None:
        return None

    wrapped = Tracer()._wrap(noop, "calibrate", None)
    t0 = time.perf_counter()
    for _ in range(reps):
        noop()
    bare = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(reps):
        wrapped()
    return max(0.0, (time.perf_counter() - t0 - bare) / reps)
