"""In-memory span tracer for the benchmark's traced runs.

Spans are recorded at layer boundaries (name, start, end, parent).  Hot
scalar calls are counted instead: each gets a call count and summed
time.  Spans nest strictly on one stack, so every finished call, span
or counted, is charged to its enclosing span as child time, and a
span's self time is its duration minus that.  Garbage-collection pauses
are counted the same way under the name ``runtime.gc``.

Functions are wrapped where the *calling* module looks them up, so
``wrap(occlukg.harness, "train", ...)`` times the trainer as the harness
calls it without touching the package.
"""

from __future__ import annotations

import gc
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int = 0
    parent: Optional[int] = None
    child_ns: int = 0


@dataclass
class Counter:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0


class _CountedFrame:
    __slots__ = ("name", "start_ns", "child_ns")

    def __init__(self, name: str, start_ns: int):
        self.name = name
        self.start_ns = start_ns
        self.child_ns = 0


@dataclass
class Tracer:
    """Spans and counters of one process; written out once, at the end."""

    spans: list[Span] = field(default_factory=list)
    counters: dict[str, Counter] = field(default_factory=dict)
    _stack: list = field(default_factory=list)
    _restore: list = field(default_factory=list)

    # -- recording ---------------------------------------------------

    def _open_span(self, name: str) -> int:
        parent = None
        for entry in reversed(self._stack):
            if isinstance(entry, int):
                parent = entry
                break
        self.spans.append(Span(name, time.perf_counter_ns(), parent=parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close_span(self, index: int) -> None:
        top = self._stack.pop()
        if top != index:
            raise RuntimeError(f"span {self.spans[index].name!r} closed out of order")
        span = self.spans[index]
        span.end_ns = time.perf_counter_ns()
        self._charge_parent(span.end_ns - span.start_ns)

    def _charge_parent(self, duration_ns: int) -> None:
        """Charge a finished call to whatever encloses it."""
        if not self._stack:
            return
        parent = self._stack[-1]
        if isinstance(parent, int):
            self.spans[parent].child_ns += duration_ns
        else:
            parent.child_ns += duration_ns

    def _open_counted(self, name: str) -> _CountedFrame:
        frame = _CountedFrame(name, time.perf_counter_ns())
        self._stack.append(frame)
        return frame

    def _close_counted(self, frame: _CountedFrame) -> None:
        end = time.perf_counter_ns()
        top = self._stack.pop()
        if top is not frame:
            raise RuntimeError(f"counted call {frame.name!r} closed out of order")
        duration = end - frame.start_ns
        counter = self.counters.setdefault(frame.name, Counter())
        counter.calls += 1
        counter.total_ns += duration
        counter.self_ns += duration - frame.child_ns
        self._charge_parent(duration)

    @contextmanager
    def span(self, name: str):
        index = self._open_span(name)
        try:
            yield
        finally:
            self._close_span(index)

    def wrap(self, owner, attr: str, name: str, counted: bool = False,
             on_call: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` by a timed wrapper until ``unwrap_all``."""
        original = getattr(owner, attr)
        if counted:
            def wrapper(*args, **kwargs):
                if on_call is not None:
                    on_call(*args, **kwargs)
                frame = self._open_counted(name)
                try:
                    return original(*args, **kwargs)
                finally:
                    self._close_counted(frame)
        else:
            def wrapper(*args, **kwargs):
                if on_call is not None:
                    on_call(*args, **kwargs)
                index = self._open_span(name)
                try:
                    return original(*args, **kwargs)
                finally:
                    self._close_span(index)
        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def unwrap_all(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- garbage collection -------------------------------------------

    def _gc_callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._open_counted("runtime.gc")
        elif self._stack and isinstance(self._stack[-1], _CountedFrame) \
                and self._stack[-1].name == "runtime.gc":
            self._close_counted(self._stack[-1])

    def start_gc_hook(self) -> None:
        gc.callbacks.append(self._gc_callback)

    def stop_gc_hook(self) -> None:
        if self._gc_callback in gc.callbacks:
            gc.callbacks.remove(self._gc_callback)

    # -- output ------------------------------------------------------

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        record = {
            "spans": [
                [s.name, s.start_ns, s.end_ns, s.parent, s.child_ns]
                for s in self.spans
            ],
            "counters": {
                k: {"calls": c.calls, "total_ns": c.total_ns, "self_ns": c.self_ns}
                for k, c in sorted(self.counters.items())
            },
        }
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")


# -- span arithmetic ---------------------------------------------------


def self_times_ns(spans: list[Span]) -> list[int]:
    """Each span's duration minus the child spans and counted calls it enclosed."""
    return [span.end_ns - span.start_ns - span.child_ns for span in spans]


def summarize(spans: list[Span], counters: dict[str, Counter]) -> dict:
    """Per-name inclusive and self seconds, plus self seconds per layer.

    Inclusive time of a name counts only its outermost spans, so a name
    nested in itself is not counted twice.  The layer is the part of the
    name before the first dot; counted calls add their self time to it.
    """
    selfs = self_times_ns(spans)
    inclusive: dict[str, int] = {}
    self_by_name: dict[str, int] = {}
    calls: dict[str, int] = {}
    for i, span in enumerate(spans):
        self_by_name[span.name] = self_by_name.get(span.name, 0) + selfs[i]
        calls[span.name] = calls.get(span.name, 0) + 1
        if not _has_ancestor_named(spans, i, span.name):
            inclusive[span.name] = inclusive.get(span.name, 0) + span.end_ns - span.start_ns
    for name, c in counters.items():
        inclusive[name] = inclusive.get(name, 0) + c.total_ns
        self_by_name[name] = self_by_name.get(name, 0) + c.self_ns
        calls[name] = calls.get(name, 0) + c.calls
    layers: dict[str, int] = {}
    for name, ns in self_by_name.items():
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0) + ns
    return {
        "inclusive_s": {k: v / 1e9 for k, v in sorted(inclusive.items())},
        "self_s": {k: v / 1e9 for k, v in sorted(self_by_name.items())},
        "calls": dict(sorted(calls.items())),
        "layer_self_s": {k: v / 1e9 for k, v in sorted(layers.items())},
    }


def _has_ancestor_named(spans: list[Span], index: int, name: str) -> bool:
    parent = spans[index].parent
    while parent is not None:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False
