"""Span arithmetic of the benchmark's tracer, on hand-built span trees.

Run with: python -m pytest perfbench/tests
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import tracing  # noqa: E402
from tracing import Counter, Span, Tracer, self_times_ns, summarize  # noqa: E402


class _Clock:
    """perf_counter_ns stand-in that returns scripted instants in order."""

    def __init__(self, instants):
        self.instants = iter(instants)

    def __call__(self):
        return next(self.instants)


def test_self_time_is_duration_minus_children_and_counted_calls(monkeypatch):
    # bench.timed [0, 1000)
    #   harness.run [100, 900)
    #     kge.train [200, 600)
    #     kge.calibrate [650, 700)
    #     bayes.predict_frame [700, 880)
    #       kge.score_triple, counted, [710, 770) and [800, 860)
    monkeypatch.setattr(tracing.time, "perf_counter_ns", _Clock(
        [0, 100, 200, 600, 650, 700, 700, 710, 770, 800, 860, 880, 900, 1000]))
    tracer = Tracer()
    with tracer.span("bench.timed"):
        with tracer.span("harness.run"):
            with tracer.span("kge.train"):
                pass
            with tracer.span("kge.calibrate"):
                pass
            with tracer.span("bayes.predict_frame"):
                for _ in range(2):
                    tracer._close_counted(tracer._open_counted("kge.score_triple"))
    assert [s.name for s in tracer.spans] == [
        "bench.timed", "harness.run", "kge.train", "kge.calibrate", "bayes.predict_frame"]
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 1, 1]
    assert self_times_ns(tracer.spans) == [
        1000 - 800,             # root minus harness.run
        800 - 400 - 50 - 180,   # harness minus its three children
        400,
        50,
        180 - 60 - 60,          # the two counted scoring calls
    ]
    score = tracer.counters["kge.score_triple"]
    assert (score.calls, score.total_ns, score.self_ns) == (2, 120, 120)


def test_summary_layers_add_up_to_the_root_and_nested_names_count_once():
    spans = [
        Span("bench.timed", 0, 1000, child_ns=600 + 90),
        Span("kg.make_split", 0, 600, parent=0, child_ns=200 + 100),
        Span("kg.build_kg", 100, 300, parent=1),
        Span("kg.make_split", 400, 500, parent=1),  # nested in itself
    ]
    counters = {"kge.score_triple": Counter(calls=3, total_ns=90, self_ns=90)}
    out = summarize(spans, counters)
    assert out["inclusive_s"]["kg.make_split"] == 600 / 1e9
    assert out["calls"]["kg.make_split"] == 2
    assert out["inclusive_s"]["kge.score_triple"] == 90 / 1e9
    assert abs(sum(out["layer_self_s"].values()) - 1000 / 1e9) < 1e-15
    assert out["layer_self_s"]["bench"] == (1000 - 600 - 90) / 1e9


class _Box:
    @staticmethod
    def leaf(x):
        return x + 1

    @staticmethod
    def outer(x):
        return _Box.leaf(x) * 2


def test_live_tracer_keeps_self_times_consistent_and_unwraps():
    tracer = Tracer()
    original_leaf, original_outer = _Box.leaf, _Box.outer
    tracer.wrap(_Box, "outer", "layer.outer")
    tracer.wrap(_Box, "leaf", "layer.leaf", counted=True)
    with tracer.span("bench.timed"):
        for i in range(50):
            assert _Box.outer(i) == (i + 1) * 2
    tracer.unwrap_all()
    assert _Box.leaf is original_leaf and _Box.outer is original_outer
    assert tracer.counters["layer.leaf"].calls == 50
    out = summarize(tracer.spans, tracer.counters)
    root = tracer.spans[0]
    total = sum(out["layer_self_s"].values())
    assert abs(total - (root.end_ns - root.start_ns) / 1e9) < 1e-12
    assert all(t >= 0 for t in self_times_ns(tracer.spans))
