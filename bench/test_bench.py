"""Tests of the benchmark's own tracing and workloads.

Run with: PYTHONPATH=src python -m pytest -q bench
"""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

import layer_metrics
import tracing
import workloads
from xbardse import cli, dse, mapping, qnet, xbar

MODULES = (qnet, mapping, xbar, dse, cli)


def span(sid, start, end, parent=None):
    return tracing.Span(sid, f"s{sid}", start, end, parent, 0, None)


def test_self_time_with_overlapping_and_nested_children():
    spans = [span(0, 0.0, 10.0),
             span(1, 1.0, 4.0, parent=0),
             span(2, 3.0, 6.0, parent=0),      # overlaps span 1
             span(3, 8.0, 12.0, parent=0),     # clipped to the parent's end
             span(4, 2.0, 3.5, parent=1),      # nested in span 1
             span(5, 2.5, 3.0, parent=4)]
    own = tracing.self_times(spans)
    # children of 0 cover [1, 6] and [8, 10]
    assert own[0] == pytest.approx(10.0 - 5.0 - 2.0)
    assert own[1] == pytest.approx(3.0 - 1.5)
    assert own[4] == pytest.approx(1.5 - 0.5)
    assert own[2] == pytest.approx(3.0)
    assert own[5] == pytest.approx(0.5)
    assert tracing.covered([]) == 0.0
    assert tracing.covered([(0.0, 1.0), (1.0, 2.0), (5.0, 5.0)]) == pytest.approx(2.0)


def test_worker_spans_take_the_waiting_span_as_parent():
    tracer = tracing.Tracer()

    def leaf():
        return threading.get_ident()

    def fan_out():
        with ThreadPoolExecutor(max_workers=2) as pool:
            return [f.result() for f in [pool.submit(tracer.call, "leaf", leaf, (), {})
                                         for _ in range(4)]]

    tracer.call("root", fan_out, (), {})
    root = next(s for s in tracer.spans if s.name == "root")
    leaves = [s for s in tracer.spans if s.name == "leaf"]
    assert len(leaves) == 4
    assert all(s.parent == root.id and s.thread != root.thread for s in leaves)


def test_hooks_lose_no_update_under_thread_contention():
    counts = {"calls": 0}

    def count(span, arguments, result):
        seen = counts["calls"]
        for _ in range(50):      # widen the read-modify-write window
            pass
        counts["calls"] = seen + 1

    tracer = tracing.Tracer({"work": count})
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(tracer.call, "work", abs, (i,), {}) for i in range(4000)]
            assert [f.result(timeout=60) for f in futures] == list(range(4000))
    finally:
        sys.setswitchinterval(interval)
    assert counts["calls"] == 4000
    assert sum(s.name == "work" for s in tracer.spans) == 4000


def test_wrappers_are_removed_after_a_traced_run():
    originals = {(m.__name__, attr): fn for m in MODULES
                 for attr, fn in tracing.public_functions(m)}
    assert ("xbardse.xbar", "ideal_forward") in originals
    with pytest.raises(RuntimeError):
        with tracing.traced(tracing.Tracer(), MODULES):
            assert xbar.ideal_forward is not originals[("xbardse.xbar", "ideal_forward")]
            raise RuntimeError("abort the traced block")
    assert {(m.__name__, attr): getattr(m, attr) for m in MODULES
            for attr, _ in tracing.public_functions(m)} == originals
    assert xbar.ideal_forward is qnet.ideal_forward


def test_traced_dse_grid_writes_identical_results(tmp_path):
    workloads.generate("dse_grid", 0, tmp_path)
    runner = workloads.Runner("dse_grid", 0, tmp_path)
    plain = runner.run_pass(0)
    stats = layer_metrics.LayerStats()
    tracer = tracing.Tracer(stats.hooks())
    with tracing.traced(tracer, MODULES):
        traced = runner.run_pass(1)
    assert plain.ok == plain.attempted == 432
    assert traced.artifact == plain.artifact
    runner.check([plain, traced])
    metrics = stats.metrics(tracer.spans, 0.0)
    assert [name for name, _ in layer_metrics.PER_LAYER] == list(metrics)
    assert metrics["dse.evaluate_config.calls"] == 432
    assert metrics["mapping.network_plans.calls"] == 432
    assert metrics["qnet.ideal_forward.calls"] == metrics["xbar.calibrate_adc_ranges.calls"] == 288
