"""Tests for the benchmark's own helpers (not for the program under test).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import multiprocessing as mp
import sys
import time
from concurrent.futures import Future
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

from benchlib import host, loadgen, metrics, spans, stats  # noqa: E402


# -- percentile with sample count ---------------------------------------------

def test_percentile_reports_value_count_and_support():
    values = list(range(1, 101))            # 1..100
    p90 = stats.percentile(values, 90)
    assert p90 == {"value": 90.0, "count": 100, "beyond": 10}
    p50 = stats.percentile(values, 50)
    assert p50["value"] == 50.0 and p50["beyond"] == 50


def test_percentile_nearest_rank_on_small_and_tied_samples():
    assert stats.percentile([7.0], 99) == {"value": 7.0, "count": 1,
                                           "beyond": 0}
    tied = stats.percentile([1, 2, 2, 2, 3], 50)
    assert tied["value"] == 2.0 and tied["beyond"] == 1
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 0)


# -- open-loop schedule and lateness -------------------------------------------

def test_poisson_schedule_is_seeded_and_sized_by_rate():
    a = loadgen.poisson_schedule(400.0, 2.0, seed=3)
    b = loadgen.poisson_schedule(400.0, 2.0, seed=3)
    c = loadgen.poisson_schedule(400.0, 2.0, seed=4)
    assert len(a) == 800
    assert (a == b).all() and not (a == c).all()
    assert (a[1:] > a[:-1]).all()
    # mean gap is 1/rate within sampling error
    assert a[-1] / len(a) == pytest.approx(1 / 400.0, rel=0.15)


def _done_future(value):
    fut = Future()
    fut.set_result(value)
    return fut


def test_open_loop_times_from_schedule_and_measures_lateness():
    offsets = [0.0, 0.01, 0.02, 0.03]
    stall = {1: 0.05}                       # request 1 blocks the sender

    def submit(i):
        time.sleep(stall.get(i, 0.0))
        return _done_future(i)

    res = loadgen.run_open_loop(submit, offsets)
    assert [r for r in res.results] == [0, 1, 2, 3]
    late = res.lateness
    assert (late >= 0).all()
    # the stall makes requests 2 and 3 leave late, by about the stall
    assert late[2] > 0.025 and late[3] > 0.015
    # latency runs from the due time, so it charges that delay
    assert (res.latencies >= late - 1e-9).all()
    report = loadgen.generator_report([res], rate=100.0)
    assert report["behind_schedule"]
    assert report["late_ms_p99"] > 15.0


def test_open_loop_counts_rejections_and_hung_requests():
    class Full(Exception):
        pass

    def submit(i):
        if i == 0:
            raise Full()
        if i == 1:
            return Future()                 # never resolves
        return _done_future(i)

    res = loadgen.run_open_loop(submit, [0.0, 0.001, 0.002], timeout=0.05,
                                rejected_exc=(Full,))
    assert res.rejected == 1
    assert isinstance(res.errors[1], loadgen.FutureTimeout)
    assert res.hung == 1
    assert res.results[2] == 2
    assert len(res.latencies) == 1 and math.isnan(res.done[1])


def test_on_time_generator_is_not_flagged():
    offsets = loadgen.poisson_schedule(200.0, 0.5, seed=1)
    res = loadgen.run_open_loop(lambda i: _done_future(i), offsets)
    report = loadgen.generator_report([res], rate=200.0)
    assert report["late_ms_p99"] < loadgen.LATE_P99_LIMIT_S * 1e3
    assert not report["behind_schedule"]


# -- self-time arithmetic ------------------------------------------------------

def test_covered_merges_overlaps_and_clips():
    assert spans.covered([(0, 2), (1, 3), (5, 6)], 0, 10) == 4
    assert spans.covered([(-1, 2), (8, 12)], 0, 10) == 4
    assert spans.covered([(3, 2)], 0, 10) == 0
    assert spans.covered([], 0, 10) == 0


def test_self_time_subtracts_children_union():
    S = spans.Span
    tree = [
        S(1, "request", 0.0, 10.0, None),
        S(2, "queue", 0.0, 4.0, 1),
        S(3, "encode", 4.0, 7.0, 1),
        S(4, "kernel", 4.5, 6.5, 3),
        S(5, "search", 6.0, 8.0, 1),        # overlaps encode by 1
    ]
    own = spans.self_times(tree)
    assert own[1] == pytest.approx(2.0)    # 10 - union(0..8)
    assert own[3] == pytest.approx(1.0)    # 3 - 2
    assert own[4] == pytest.approx(2.0)
    layers, n_roots = spans.self_time_by_layer(tree, "request")
    assert n_roots == 1
    assert layers == pytest.approx({"request": 2.0, "queue": 4.0,
                                    "encode": 1.0, "kernel": 2.0,
                                    "search": 2.0})


def test_orphans_are_their_own_roots():
    S = spans.Span
    tree = [S(1, "request", 0, 1, None), S(2, "encode", 0, 1, 99)]
    roots = spans.roots_of(tree)
    assert roots == {1: 1, 2: 2}
    layers, n_roots = spans.self_time_by_layer(tree, "request")
    assert n_roots == 1 and "encode" not in layers


def test_recorder_nests_wraps_and_restores():
    ticks = iter(range(100))
    rec = spans.SpanRecorder(clock=lambda: float(next(ticks)))

    class Thing:
        def work(self, x):
            return x * 2

    thing = Thing()
    seen = []
    rec.wrap(thing, "work", "thing.work",
             after=lambda sid, a, b, args, out: seen.append((args, out)))
    with rec.span("root") as root:
        assert thing.work(3) == 6
    assert seen == [((3,), 6)]
    by_name = {s.name: s for s in rec.spans}
    assert by_name["thing.work"].parent == root
    assert by_name["root"].parent is None
    rec.unwrap_all()
    assert "work" not in thing.__dict__ and thing.work(2) == 4


def test_background_thread_spans_parent_under_current_root():
    import threading

    rec = spans.SpanRecorder()
    with rec.span("chunk") as sid:
        rec.current_root = sid
        with rec.span("encode"):
            pass

        def background():
            with rec.span("retrain"):
                pass

        t = threading.Thread(target=background)
        t.start()
        t.join(timeout=5)
        assert not t.is_alive()
        rec.current_root = None
    parents = {s.name: s.parent for s in rec.spans}
    assert parents["retrain"] == sid and parents["encode"] == sid


# -- CPU accounting across child processes -------------------------------------

def _burn(seconds, ready):
    end = time.process_time() + seconds
    while time.process_time() < end:
        pass
    ready.set()
    time.sleep(30)


def test_cpu_seconds_include_a_live_child_process():
    ctx = mp.get_context("spawn")
    ready = ctx.Event()
    child = ctx.Process(target=_burn, args=(0.3, ready), daemon=True)
    child.start()
    try:
        assert ready.wait(timeout=60)
        child_cpu = host.process_cpu_seconds(child.pid)
        assert child_cpu >= 0.25
        total = host.cpu_seconds([child.pid, host.os.getpid()])
        assert total >= child_cpu
        assert host.peak_rss_mb([child.pid]) > 1.0
    finally:
        child.terminate()
        child.join(timeout=10)
    assert not child.is_alive()


def test_host_window_reports_phase_deltas():
    window = host.HostWindow([host.os.getpid()])
    end = time.process_time() + 0.05
    while time.process_time() < end:
        pass
    result = window.close()
    assert result["cpu_s"] >= 0.04
    assert result["wall_s"] >= result["cpu_s"] * 0.5
    assert result["steal_s"] >= 0 and result["host_cpu_s"] >= 0


_TRACKER_SCRIPT = """
import atexit, multiprocessing as mp, sys
sys.path.insert(0, sys.argv[1])
from benchlib.host import stop_resource_tracker
atexit.register(stop_resource_tracker)
if __name__ == "__main__":
    ctx = mp.get_context("spawn")
    queue = ctx.Queue()
    child = ctx.Process(target=print, daemon=True)
    child.start()
    child.join()
    from multiprocessing import resource_tracker
    print(resource_tracker._resource_tracker._pid, flush=True)
"""


def test_resource_tracker_ends_before_the_run_does(tmp_path):
    import subprocess

    script = tmp_path / "spawner.py"
    script.write_text(_TRACKER_SCRIPT)
    out = subprocess.run([sys.executable, str(script), str(HERE)],
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    tracker_pid = int(out.stdout.split()[-1])
    # reaped by the script itself, not left to outlive it
    with pytest.raises(ProcessLookupError):
        host.os.kill(tracker_pid, 0)


def test_pin_blas_threads_sets_every_variable():
    env = {}
    host.pin_blas_threads(env)
    assert env == {name: "1" for name in host.BLAS_ENV}


# -- metric-name validation ----------------------------------------------------

@pytest.mark.parametrize("name", ["latency_p50_ms", "serve.queue_wait_ms",
                                  "gen.late_ms_p99", "a-b.c_d", "9lives"])
def test_valid_metric_names(name):
    assert metrics.valid_name(name)


@pytest.mark.parametrize("name", ["", "_x", ".x", "lat ms", "p99%",
                                  "a/b", "x" * 65, "naïve"])
def test_invalid_metric_names(name):
    assert not metrics.valid_name(name)


def test_every_declared_metric_is_valid_and_unique():
    names = list(metrics.END_TO_END) + list(metrics.PER_LAYER)
    assert len(names) == len(set(names))
    for name in names:
        assert metrics.valid_name(name), name
    for unit in list(metrics.END_TO_END.values()) + list(
            metrics.PER_LAYER.values()):
        assert metrics.valid_unit(unit), unit


def test_result_line_has_exactly_the_contract_keys():
    spec = {"a": "ms", "b": "count"}
    line = json.loads(metrics.result_line(True, 5, 0, {"a": 1.5, "b": 0},
                                          spec))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["metrics"] == {"a": {"value": 1.5, "unit": "ms"},
                               "b": {"value": 0.0, "unit": "count"}}
    with pytest.raises(ValueError):
        metrics.result_line(True, 5, 0, {"a": 1.0}, spec)
    with pytest.raises(ValueError):
        metrics.result_line(True, 5, 0, {"a": 1.0, "b": math.nan}, spec)
    with pytest.raises(ValueError):
        metrics.result_line(True, 0, 0, {"a": 1.0, "b": 1.0}, spec)


def test_benchmark_json_matches_the_declared_metrics():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert e2e == metrics.END_TO_END
    assert layers == metrics.PER_LAYER
