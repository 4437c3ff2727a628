"""The demo model's result type, its oracle cache, its head worker and its
memory."""

import dataclasses
import gc
import json
import os
import signal
import sys
import threading
import time
import tracemalloc
import warnings
import weakref

import pytest

from depthpad import cli, depthlabel, features, metrics, model
from depthpad.supervision import HEAD_HIDDEN, BinaryHead

from conftest import clear_caches, run_fresh

ALPHA, BETA = 0.8, 0.9


@pytest.fixture
def cold_caches():
    clear_caches()
    yield
    clear_caches()


@pytest.mark.parametrize("oracle", [False, True])
def test_cold_and_warm_labels_give_one_result(cold_caches, oracle):
    cold = model.run_model(ALPHA, BETA, 4, seed=5, oracle=oracle)
    warm = model.run_model(ALPHA, BETA, 4, seed=5, oracle=oracle)
    assert cold == warm


@pytest.mark.parametrize("oracle", [False, True])
def test_each_kind_is_one_frozen_demo_sample(oracle):
    # demo.json writes each kind as its DemoSample's fields, in field order.
    samples = model.run_model(ALPHA, BETA, 3, seed=2, oracle=oracle)
    assert list(samples) == ["living", "spoof"]
    report = cli.run_demo(ALPHA, BETA, 3, 2, oracle=oracle)
    for kind, sample in samples.items():
        assert type(sample) is model.DemoSample
        with pytest.raises(dataclasses.FrozenInstanceError):
            sample.score = 0.0
        assert report[kind] == dataclasses.asdict(sample)
        assert list(report[kind]) == ["losses", "b_hat", "depth_term",
                                      "score"]


def test_each_full_call_builds_its_own_inputs(cold_caches, monkeypatch):
    # Nothing is kept between full-mode calls: each builds the living label
    # once and takes one Sobel per frame of each kind.
    labels = count_calls(monkeypatch, depthlabel, "generate_living_depth")
    sobels = count_calls(monkeypatch, features, "spatial_gradient")
    for seed in (1, 2):
        for alpha in (0.3, ALPHA):
            labels.clear()
            sobels.clear()
            model.run_model(alpha, BETA, 4, seed=seed, oracle=False)
            assert (len(labels), len(sobels)) == (1, 2 * 4)


def test_warm_full_result_equals_a_cold_one(cold_caches):
    # A process that has run other frame counts and seeds gives the bytes
    # a cold process gives.
    for frames in (4, 3, 4):
        model.run_model(ALPHA, BETA, frames, seed=1, oracle=False)
    warm = model.run_model(0.3, BETA, 4, seed=9, oracle=False)
    clear_caches()
    cold = model.run_model(0.3, BETA, 4, seed=9, oracle=False)
    assert repr(warm) == repr(cold)


def test_surface_is_read_only():
    with pytest.raises(TypeError):
        model.DEMO_SURFACE["radius"] = 1.0


def test_head_never_meets_a_whole_motion_stack():
    # The head's first layer is the largest array of a full-mode run. It is
    # drawn while the motion pass runs, and that pass streams one block at a
    # time into the GRU, so the traced peak stays close to the head's size.
    frames = 64
    model.run_model(ALPHA, BETA, frames, seed=0, oracle=False)
    head_bytes = (frames - 1) * depthlabel.GRID_SIZE ** 2 * HEAD_HIDDEN * 8
    tracemalloc.start()
    try:
        model.run_model(ALPHA, BETA, frames, seed=0, oracle=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * head_bytes, peak / head_bytes


def test_full_mode_keeps_nothing_after_a_call(cold_caches):
    # The head, the labels, the frames and the motion blocks all die with
    # the call. A short call first loads the modules numpy imports lazily,
    # so what is still traced afterwards is what the call kept.
    model.run_model(ALPHA, BETA, 2, seed=0, oracle=False)
    clear_caches()
    tracemalloc.start()
    try:
        model.run_model(ALPHA, BETA, 64, seed=0, oracle=False)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 2**20, held


def count_calls(monkeypatch, owner, name):
    calls = []
    real = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_oracle_work_runs_once_per_beta_and_frames(cold_caches, monkeypatch):
    reports = count_calls(monkeypatch, model, "multi_frame_report")
    depth_terms = count_calls(monkeypatch, metrics, "masked_depth_term")
    for seed in (1, 2):
        for alpha in (0.3, ALPHA):
            model.run_model(alpha, BETA, 4, seed=seed, oracle=True)
    assert (len(reports), len(depth_terms)) == (2, 2)  # one per kind
    model.run_model(ALPHA, 0.5, 4, seed=1, oracle=True)
    assert (len(reports), len(depth_terms)) == (4, 4)
    model.run_model(ALPHA, 0.5, 3, seed=1, oracle=True)
    assert (len(reports), len(depth_terms)) == (6, 6)


def test_warm_oracle_result_equals_a_cold_one(cold_caches):
    model.run_model(ALPHA, BETA, 4, seed=1, oracle=True)
    warm = model.run_model(0.3, BETA, 4, seed=9, oracle=True)
    clear_caches()
    cold = model.run_model(0.3, BETA, 4, seed=9, oracle=True)
    assert repr(warm) == repr(cold)


def test_mutating_an_oracle_result_leaves_the_next_intact(cold_caches):
    first = model.run_model(ALPHA, BETA, 4, seed=1, oracle=True)
    want = repr(first)
    first["living"] = None
    del first["spoof"]
    first["extra"] = 1
    assert repr(model.run_model(ALPHA, BETA, 4, seed=2, oracle=True)) == want


def test_oracle_cache_stays_bounded(cold_caches):
    for step in range(100):
        model.run_model(ALPHA, step / 99, 2, seed=0, oracle=True)
    info = model.oracle_results.cache_info()
    assert info.maxsize is not None
    assert info.currsize <= info.maxsize


@pytest.mark.parametrize("first, second", [(0.0, -0.0), (-0.0, 0.0)])
def test_signed_zero_betas_share_a_key_and_one_report(cold_caches, first,
                                                      second):
    # -0.0 == 0.0 and both hash alike, so one is served from the other's
    # cache entry; the report must still be the one a cold build writes.
    def report(beta):
        return json.dumps(cli.run_demo(ALPHA, beta, 5, 3, oracle=True))

    cold = report(second)
    clear_caches()
    report(first)
    assert report(second) == cold


def test_threads_on_a_cold_cache_get_one_result(cold_caches):
    barrier = threading.Barrier(2, timeout=30)
    results = [None, None]

    def work(i):
        barrier.wait()
        results[i] = model.run_model(ALPHA, BETA, 5, seed=i, oracle=True)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()
    assert results[0] is not None
    assert repr(results[0]) == repr(results[1])


def head_workers():
    return [t for t in threading.enumerate() if t.name == "depthpad-head"]


def test_threads_in_full_mode_get_their_serial_results(cold_caches,
                                                       monkeypatch):
    # More callers than cores race to start the worker on a cold cache; they
    # share one worker, and each gets its own seed's head.
    seeds = (3, 4, 5, 6)
    serial = [repr(model.run_model(ALPHA, BETA, 5, seed=s, oracle=False))
              for s in seeds]
    clear_caches()
    model._HEADS.stop()
    real_queue = model.queue.SimpleQueue

    def slow_queue():
        # Widens the gap between seeing no worker and starting one.
        time.sleep(0.01)
        return real_queue()

    monkeypatch.setattr(model.queue, "SimpleQueue", slow_queue)
    deadline = time.monotonic() + 10
    while head_workers() and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not head_workers()
    barrier = threading.Barrier(len(seeds), timeout=30)
    results = [None] * len(seeds)

    def work(i):
        barrier.wait()
        results[i] = repr(model.run_model(ALPHA, BETA, 5, seed=seeds[i],
                                          oracle=False))

    threads = [threading.Thread(target=work, args=(i,))
               for i in range(len(seeds))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert results == serial
    assert len(head_workers()) == 1


def test_a_failed_draw_raises_in_the_caller(monkeypatch):
    want = repr(model.run_model(ALPHA, BETA, 3, seed=4, oracle=False))
    error = RuntimeError("draw failed")

    def failing(cls, input_dim, *, seed):
        raise error

    monkeypatch.setattr(BinaryHead, "seeded", classmethod(failing))
    with pytest.raises(RuntimeError) as raised:
        model.run_model(ALPHA, BETA, 3, seed=4, oracle=False)
    assert raised.value is error
    monkeypatch.undo()
    # The worker survives its job's failure and draws the next head.
    assert repr(model.run_model(ALPHA, BETA, 3, seed=4, oracle=False)) == want


def test_a_failed_motion_pass_waits_for_its_head(monkeypatch):
    # An out-of-range alpha fails in fuse_depth, and a negative seed in a
    # weight draw, both after the head was handed to the worker. The caller
    # still collects the head, so none is left queued or alive once the
    # error has been handled.
    drawn = []
    real = BinaryHead.seeded.__func__

    def slow(cls, input_dim, *, seed):
        time.sleep(0.2)  # outlasts the motion pass
        head = real(cls, input_dim, seed=seed)
        drawn.append(weakref.ref(head))
        return head

    monkeypatch.setattr(BinaryHead, "seeded", classmethod(slow))
    for alpha, seed, error in ((1.5, 6, "alpha must lie in"),
                               (ALPHA, -1, "expected non-negative integer")):
        drawn.clear()
        with pytest.raises(ValueError, match=error):
            model.run_model(alpha, BETA, 3, seed=seed, oracle=False)
        gc.collect()
        assert len(drawn) == 1, seed
        assert drawn[0]() is None, seed


# Imports the model, runs oracle mode, then a full-mode demo command, and
# prints the Python thread count after each step and whether a module the
# worker does not need was loaded.
THREAD_PROBE = """
import sys, tempfile, threading
from depthpad import cli, model
counts = [threading.active_count()]
model.run_model(0.8, 0.9, 3, seed=1, oracle=True)
counts.append(threading.active_count())
with tempfile.TemporaryDirectory() as out:
    assert cli.main(["demo", "--frames", "3", "--out", out]) == 0
counts.append(threading.active_count())
print(counts, sorted(m for m in ("concurrent.futures", "logging")
                     if m in sys.modules))
"""


@pytest.fixture(scope="module")
def fresh_process_probe():
    return run_fresh("-c", THREAD_PROBE).stdout.splitlines()[-1]


def test_import_and_oracle_runs_start_no_thread(fresh_process_probe):
    # One thread after the import and after an oracle run; the full-mode
    # run adds the head worker.
    assert fresh_process_probe.startswith("[1, 1, 2] ")


def test_full_mode_loads_no_executor_or_logging(fresh_process_probe):
    assert fresh_process_probe.endswith(" []")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_starts_its_own_worker():
    # The child inherits the worker's queue but not its thread; reusing the
    # queue would wait forever, so the alarm ends a child that hangs.
    want = repr(model.run_model(ALPHA, BETA, 4, seed=8, oracle=False))
    with warnings.catch_warnings():
        # Python 3.12+ warns about forking a process that has threads.
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        status = 1
        try:
            signal.alarm(10)
            got = repr(model.run_model(ALPHA, BETA, 4, seed=8, oracle=False))
            status = 0 if got == want else 1
        finally:
            os._exit(status)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
