"""The demo model's process-wide caches, its head worker and its memory."""

import gc
import json
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import depthpad
from depthpad import cli, depthlabel, features, metrics, model
from depthpad.supervision import HEAD_HIDDEN, BinaryHead

ALPHA, BETA = 0.8, 0.9


def clear_caches():
    model.demo_labels.cache_clear()
    model.demo_inputs.cache_clear()
    model.oracle_results.cache_clear()


@pytest.fixture
def cold_labels():
    clear_caches()
    yield
    clear_caches()


def test_labels_rasterized_once_per_process(cold_labels, monkeypatch):
    calls = []
    real = depthlabel.generate_living_depth

    def counted(surface):
        calls.append(surface)
        return real(surface)

    monkeypatch.setattr(depthlabel, "generate_living_depth", counted)
    model.run_model(ALPHA, BETA, 3, seed=1, oracle=False)
    model.run_model(ALPHA, BETA, 3, seed=2, oracle=True)
    assert len(calls) == 1


@pytest.mark.parametrize("oracle", [False, True])
def test_cold_and_warm_labels_give_one_result(cold_labels, oracle):
    cold = model.run_model(ALPHA, BETA, 4, seed=5, oracle=oracle)
    warm = model.run_model(ALPHA, BETA, 4, seed=5, oracle=oracle)
    assert cold == warm


def test_cached_grids_are_read_only(cold_labels):
    for grid in model.demo_labels():
        with pytest.raises(ValueError):
            grid[0, 0] = 0.5
    assert model.demo_labels() is model.demo_labels()


def test_motion_stacks_built_once_across_seeds(cold_labels, monkeypatch):
    sobels = count_calls(monkeypatch, features, "spatial_gradient")
    for seed in (1, 2):
        for alpha in (0.3, ALPHA):
            model.run_model(alpha, BETA, 4, seed=seed, oracle=False)
    assert len(sobels) == 2 * 4  # one per frame of each kind


def test_demo_inputs_are_read_only(cold_labels):
    inputs = model.demo_inputs(3)
    assert [kind for kind, _ in inputs] == ["living", "spoof"]
    for _, stacks in inputs:
        assert stacks.shape == (3, depthlabel.GRID_SIZE + 2,
                                depthlabel.GRID_SIZE + 2, 9)
        with pytest.raises(ValueError):
            stacks[0, 0, 0, 0] = 0.5
    assert model.demo_inputs(3) is inputs
    # Each frame is held once, inside its stack: the unpadded first channels.
    living = inputs[0][1][0, 1:-1, 1:-1, 2]
    assert np.array_equal(living, model.demo_labels()[0])


def test_warm_full_result_equals_a_cold_one(cold_labels):
    # Warm inputs, kept across seeds and rebuilt when the frame count
    # changes, give the bytes a cold process gives.
    for frames in (4, 3, 4):
        model.run_model(ALPHA, BETA, frames, seed=1, oracle=False)
    warm = model.run_model(0.3, BETA, 4, seed=9, oracle=False)
    clear_caches()
    cold = model.run_model(0.3, BETA, 4, seed=9, oracle=False)
    assert repr(warm) == repr(cold)


def test_demo_inputs_cache_stays_bounded(cold_labels):
    for frames in (2, 3, 5, 3):
        model.run_model(ALPHA, BETA, frames, seed=0, oracle=False)
    info = model.demo_inputs.cache_info()
    assert (info.maxsize, info.currsize) == (1, 1)


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


def count_calls(monkeypatch, owner, name):
    calls = []
    real = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_oracle_work_runs_once_per_beta_and_frames(cold_labels, monkeypatch):
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


def test_warm_oracle_result_equals_a_cold_one(cold_labels):
    model.run_model(ALPHA, BETA, 4, seed=1, oracle=True)
    warm = model.run_model(0.3, BETA, 4, seed=9, oracle=True)
    clear_caches()
    cold = model.run_model(0.3, BETA, 4, seed=9, oracle=True)
    assert repr(warm) == repr(cold)


def test_mutating_an_oracle_result_leaves_the_next_intact(cold_labels):
    first = model.run_model(ALPHA, BETA, 4, seed=1, oracle=True)
    want = repr(first)
    first["living"] = None
    del first["spoof"]
    first["extra"] = 1
    assert repr(model.run_model(ALPHA, BETA, 4, seed=2, oracle=True)) == want


def test_oracle_cache_stays_bounded(cold_labels):
    for step in range(100):
        model.run_model(ALPHA, step / 99, 2, seed=0, oracle=True)
    info = model.oracle_results.cache_info()
    assert info.maxsize is not None
    assert info.currsize <= info.maxsize


@pytest.mark.parametrize("first, second", [(0.0, -0.0), (-0.0, 0.0)])
def test_signed_zero_betas_share_a_key_and_one_report(cold_labels, first,
                                                      second):
    # -0.0 == 0.0 and both hash alike, so one is served from the other's
    # cache entry; the report must still be the one a cold build writes.
    def report(beta):
        return json.dumps(cli.run_demo(ALPHA, beta, 5, 3, oracle=True))

    cold = report(second)
    clear_caches()
    report(first)
    assert report(second) == cold


def test_threads_on_a_cold_cache_get_one_result(cold_labels):
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


def test_threads_in_full_mode_get_their_serial_results(cold_labels,
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
    # An out-of-range alpha fails in fuse_depth, after the head was handed
    # to the worker. The caller still collects the head, so none is left
    # queued or alive once the error has been handled.
    drawn = []
    real = BinaryHead.seeded.__func__

    def slow(cls, input_dim, *, seed):
        time.sleep(0.2)  # outlasts the motion pass
        head = real(cls, input_dim, seed=seed)
        drawn.append(weakref.ref(head))
        return head

    monkeypatch.setattr(BinaryHead, "seeded", classmethod(slow))
    with pytest.raises(ValueError, match="alpha must lie in"):
        model.run_model(1.5, BETA, 3, seed=6, oracle=False)
    gc.collect()
    assert len(drawn) == 1
    assert drawn[0]() is None


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
    src = str(Path(depthpad.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", THREAD_PROBE],
                          env=dict(os.environ, PYTHONPATH=src), check=True,
                          capture_output=True, text=True, timeout=60)
    return done.stdout.splitlines()[-1]


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
