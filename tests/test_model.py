"""The demo model's process-wide caches and its allocation order."""

import json
import threading
import tracemalloc

import numpy as np
import pytest

from depthpad import cli, depthlabel, features, metrics, model
from depthpad.supervision import HEAD_HIDDEN

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


def test_head_is_drawn_after_the_motion_tensors_are_freed():
    # The head's first layer is the largest array of a full-mode run; with
    # the head drawn last, the motion blocks and GRU states never coexist
    # with it, and the traced peak stays close to its size.
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
