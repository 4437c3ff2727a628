"""The demo model's process-wide ground truth and its allocation order."""

import tracemalloc

import pytest

from depthpad import depthlabel, model
from depthpad.supervision import HEAD_HIDDEN

ALPHA, BETA = 0.8, 0.9


@pytest.fixture
def cold_labels():
    model.demo_labels.cache_clear()
    yield
    model.demo_labels.cache_clear()


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
