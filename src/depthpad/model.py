"""The synthetic multi-frame model behind the demo, as one forward pass.

Depth labels, then seeded three-channel frames through the motion block, the
ConvGRU and fusion with the single-frame map, then the losses and the live
score. All randomness flows from the seed; the weights are fixed, not trained.
Each sample's result is one frozen DemoSample, whose fields, in order, are
the keys demo.json writes for that sample.
In full mode one worker thread draws the binary head while the calling
thread builds the labels and frames and runs the motion block and the
ConvGRU; nothing of a full-mode call outlives it.
"""

from __future__ import annotations

import functools
import os
import queue
import threading
import types
from dataclasses import dataclass

import numpy as np

from . import depthlabel, metrics
from .features import OffBlockWeights, off_sequence
from .recurrent import ConvGruCell, convgru_run, fuse_depth, sigmoid
from .supervision import BinaryHead, LossReport, multi_frame_report

DEMO_SURFACE = types.MappingProxyType(
    {"amplitude": 8.0, "center": (16.0, 16.0), "radius": 12.0, "grid_size": 65})
DEMO_REDUCE_CHANNELS = 16
DEMO_FUSE_CHANNELS = 32


@dataclass(frozen=True)
class DemoSample:
    """One sample's result: its losses, b_hat, masked depth term and score."""

    losses: LossReport
    b_hat: float
    depth_term: float
    score: float


def _demo_frames(base: np.ndarray, n_frames: int) -> np.ndarray:
    """(T, H, W, 3) frame stack; frame t is the base rolled down t rows."""
    stacked = np.stack([base * scale for scale in (0.5, 0.75, 1.0)], axis=2)
    rows = np.arange(len(base)) - np.arange(n_frames)[:, None]
    return stacked[rows % len(base)]


def demo_labels() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(living label, spoof label, int64 face mask) of DEMO_SURFACE."""
    living = depthlabel.generate_living_depth(
        depthlabel.synthesize_face_surface(**DEMO_SURFACE))
    return living, np.zeros_like(living), (living > 0).astype(np.int64)


class _HeadWorker:
    """One daemon thread that draws binary heads in submission order.

    The thread starts on the first submit, so importing this module or an
    oracle run starts none. numpy releases the GIL inside the normal draw,
    so a head drawn here overlaps the caller's motion pass.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._jobs: queue.SimpleQueue | None = None

    def submit(self, input_dim: int, seed: int) -> queue.SimpleQueue:
        """A queue that will hold BinaryHead.seeded's head, or what it raised."""
        done = queue.SimpleQueue()
        with self._lock:
            if self._jobs is None:
                self._jobs = queue.SimpleQueue()
                threading.Thread(target=_draw_heads, args=(self._jobs,),
                                 name="depthpad-head", daemon=True).start()
            self._jobs.put((input_dim, seed, done))
        return done

    def stop(self) -> None:
        """End the thread after its queued draws; the next submit starts one."""
        with self._lock:
            if self._jobs is not None:
                self._jobs.put(None)
                self._jobs = None


def _draw_heads(jobs: queue.SimpleQueue) -> None:
    # The head goes straight into its queue: a local here would keep the
    # largest array of the run alive until the next job arrives. Whatever
    # the draw raises goes to the caller, which raises it; a thread that
    # died instead would leave the caller waiting forever.
    while (job := jobs.get()) is not None:
        input_dim, seed, done = job
        try:
            done.put(BinaryHead.seeded(input_dim, seed=seed))
        except BaseException as exc:
            done.put(exc)


_HEADS = _HeadWorker()
if hasattr(os, "register_at_fork"):
    # A forked child inherits the queue and maybe a held lock, not the
    # thread: it starts afresh, or its first draw would wait forever.
    os.register_at_fork(after_in_child=_HEADS.__init__)


def _fused_maps(frames: np.ndarray, single_kernel: np.ndarray,
                off_weights: OffBlockWeights, cell: ConvGruCell,
                alpha: float) -> np.ndarray:
    """(T - 1, H, W) fused depth of one sample's (T, H, W, 3) frames.

    The motion blocks stream into the GRU, so one block is alive at a time.
    """
    # Step t fuses frame t + 1's single-frame map (a 1x1 conv, one matmul over
    # the frames); frame 0 needs none.
    single = sigmoid((frames[1:] @ single_kernel[0, 0])[..., 0])
    motion = off_sequence(frames, off_weights)
    states = convgru_run(cell, np.zeros(frames.shape[1:3] + (1,)), motion)
    return fuse_depth(single, states[..., 0], alpha)


def _sample_results(fused: dict, labels: tuple, head: BinaryHead | None,
                    beta: float) -> dict[str, DemoSample]:
    """One DemoSample per kind.

    labels is demo_labels(); each kind's label stands for every step.
    """
    living_label, spoof_label, mask = labels
    results = {}
    for kind, label, binary_label in (("living", living_label, 1),
                                      ("spoof", spoof_label, 0)):
        steps = np.broadcast_to(label, fused[kind].shape)
        report, b_hat = multi_frame_report(fused[kind], steps, head,
                                           binary_label, beta)
        depth_term = metrics.masked_depth_term(fused[kind], mask)
        score = metrics.living_score(b_hat, depth_term, beta)
        results[kind] = DemoSample(report, b_hat, depth_term, score)
    return results


@functools.lru_cache(maxsize=1)
def oracle_results(beta: float, frames: int
                   ) -> tuple[tuple[str, DemoSample], ...]:
    """run_model's oracle-mode results as (kind, DemoSample) pairs, immutable.

    They depend only on beta and frames, so the last request is kept.
    """
    labels = demo_labels()
    steps = (frames - 1,) + labels[0].shape
    truth = {"living": np.broadcast_to(labels[0], steps),
             "spoof": np.broadcast_to(labels[1], steps)}
    return tuple(_sample_results(truth, labels, None, beta).items())


def run_model(alpha: float, beta: float, frames: int, seed: int,
              oracle: bool) -> dict[str, DemoSample]:
    """One DemoSample per sample.

    The keys are "living" and "spoof", in that order. In oracle mode the
    ground-truth depth maps stand in for the fused maps and no binary head is
    drawn, so b_hat is 0.5; those results do not depend on alpha or seed, and
    oracle_results keeps the last (beta, frames) request's, so a warm call
    with the same two only copies them into a new dict. Full mode hands the
    head's draw to the worker thread first, then builds its weights, the
    labels and each sample's frames: the living sample's base is its label
    grid, and a planar ramp stands in for the flat printed texture. It
    collects the head once both fused maps exist, or once the set-up or the
    motion pass has failed, so no head outlives the call; each weight set
    has its own generator, so the order changes no value.
    """
    if oracle:
        return dict(oracle_results(beta, frames))
    grid = depthlabel.GRID_SIZE
    pending = _HEADS.submit((frames - 1) * grid * grid, seed + 3)
    try:
        off_weights = OffBlockWeights.seeded(
            3, reduce_channels=DEMO_REDUCE_CHANNELS,
            out_channels=DEMO_FUSE_CHANNELS, seed=seed + 1)
        cell = ConvGruCell.seeded(input_channels=DEMO_FUSE_CHANNELS,
                                  hidden_channels=1, scale=0.1, seed=seed + 2)
        single_kernel = (np.random.default_rng(seed)
                         .standard_normal((1, 1, 3, 1)))
        labels = demo_labels()
        ramp = np.tile(np.linspace(0.0, 1.0, grid)[:, None], (1, grid))
        fused = {kind: _fused_maps(_demo_frames(base, frames), single_kernel,
                                   off_weights, cell, alpha)
                 for kind, base in (("living", labels[0]), ("spoof", ramp))}
    finally:
        # Collected even when the set-up or the motion pass fails, so no
        # head outlives the call; that failure takes precedence over the draw's.
        head = pending.get()
    if isinstance(head, BaseException):
        raise head
    return _sample_results(fused, labels, head, beta)
