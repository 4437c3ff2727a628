"""Span tracing for the benchmark's traced run.

The tracer wraps the public depthpad functions listed in LAYERS from the
outside: it replaces every module-level binding of each function (and the
class attribute of each classmethod) with a wrapper that records one span
per call, and puts the originals back on uninstall. Nothing under src/ is
changed. Spans stay in memory as [name, start_ns, end_ns, parent, op,
counts] and are written out once, when the run ends.

Every per-layer metric derives from the spans: calls, busy time, self time
(busy time minus the time covered by direct child spans; calls are
sequential, so direct children never overlap), and the counts a layer
attaches to its spans (computed conv2d flops, bytes written, records read,
frames simulated).
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional

PACKAGE = "depthpad"


def _conv2d_flop(args, kwargs, result) -> dict:
    """Computed work of one same-padded conv: 2*H*W*kH*kW*Cin*Cout flop.

    Kept as an integer so the per-op figure repeats exactly."""
    x = args[0] if args else kwargs["x"]
    kernel = args[1] if len(args) > 1 else kwargs["kernel"]
    h, w = x.shape[:2]
    kh, kw, cin, cout = kernel.shape
    return {"features.conv2d.flop": 2 * h * w * kh * kw * cin * cout}


def _frames_simulated(args, kwargs, result) -> dict:
    return {"geometry.frames_simulated": len(result)}


def _sweep_csv_bytes(args, kwargs, result) -> dict:
    path = args[0] if args else kwargs["path"]
    return {"geometry.write_sweep_csv.bytes": os.path.getsize(path)}


def _records_read(args, kwargs, result) -> dict:
    return {"metrics.read_records_csv.records": len(result)}


@dataclass(frozen=True)
class Layer:
    """One traced function: depthpad.<module>.<qualname>, plus its counts."""

    module: str
    qualname: str
    counts: Optional[Callable] = None
    count_names: tuple = ()

    @property
    def span_name(self) -> str:
        return f"{self.module}.{self.qualname}"


LAYERS = (
    Layer("features", "conv2d", _conv2d_flop),
    Layer("features", "off_block"),
    Layer("features", "spatial_gradient"),
    Layer("recurrent", "convgru_step"),
    Layer("recurrent", "fuse_depth"),
    Layer("depthlabel", "generate_living_depth"),
    Layer("depthlabel", "synthesize_face_surface"),
    Layer("supervision", "BinaryHead.seeded"),
    Layer("supervision", "BinaryHead.zeroed"),
    Layer("supervision", "multi_frame_report"),
    Layer("supervision", "contrastive_depth_loss"),
    Layer("supervision", "binary_loss"),
    Layer("geometry", "simulate_sequence", _frames_simulated,
          ("geometry.frames_simulated",)),
    Layer("geometry", "write_sweep_csv", _sweep_csv_bytes,
          ("geometry.write_sweep_csv.bytes",)),
    Layer("metrics", "read_records_csv", _records_read,
          ("metrics.read_records_csv.records",)),
    Layer("metrics", "metrics_summary"),
    Layer("metrics", "apcer_bpcer_acer"),
    Layer("metrics", "hter"),
    Layer("metrics", "living_score"),
    Layer("cli", "main"),
    Layer("cli", "build_parser"),
    Layer("cli", "svg_line_plot"),
    Layer("cli", "run_demo"),
)

class Tracer:
    """Records spans for the traced ops of one benchmark run."""

    def __init__(self):
        self.spans: list[list] = []
        self.current: Optional[int] = None
        self.op: Optional[int] = None
        self.missing: list[str] = []
        self._patches = self._plan_patches()

    def _wrap(self, name: str, fn: Callable, counts: Optional[Callable]):
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer.current
            span = [name, 0, 0, parent, tracer.op, None]
            tracer.current = len(tracer.spans)
            tracer.spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                tracer.current = parent
            if counts is not None:
                span[5] = counts(args, kwargs, result)
            return result

        return traced

    def _plan_patches(self) -> list[tuple]:
        """(owner, attribute, original, replacement) for every binding."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        patches = []
        for layer in LAYERS:
            try:
                home = importlib.import_module(f"{PACKAGE}.{layer.module}")
            except ImportError:
                self.missing.append(layer.span_name)
                continue
            owner_name, _, attr = layer.qualname.rpartition(".")
            if owner_name:
                owner = getattr(home, owner_name, None)
                raw = vars(owner).get(attr) if owner is not None else None
                if not isinstance(raw, classmethod):
                    self.missing.append(layer.span_name)
                    continue
                wrapped = self._wrap(layer.span_name, raw.__func__, layer.counts)
                patches.append((owner, attr, raw, classmethod(wrapped)))
                continue
            fn = getattr(home, attr, None)
            if not callable(fn):
                self.missing.append(layer.span_name)
                continue
            wrapped = self._wrap(layer.span_name, fn, layer.counts)
            for module in modules:
                for key, value in vars(module).items():
                    if value is fn:
                        patches.append((module, key, fn, wrapped))
        return patches

    def install(self) -> None:
        for owner, attr, _, replacement in self._patches:
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def bindings(self) -> list[str]:
        """Every patched binding, as owner.attribute, for the run details."""
        return sorted(f"{getattr(owner, '__name__', owner)}.{attr}"
                      for owner, attr, _, _ in self._patches)

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op, counts in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent,
                                     "op": op, "counts": counts}) + "\n")

    def layer_metrics(self, names, n_ops: int) -> dict:
        """Per-op values of the requested per-layer metric names.

        A name is <span>.<stat> with stat calls, busy_ms or self_ms, a count
        name some layer attaches to its spans, or one of the conv2d work
        figures features.conv2d.gflop and features.conv2d.gflops_per_s.
        """
        calls, busy, child, counts = {}, {}, {}, {}
        for name, start, end, parent, _, span_counts in self.spans:
            duration = end - start
            calls[name] = calls.get(name, 0) + 1
            busy[name] = busy.get(name, 0) + duration
            if parent is not None:
                parent_name = self.spans[parent][0]
                child[parent_name] = child.get(parent_name, 0) + duration
            for key, value in (span_counts or {}).items():
                counts[key] = counts.get(key, 0) + value
        span_names = {layer.span_name for layer in LAYERS}
        count_names = {c for layer in LAYERS for c in layer.count_names}
        values = {}
        for metric in names:
            span, _, stat = metric.rpartition(".")
            if metric in count_names:
                values[metric] = counts.get(metric, 0) / n_ops
            elif span in span_names and stat == "calls":
                values[metric] = calls.get(span, 0) / n_ops
            elif span in span_names and stat == "busy_ms":
                values[metric] = busy.get(span, 0) / 1e6 / n_ops
            elif span in span_names and stat == "self_ms":
                values[metric] = (busy.get(span, 0)
                                  - child.get(span, 0)) / 1e6 / n_ops
            elif metric == "features.conv2d.gflop":
                values[metric] = counts.get("features.conv2d.flop", 0) / n_ops / 1e9
            elif metric == "features.conv2d.gflops_per_s":
                nanoseconds = busy.get("features.conv2d", 0)
                flop = counts.get("features.conv2d.flop", 0)
                values[metric] = flop / nanoseconds if nanoseconds else 0.0
            else:
                raise KeyError(f"no layer or count produces {metric!r}")
        return values
