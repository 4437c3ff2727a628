"""The benchmark's tracer still finds the library functions it times.

bench/tracing.py wraps depthpad functions by name. A rename in the library
leaves the tracer blind to that layer without failing the benchmark, so
this test fails instead.
"""

import importlib
import pkgutil
import sys
from pathlib import Path

import depthpad
from depthpad.geometry import AttackSceneConfig, simulate_sequence, write_sweep_csv
from depthpad.metrics import read_records_csv

BENCH = Path(__file__).resolve().parents[1] / "bench"
# Names the tracer lists that the library no longer has.
STALE_LAYERS = {"features.off_block", "supervision.BinaryHead.zeroed",
                "metrics.apcer_bpcer_acer", "metrics.hter"}


def test_tracer_binds_every_traced_function(monkeypatch, tmp_path):
    for module in pkgutil.iter_modules(depthpad.__path__):
        importlib.import_module(f"{depthpad.__name__}.{module.name}")
    monkeypatch.syspath_prepend(str(BENCH))
    try:
        tracing = importlib.import_module("tracing")
        tracer = tracing.Tracer()
        assert set(tracer.missing) <= STALE_LAYERS
        # The records count the tracer attaches is the data-row count.
        path = tmp_path / "records.csv"
        path.write_text("score,label,attack_kind\n0.9,living,\n\n"
                        "0.2,attack,print\n0.7,attack,\n")
        counts = read_records_csv(path, 0.5)
        assert len(counts) == 3
        assert tracing._records_read((path, 0.5), {}, counts) == {
            "metrics.read_records_csv.records": 3}
        # A sweep counts its frame steps, not its distinct steps, and the
        # written sweep counts its file's bytes.
        cfg = AttackSceneConfig(fa=1, fb=1, za=2, zb=4, d1=0.4, d2=1, dx=0.3)
        sweep = simulate_sequence(cfg, 9, [0.1, -0.1] * 4, starts=None)
        assert len(sweep.steps) == 2
        assert tracing._frames_simulated((cfg, 9), {}, sweep) == {
            "geometry.frames_simulated": 8}
        csv_path = tmp_path / "sweep.csv"
        write_sweep_csv(csv_path, {"replay": sweep})
        assert tracing._sweep_csv_bytes((csv_path, {"replay": sweep}), {},
                                        None) == {
            "geometry.write_sweep_csv.bytes": len(csv_path.read_bytes())}
    finally:
        sys.modules.pop("tracing", None)
