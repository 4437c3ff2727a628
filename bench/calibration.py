"""A fixed CPU workload timed around every op.

The benchmark runs on shared machines whose speed drifts by tens of
percent from minute to minute, and the drift slows this pass as much as it
slows an op. Dividing an op's latency by the calibration time measured
around it gives the op's cost in units of machine speed ("cal"), which
stays steady from run to run where the wall time does not. The pass mixes
what the ops do: interpreted float arithmetic and string formatting, small
numpy element-wise calls and a small BLAS matrix product.
"""

import time

import numpy as np

_MATRIX = np.random.default_rng(0).standard_normal((64, 64))


def calibration_seconds() -> float:
    start = time.perf_counter()
    x, text = 0.0, []
    for i in range(2000):
        x = x * 0.5 + i
        text.append(repr(x))
    ",".join(text).split(",")
    m = _MATRIX
    for _ in range(8):
        m = np.tanh(m @ _MATRIX * 0.01)
    return time.perf_counter() - start
