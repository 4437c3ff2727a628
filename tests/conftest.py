import importlib
import os
import pkgutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import depthpad
from depthpad.metrics import ATTACK, LIVING, RecordCounts, check_record
from depthpad.supervision import CONTRAST_OFFSETS

FULL_SUITE_BUDGET_S = 60.0


def pytest_sessionstart(session):
    session.config._suite_t0 = time.perf_counter()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    elapsed = time.perf_counter() - config._suite_t0
    verdict = "PASS" if elapsed < FULL_SUITE_BUDGET_S else "FAIL"
    terminalreporter.write_line(
        f"ACCEPTANCE {verdict}: full suite wall clock {elapsed:.1f}s "
        f"(budget {FULL_SUITE_BUDGET_S:.0f}s)")


def run_fresh(*args, env=None, check=True, text=True, timeout=60, **kwargs):
    """Run python on args with the package on its path; return the finished
    process. env holds more variables for the child, and the other keyword
    arguments go to subprocess.run."""
    src = str(Path(depthpad.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, *args],
                          env=dict(os.environ, PYTHONPATH=src, **(env or {})),
                          check=check, capture_output=True, text=text,
                          timeout=timeout, **kwargs)


def contrastive_kernels() -> np.ndarray:
    """The 8 center-minus-neighbor kernels of the contrastive loss, as an
    (8, 3, 3) array: +1 at each of CONTRAST_OFFSETS, -1 at the center."""
    kernels = np.zeros((8, 3, 3))
    for i, (di, dj) in enumerate(CONTRAST_OFFSETS):
        kernels[i, 1, 1] = -1.0
        kernels[i, 1 + di, 1 + dj] = 1.0
    return kernels


def record_counts(records, threshold) -> RecordCounts:
    """Counts of (score, label, attack_kind) tuples at threshold, each
    checked by check_record as the records reader checks a row."""
    living, groups = [0, 0], {}
    for score, label, kind in records:
        check_record(score, label)
        tally = (living if label == LIVING
                 else groups.setdefault(kind or ATTACK, [0, 0]))
        tally[0] += 1
        tally[1] += score >= threshold
    return RecordCounts(threshold, tuple(living),
                        tuple((name, tuple(tally))
                              for name, tally in sorted(groups.items())))


def clear_caches():
    """Empty the cache of every cached function a depthpad module defines,
    so that the next call runs its body."""
    for info in pkgutil.iter_modules(depthpad.__path__):
        module = importlib.import_module(f"depthpad.{info.name}")
        for obj in vars(module).values():
            if (hasattr(obj, "cache_clear")
                    and getattr(obj, "__module__", None) == module.__name__):
                obj.cache_clear()
