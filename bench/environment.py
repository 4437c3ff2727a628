"""The environment block recorded with every benchmark result."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_BLAS_THREAD_QUERIES = ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_",
                        "openblas_get_num_threads")


def blas_runtime() -> list:
    """Thread count and build string of every OpenBLAS loaded in this process.

    Reads the process's own memory map (Linux); elsewhere the list is empty.
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower() and "/" in line})
    except OSError:
        return []
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        entry = {"library": os.path.basename(path), "threads": None,
                 "config": None}
        for name in _BLAS_THREAD_QUERIES:
            query = getattr(lib, name, None)
            if query is not None:
                query.restype = ctypes.c_int
                query.argtypes = []
                entry["threads"] = query()
                config = getattr(lib, name.replace("get_num_threads",
                                                   "get_config"), None)
                if config is not None:
                    config.restype = ctypes.c_char_p
                    config.argtypes = []
                    entry["config"] = config().decode()
                break
        found.append(entry)
    return found


def _git_commit(root: Path):
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30,
                              check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def _source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    src = root / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or None


def describe(root: Path) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_build": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_runtime": blas_runtime(),
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "thread_pins": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(root),
    }
