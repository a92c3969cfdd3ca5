"""The copy roofline and the environment record of a benchmark run."""

from __future__ import annotations

import os
import platform
import time
from pathlib import Path

import numpy as np

#: Copies timed per roofline measurement, at least.
COPY_REPEATS = 20
#: Seconds the roofline measurement runs, at least.
COPY_SECONDS = 0.2


def copy_gbps(size: int) -> float:
    """Best-of-N bandwidth of ``np.copyto`` between two float64 vectors of ``size``.

    Counts 16 B per element (one read, one write), the same minimum the
    operators are charged, so ``operator GB/s / copy GB/s`` is the share of a
    copy's speed an operator reaches at that size.
    """
    src = np.arange(size, dtype=np.float64)
    dst = np.empty_like(src)
    np.copyto(dst, src)
    best = float("inf")
    start = time.perf_counter()
    repeats = 0
    while repeats < COPY_REPEATS or time.perf_counter() - start < COPY_SECONDS:
        t0 = time.perf_counter()
        np.copyto(dst, src)
        best = min(best, time.perf_counter() - t0)
        repeats += 1
    return 16 * size / best / 1e9


def _read(path: str | Path) -> str | None:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return None


def cpu_model() -> str | None:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def cache_sizes() -> dict:
    """Cache sizes of CPU 0 as the kernel reports them, e.g. {"L2": "2048K"}."""
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / name) for name in ("level", "type", "size"))
        if level and size:
            caches[f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")] = size
    return caches


def _kib(text: str | None) -> int | None:
    if text and text.endswith("K") and text[:-1].isdigit():
        return int(text[:-1])
    return None


def git_sha(root: Path) -> str | None:
    """HEAD's commit read from ``.git`` without running git; None outside a repository."""
    head = _read(root / ".git" / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    sha = _read(root / ".git" / ref)
    if sha is not None:
        return sha
    for line in (_read(root / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def blas_config() -> dict | str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        return "unknown"
    return {key: blas.get(key) for key in ("name", "version", "openblas configuration")}


def environment(root: Path, workload, seed: int) -> dict:
    caches = cache_sizes()
    l3 = _kib(caches.get("L3"))
    # the copy reads one vector and writes another
    copy_bytes = 16 * workload.vector_size
    return {
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_config(),
        "thread_env": {var: os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model(),
        "caches": caches,
        "workload": workload.name,
        "inputs": workload.describe(),
        "vector_size": workload.vector_size,
        "seed": seed,
        "roofline": {
            "copy_bytes": copy_bytes,
            "cache_resident": None if l3 is None else copy_bytes <= l3 * 1024,
            "note": "operator and copy GB/s are computed from 16 B per unknown, not measured traffic; "
                    "when cache_resident is true the copy fits the reported last-level cache, "
                    "so the roofline is a cache roofline, not a DRAM one",
        },
    }
