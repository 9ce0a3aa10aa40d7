"""The environment block printed with every benchmark result."""
from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent

MACHINE_WIDE = ("none: no machine-wide tracing, CPU pinning or cache drops; "
                "spans are wrapped around qns functions inside the benchmark's "
                "own process")

# thread-count getters exported by the OpenBLAS builds numpy and scipy ship
_BLAS_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads")


def _blas_threads() -> str:
    """Threads of each loaded OpenBLAS library, read from this process's own map."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return "unknown"
    libs = sorted({line.split()[-1] for line in maps.splitlines()
                   if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    found = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in _BLAS_THREAD_SYMBOLS:
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                found.append(f"{Path(path).name}={getter()}")
                break
    return ", ".join(found) or "unknown"


def _blas_name() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas.get('name')} {blas.get('version')}"


def _git_commit() -> str:
    """HEAD of the checkout, read from its .git directory; no git process."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def describe() -> dict:
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_name(),
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
        "machine_wide": MACHINE_WIDE,
    }
