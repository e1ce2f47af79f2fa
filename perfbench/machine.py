"""The machine a result was measured on, and the BLAS thread count observed."""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

import numpy as np

# thread-count getters of the OpenBLAS builds numpy wheels bundle or link
_THREAD_GETTERS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads")


def _blas_libraries():
    libs_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs_dir.glob("*blas*")) if libs_dir.is_dir() else []:
        yield ctypes.CDLL(str(path))
    yield ctypes.CDLL(None)


def blas_threads() -> int | None:
    """Thread count the loaded BLAS reports, or None if none can be asked."""
    for lib in _blas_libraries():
        for symbol in _THREAD_GETTERS:
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_build() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return {"name": "unknown", "version": "unknown"}
    return {"name": blas.get("name", "unknown"),
            "version": blas.get("version", "unknown")}


def machine_record(threads: int | None) -> dict:
    blas = _blas_build()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_vendor": blas["name"],
        "blas_version": blas["version"],
        "blas_threads": threads,
    }
