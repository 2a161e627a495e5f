"""Record of the machine and software a benchmark run measured."""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

import numpy as np

from procs import ROOT


def _blas() -> dict:
    info = {"name": "unknown", "version": "unknown", "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name", "unknown"), blas.get("version", "unknown")
    except (KeyError, TypeError):
        pass
    # The thread count is only known by asking the loaded OpenBLAS library.
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib_path in sorted(libs):
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def _llc_bytes():
    size = os.sysconf("SC_LEVEL3_CACHE_SIZE") if "SC_LEVEL3_CACHE_SIZE" in os.sysconf_names else 0
    if size > 0:
        return size
    index3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
    if index3.exists():
        text = index3.read_text().strip()
        scale = {"K": 1024, "M": 1024**2}.get(text[-1], 1)
        return int(text.rstrip("KM")) * scale
    return None


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.exists():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.exists():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def describe() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": _blas(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "llc_bytes": _llc_bytes(),
        "git_commit": _git_commit(),
    }
