"""Input and environment fingerprint written with every result.

A changed input digest means the workload changed (for instance through
spoofnet.synth), so its timings are not comparable with the old ones.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np
import scipy

from spoofnet.model import SpoofNet, toy_config

# OpenBLAS builds prefix or suffix their symbols differently
_BLAS_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads")


def inputs_digest(root: Path) -> str:
    """sha256 over every file under root (WAVs, manifest, configs,
    checkpoints), by relative path and content."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode("utf-8") + b"\0")
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


def blas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS library loaded in this process."""
    found = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return found
    for lib_path in sorted(libs):
        try:
            lib = ctypes.CDLL(lib_path)
        except OSError:
            continue
        for symbol in _BLAS_THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                found[Path(lib_path).name] = int(fn())
                break
    return found


def predict_dtypes() -> dict[str, str]:
    """dtypes of SpoofNet.predict outputs for the default float32 config
    (float64 today: recorded, not checked)."""
    cfg = toy_config()
    zeros = np.zeros((cfg.n_frames, cfg.n_bins))
    out = SpoofNet(cfg).predict(zeros, zeros)
    return {"formants_hz": str(out.formants_hz.dtype),
            "voicing_prob": str(out.voicing_prob.dtype),
            "frame_weights": str(out.frame_weights.dtype)}


def machine_probe_ms(repeats: int = 5) -> float:
    """Median time of a fixed pure-Python and BLAS loop that shares no
    code with spoofnet: the machine's own speed at the time, to tell
    drift of a shared machine from a change in the program."""
    a = np.random.default_rng(0).random((200, 200))
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        for _ in range(10):
            a @ a
        times.append(perf_counter() - t0)
    return 1e3 * median(times)


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "predict_dtype": predict_dtypes(),
    }
