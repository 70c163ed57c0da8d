"""The environment record written with every benchmark result."""

from __future__ import annotations

import ctypes
import hashlib
import multiprocessing
import os
import platform
import subprocess
import sys
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_GET_THREADS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _blas_threads() -> dict:
    """Thread count each loaded OpenBLAS will use, keyed by library file name."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return {}
    out = {}
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in _GET_THREADS:
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.argtypes = []
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def _blas_version(module) -> str:
    try:
        return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except Exception:  # the config layout differs between releases
        return "unknown"


def git_sha(root: Path):
    """HEAD of the git checkout at root, or None outside git.

    Runs git in a child process, so call it outside the stage process, whose
    children's peak memory counts towards peak_rss_mb.
    """
    if not (root / ".git").exists():
        return None
    try:
        res = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def source_digest(src: Path) -> str:
    """sha256 of the voxmask sources, which identifies the code outside a git checkout."""
    h = hashlib.sha256()
    for f in sorted(p for p in src.rglob("*") if p.is_file() and p.suffix in (".py", ".json")):
        h.update(str(f.relative_to(src)).encode() + b"\0")
        h.update(f.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def record(root: Path) -> dict:
    """Call after numpy and scipy are imported, so their BLAS libraries are loaded.

    Starts no process; run.py adds the git SHA.
    """
    import numpy
    import scipy

    return {
        "voxmask_source_sha256": source_digest(root / "src" / "voxmask"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": _blas_version(numpy),
        "scipy_openblas": _blas_version(scipy),
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ.get(k, "unset") for k in THREAD_VARS},
        "mp_start_method": multiprocessing.get_start_method(),
    }
