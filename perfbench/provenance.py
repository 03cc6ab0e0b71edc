"""Environment metadata recorded with every benchmark result."""

import ctypes
import os
import platform
import subprocess
from pathlib import Path

import numpy as np

ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "LOWRANK_GD_THREADS")

# Symbols that report the thread count of an OpenBLAS build, newest
# naming first (scipy-openblas wheels prefix and suffix the symbols).
_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _blas_info() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return {}
    return {"name": blas.get("name"), "version": blas.get("version")}


def _loaded_blas_paths() -> list:
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "blas" in line.lower()}
    except OSError:
        return []
    return sorted(p for p in paths if p.startswith("/"))


def blas_threads():
    """Thread count the loaded OpenBLAS is configured to use, or None."""
    for path in _loaded_blas_paths():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git(root: Path, *args):
    try:
        out = subprocess.run(["git", "-C", str(root), *args], capture_output=True,
                             text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def collect(root) -> dict:
    """numpy and BLAS versions, BLAS threads, the thread environment,
    cores, Python, and the git commit with whether tracked files differ
    from it (None outside a git checkout)."""
    root = Path(root)
    sha = dirty = None
    if (root / ".git").exists():
        sha = _git(root, "rev-parse", "HEAD")
        status = _git(root, "status", "--porcelain", "--untracked-files=no")
        dirty = None if status is None else bool(status)
    return {
        "numpy": np.__version__,
        "blas": {**_blas_info(), "threads": blas_threads()},
        "env": {name: os.environ.get(name) for name in ENV_VARS},
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": sha,
        "git_dirty": dirty,
    }
