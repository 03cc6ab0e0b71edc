"""Run tier-1 once under each OpenBLAS kernel this CPU can execute and
print the failing test ids per kernel.

    python tools/tier1_by_kernel.py [--kernels SkylakeX,Haswell,Sandybridge] [-- PYTEST_ARGS...]

An OpenBLAS built with DYNAMIC_ARCH (numpy's wheels) picks its kernel by
CPU at load time, and ``OPENBLAS_CORETYPE`` overrides that pick. Kernels
round some products differently, so a bit-exact test (the golden CSV
hashes) can pass under one kernel and fail under another; this shows on
one machine what a runner with another CPU would report. Each kernel gets
a fresh pytest process with ``OPENBLAS_CORETYPE`` set. A kernel whose CPU
flags are missing from ``/proc/cpuinfo`` is skipped, and so is one that
OpenBLAS does not load when asked (a child interpreter reports the core
name it loaded).

Exit status: 0 when every kernel that ran passes, 1 otherwise.
"""

import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Kernel -> CPU flags (as /proc/cpuinfo names them) its code needs.
KERNELS = {
    "SkylakeX": ("avx512f", "avx512bw", "avx512dq", "avx512vl"),
    "Haswell": ("avx2", "fma"),
    "Sandybridge": ("avx",),
}

# Prints the core name of the OpenBLAS that numpy loaded, or "unknown".
_CORENAME = r"""
import ctypes, numpy
name = "unknown"
paths = sorted({l.split()[-1] for l in open("/proc/self/maps") if "blas" in l.lower() and "/" in l})
for path in paths:
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        continue
    for symbol in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                   "openblas_get_corename64_", "openblas_get_corename"):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.restype = ctypes.c_char_p
            name = fn().decode()
            break
    if name != "unknown":
        break
print(name)
"""


def cpu_flags() -> set:
    try:
        with open("/proc/cpuinfo") as fh:
            return {flag for line in fh if line.startswith("flags") for flag in line.split(":", 1)[1].split()}
    except OSError:
        return set()


def loaded_core(env: dict) -> str:
    proc = subprocess.run([sys.executable, "-c", _CORENAME], capture_output=True, text=True, env=env)
    return proc.stdout.strip() or "unknown"


def run_tier1(env: dict, pytest_args) -> tuple:
    """(summary line, failing test ids) of one tier-1 run."""
    cmd = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
           "--continue-on-collection-errors", *pytest_args]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT)
    lines = proc.stdout.splitlines()
    failed = [re.split(r" - ", line.split(" ", 1)[1], maxsplit=1)[0]
              for line in lines if line.startswith(("FAILED ", "ERROR "))]
    summary = next((line.strip("= ") for line in reversed(lines) if " in " in line), "no summary")
    return summary, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--kernels", default=",".join(KERNELS),
                        help="comma-separated OPENBLAS_CORETYPE values (default: %(default)s)")
    parser.add_argument("pytest_args", nargs="*", help="extra pytest arguments, after --")
    args = parser.parse_args(argv)
    flags = cpu_flags()
    src = str(ROOT / "src")
    base = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    status = 0
    for kernel in args.kernels.split(","):
        missing = [f for f in KERNELS.get(kernel, ()) if f not in flags]
        if missing:
            print(f"{kernel}: skipped, the CPU lacks {', '.join(missing)}")
            continue
        env = dict(base, OPENBLAS_CORETYPE=kernel)
        core = loaded_core(env)
        if core.lower() != kernel.lower():
            print(f"{kernel}: skipped, OpenBLAS loaded core {core!r}")
            continue
        summary, failed = run_tier1(env, args.pytest_args)
        print(f"{kernel}: {summary}", flush=True)
        for test_id in failed:
            print(f"  {test_id}")
        status |= bool(failed) or "passed" not in summary
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
