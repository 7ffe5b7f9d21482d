"""Environment record attached to every benchmark result."""

from __future__ import annotations

import ctypes
import glob
import os
import platform

import numpy as np
import scipy

_THREAD_QUERIES = ("scipy_openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_",
                   "openblas_get_num_threads")


def git_commit(root: str) -> str:
    """Commit of the checkout at ``root``, read from its .git directory.

    Returns "unknown" outside a git work tree; the parent directories are
    never searched.
    """
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def _blas(module) -> dict:
    """Name, version and live thread count of the BLAS a module ships."""
    try:
        info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        info = {}
    out = {"name": info.get("name", "unknown"),
           "version": info.get("version", "unknown"),
           "threads": None}
    pkg = os.path.dirname(module.__file__)
    libs = glob.glob(os.path.join(pkg + ".libs", "*openblas*.so*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in _THREAD_QUERIES:
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                out["threads"] = int(fn())
                return out
    return out


def cache_sizes() -> dict:
    """CPU cache sizes of cpu0 as reported by the kernel, e.g. L2: 2048K."""
    out = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(index, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(index, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(index, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
        out[f"L{level}{suffix}"] = size
    return out


def environment(root: str) -> dict:
    """Everything a reader needs to tell two result sets' machines apart."""
    return {
        "git_commit": git_commit(root),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(np),
        "scipy_blas": _blas(scipy),
        "threads_pinned": {k: v for k, v in sorted(os.environ.items())
                           if k.endswith("_NUM_THREADS")},
        "caches": cache_sizes(),
    }
