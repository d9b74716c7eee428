"""Numpy's OpenBLAS threads: one by default, every usable CPU inside :func:`all_cpus`.

A client step multiplies matrices too small for OpenBLAS to split, yet numpy
starts a pool of one thread per CPU, and after each threaded product the pool's
workers spin and compete with the main thread. The package imports this module
first, so it can load numpy with ``OPENBLAS_NUM_THREADS=1``: no pool starts.
No result depends on the thread count.
"""

from __future__ import annotations

import ctypes
import os
import sys
from contextlib import contextmanager
from importlib.util import find_spec
from pathlib import Path


def _own_threads():
    """OpenBLAS's ``set_num_threads`` once numpy has loaded it on one thread, else None.

    The count is the package's only when numpy is not loaded yet, the user has
    not set ``OPENBLAS_NUM_THREADS`` and numpy's wheel bundles OpenBLAS; the
    variable is removed again once numpy is loaded, so child processes do not
    inherit it.
    """
    if "numpy" in sys.modules or "OPENBLAS_NUM_THREADS" in os.environ:
        return None
    spec = find_spec("numpy")
    if spec is None or not spec.submodule_search_locations:
        return None
    bundle = Path(spec.submodule_search_locations[0]).parent / "numpy.libs"
    libraries = sorted(bundle.glob("*openblas*"))
    if not libraries:
        return None
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401  OpenBLAS reads the variable once, as numpy loads it
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]
    for lib in libraries:
        try:
            blas = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads"):
            if hasattr(blas, symbol):
                setter = getattr(blas, symbol)
                setter.argtypes, setter.restype = [ctypes.c_int], None
                return setter
    return None


_set_threads = _own_threads()


@contextmanager
def all_cpus():
    """Run the body with OpenBLAS on every usable CPU, and on one again after it.

    Does nothing when the package does not own the thread count.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    if _set_threads is None or (cpus or 1) < 2:
        yield
        return
    _set_threads(cpus)
    try:
        yield
    finally:
        _set_threads(1)
