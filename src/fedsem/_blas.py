"""Numpy's threads: OpenBLAS on one, plus one short-lived thread per large inference block half.

Imported first, this module loads numpy with ``OPENBLAS_NUM_THREADS=1``, as numpy's
default pool spins against client steps too small to split. :func:`halves` gives
inference the second CPU through a thread started for one block half; both halves run on
one-thread OpenBLAS, so no bit depends on the CPU count.
"""

import _thread
import os
import sys
from importlib.util import find_spec
from pathlib import Path


def _own_threads() -> bool:
    """Load numpy with OpenBLAS on one thread if the count can be the package's; say if it did."""
    if "numpy" in sys.modules or "OPENBLAS_NUM_THREADS" in os.environ:
        return False
    spec = find_spec("numpy")
    places = spec.submodule_search_locations if spec else None
    if not places or not any((Path(places[0]).parent / "numpy.libs").glob("*openblas*")):
        return False
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401  OpenBLAS reads the variable once, as numpy loads it
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]  # so child processes do not inherit it
    return True


OWNED = _own_threads()


def halves(first, second) -> None:
    """Call ``first`` here and ``second`` on a new thread; return, or raise once, when both stop.

    The caller's error wins. Both run here, in turn, without an owned thread count or a
    second usable CPU. The thread comes from ``_thread``, as ``threading.Thread.start``
    waits until the new thread runs, a handshake that cost 6% of a scaled ``evaluate``.
    """
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    if not (OWNED and (usable or 1) > 1):
        first()
        return second()
    done, failed = _thread.allocate_lock(), []
    done.acquire()

    def run() -> None:
        try:
            second()
        except BaseException as error:  # the caller raises it
            failed.append(error)
        finally:
            done.release()

    _thread.start_new_thread(run, ())
    try:
        first()
    finally:
        done.acquire()
    if failed:
        raise failed.pop()
