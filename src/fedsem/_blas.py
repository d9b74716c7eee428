"""Numpy's threads: OpenBLAS on one, plus one pinned worker for large inference calls.

Imported first, this module loads numpy with ``OPENBLAS_NUM_THREADS=1``, as numpy's
default pool spins against client steps too small to split. :func:`halves` gives
inference the second CPU through a worker pinned to one usable CPU (unpinned, it wakes
on its waker's CPU, and the halves run in turn); both halves run on one-thread
OpenBLAS, so no bit depends on the CPU count.
"""

import os
import sys
import threading
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
_claim = threading.Lock()  # held by the thread whose halves the worker computes
_worker = None  # (pid, start, done, slot) once this process's worker runs


def _serve(start, done, slot: list) -> None:
    """Pin to one usable CPU, then run each task left in ``slot``; a failed one leaves its error."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    while start.acquire():
        try:
            slot.pop()()  # so no reference to the task outlives the call
        except BaseException as error:  # the caller raises it
            slot.append(error)
        done.release()


def halves(first, second) -> None:
    """Call ``first`` here and ``second`` on the worker; return, or raise once, when both stop.

    Both run here, in turn, without an owned thread count, a second usable CPU or a free worker.
    """
    global _worker
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    if not (OWNED and (usable or 1) > 1 and _claim.acquire(blocking=False)):
        first()
        return second()
    try:
        # Put back once idle: after a wait cut short, say by Ctrl-C, the next call starts another.
        worker, _worker = _worker, None
        if worker is None or worker[0] != os.getpid():  # none yet, or the parent's before a fork
            worker = (os.getpid(), threading.Lock(), threading.Lock(), [])
            worker[1].acquire()
            worker[2].acquire()
            threading.Thread(target=_serve, args=worker[1:], name="fedsem", daemon=True).start()
        _, start, done, slot = worker
        slot.append(second)
        start.release()
        try:
            first()
        except BaseException:  # the caller's error wins once the worker has stopped
            done.acquire()
            _worker = worker
            slot.clear()
            raise
        done.acquire()
        _worker = worker
        if slot:
            raise slot.pop()
    finally:
        _claim.release()
