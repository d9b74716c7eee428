"""Threads: who owns OpenBLAS's count, the inference half threads, and that no bit depends on them.

The ownership cases run in a fresh interpreter, because the package decides
ownership once, at its first import, and this test process imported numpy
first. The contract of :func:`fedsem._blas.halves` is tested in this process
too, with ownership patched on: the layers here are narrow, so their bits do
not depend on the thread count of the OpenBLAS this process loaded. The
second half runs on a thread from ``_thread``, which ``threading`` knows
nothing of, so the spies tell it from the caller by ``threading.get_ident()``:
``threading.current_thread()`` would register a dummy thread for it.
"""

from __future__ import annotations

import gc
import json
import os
import signal
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

import fedsem as fs
from fedsem import _blas, model

SRC = str(Path(fs.__file__).resolve().parents[1])
CANONICAL_INI = Path(__file__).resolve().parents[1] / "configs" / "canonical.ini"
OPENBLAS = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
USABLE_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1

# Reports the OpenBLAS thread count after import, and for each forward call
# of a single-block, a multi-block and a failing multi-block call one entry
# [count, half, on the caller] per block half (0 first, 1 second), then the
# count and the threads after the call: those threading knows, and the
# number of the process's tasks beyond those before the call once they stop
# (polled for up to 1 s; None without /proc/self/task).
PROBE = """
import ctypes, json, os, sys, threading, time
if sys.argv[1] == "numpy-first":
    import numpy
import fedsem
import numpy as np
from fedsem import model

blas = ctypes.CDLL(sys.argv[2])
count = getattr(blas, "scipy_openblas_get_num_threads64_", None) or blas.openblas_get_num_threads
report = {"variable": os.environ.get("OPENBLAS_NUM_THREADS"), "import": count(),
          "cpus": len(os.sched_getaffinity(0))}
inner, seen, fail_at = model._forward, [], [None]
caller = threading.get_ident()

def spy(layers, x, outs):
    half = int(x.__array_interface__["data"][0] != x.base.__array_interface__["data"][0])
    seen.append([count(), half, threading.get_ident() == caller])
    if len(seen) == fail_at[0]:
        raise RuntimeError("block failed")
    return inner(layers, x, outs)

model._forward = spy
params = fedsem.init_params((16, 48, 10), seed=0)
rows = model._block_rows(params.layer_dims)
x = np.zeros((2 * rows + 1, 16))

def tasks():
    return len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None

for name, n, fail in [("single", rows, None), ("multi", len(x), None), ("failing", len(x), 2)]:
    seen.clear()
    fail_at[0] = fail
    before = tasks()
    try:
        fedsem.forward(params, x[:n])
    except RuntimeError:
        pass
    after = count()
    deadline = time.monotonic() + 1.0
    while before is not None and tasks() > before and time.monotonic() < deadline:
        time.sleep(0.01)
    report[name] = {"during": sorted(seen), "after": after,
                    "threads": sorted(t.name for t in threading.enumerate()),
                    "new tasks": None if before is None else tasks() - before}
print(json.dumps(report))
"""

# Prints the sha256 of forward's bytes for two stacks of 257-wide layers at
# 2B+123 rows, after restricting the process to the CPU in argv[1], if any.
WIDE_FORWARD = """
import hashlib, os, sys
if sys.argv[1:]:
    os.sched_setaffinity(0, {int(sys.argv[1])})
import fedsem
import numpy as np
from fedsem import model

for dims in [(32, 257, 10), (32, 257, 257, 10)]:
    params = fedsem.init_params(dims, seed=0)
    x = np.random.default_rng(1).standard_normal((2 * model._block_rows(dims) + 123, 32))
    print(hashlib.sha256(fedsem.forward(params, x).tobytes()).hexdigest())
"""

# A child forked after a multi-block call makes one itself and exits; an
# alarm kills it if it hangs.
FORK = """
import os, signal, sys
import fedsem
import numpy as np
from fedsem import model

params = fedsem.init_params((16, 48, 10), seed=0)
x = np.random.default_rng(0).standard_normal((2 * model._block_rows(params.layer_dims) + 1, 16))
expected = fedsem.forward(params, x)
pid = os.fork()
if pid == 0:
    signal.alarm(30)
    os._exit(0 if np.array_equal(fedsem.forward(params, x), expected) else 1)
_, status = os.waitpid(pid, 0)
sys.exit(os.waitstatus_to_exitcode(status))
"""

# A wait for the second half cut short by a signal raises in the caller; the
# next multi-block call must be whole while the cut call's half still runs.
INTERRUPT = """
import signal, threading, time
import fedsem
import numpy as np
from fedsem import model

params = fedsem.init_params((16, 48, 10), seed=0)
x = np.random.default_rng(0).standard_normal((2 * model._block_rows(params.layer_dims) + 1, 16))
expected = fedsem.forward(params, x)
inner, caller = model._forward, threading.get_ident()

def slow_second(layers, h, outs):
    if threading.get_ident() != caller:
        time.sleep(1.0)
    return inner(layers, h, outs)

def interrupt(*_):
    raise KeyboardInterrupt

signal.signal(signal.SIGALRM, interrupt)
model._forward = slow_second
signal.setitimer(signal.ITIMER_REAL, 0.3)
try:
    fedsem.forward(params, x)
    raise SystemExit("the call was not interrupted")
except KeyboardInterrupt:
    pass
model._forward = inner
signal.signal(signal.SIGALRM, signal.SIG_DFL)
signal.alarm(30)  # ends a hung call
if not np.array_equal(fedsem.forward(params, x), expected):
    raise SystemExit("the call after the interrupted one differs")
"""


def fresh_env(**variables) -> dict:
    """This process's environment for a child on ``src``, without the thread variable."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env.update(variables)
    return env


def child(script: str, *args: str, **variables) -> str:
    done = subprocess.run(
        [sys.executable, "-c", script, *args], env=fresh_env(**variables),
        check=True, capture_output=True, text=True, timeout=120,
    )
    return done.stdout


def probe(order: str, **variables) -> dict:
    return json.loads(child(PROBE, order, str(OPENBLAS[0]), **variables))


needs_bundled_openblas = pytest.mark.skipif(
    not OPENBLAS, reason="numpy does not bundle OpenBLAS in numpy.libs"
)
needs_two_cpus = pytest.mark.skipif(USABLE_CPUS < 2, reason="needs 2 usable CPUs")


@needs_bundled_openblas
class TestOwnedThreads:
    @pytest.fixture(scope="class")
    def report(self):
        return probe("fedsem-first")

    def test_import_leaves_one_thread_and_no_variable(self, report):
        assert report["variable"] is None
        assert report["import"] == 1

    def test_single_block_call_keeps_one_thread(self, report):
        assert report["single"]["during"] == [[1, 0, True]]
        assert report["single"]["after"] == 1
        assert report["single"]["threads"] == ["MainThread"]

    def test_multi_block_call_keeps_one_thread(self, report):
        assert {entry[0] for entry in report["multi"]["during"]} == {1}
        assert len(report["multi"]["during"]) == 6
        assert report["multi"]["after"] == 1

    def test_second_half_runs_on_another_thread(self, report):
        threaded = report["cpus"] > 1
        assert report["multi"]["during"] == [[1, 0, True]] * 3 + [[1, 1, not threaded]] * 3
        assert report["multi"]["threads"] == ["MainThread"]

    @pytest.mark.parametrize("case", ["multi", "failing"])
    def test_no_thread_outlives_a_call(self, report, case):
        if report[case]["new tasks"] is None:
            pytest.skip("no /proc/self/task")
        assert report[case]["new tasks"] == 0

    def test_failing_half_keeps_one_thread(self, report):
        assert report["failing"]["during"] == sorted([[1, 0, True], [1, 1, report["cpus"] < 2]])
        assert report["failing"]["after"] == 1


@needs_bundled_openblas
@pytest.mark.parametrize(
    "order, variables",
    [("numpy-first", {}), ("fedsem-first", {"OPENBLAS_NUM_THREADS": "1"}),
     ("fedsem-first", {"OPENBLAS_NUM_THREADS": "2"})],
    ids=["numpy-first", "variable-1", "variable-2"],
)
def test_count_untouched_when_not_owned(order, variables):
    report = probe(order, **variables)
    assert report["variable"] == variables.get("OPENBLAS_NUM_THREADS")
    start = report["import"]
    assert report["single"]["during"] == [[start, 0, True]]
    assert report["multi"]["during"] == [[start, 0, True]] * 3 + [[start, 1, True]] * 3
    assert report["failing"]["during"] == [[start, 0, True], [start, 1, True]]
    for case in ("single", "multi", "failing"):
        assert report[case]["after"] == start
        assert report[case]["threads"] == ["MainThread"]


@needs_bundled_openblas
@needs_two_cpus
@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no os.sched_setaffinity")
def test_wide_layer_bits_do_not_depend_on_usable_cpus():
    one_cpu = child(WIDE_FORWARD, str(min(os.sched_getaffinity(0))))
    assert one_cpu == child(WIDE_FORWARD)
    assert len(one_cpu.split()) == 2


def test_multi_block_run_bits_do_not_depend_on_threads(tmp_path):
    # CI's "blocked" row: 6,000 evaluation rows and 19,200 hidden rows span
    # several forward blocks, so an owned count hands each block's second half
    # to a thread of its own.
    outputs = {}
    for setting in (None, "1", "2"):
        out = tmp_path / f"threads-{setting}"
        variables = {} if setting is None else {"OPENBLAS_NUM_THREADS": setting}
        subprocess.run(
            [sys.executable, "-m", "fedsem.cli", "run", "--config", str(CANONICAL_INI),
             "--override", "dataset.samples=30000", "--override", "federation.rounds=4",
             "--out", str(out), "--quiet"],
            env=fresh_env(**variables), check=True, capture_output=True,
        )
        outputs[setting] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert set(outputs[None]) >= {"result.json", "history.csv"}
    assert outputs["1"] == outputs[None]
    assert outputs["2"] == outputs[None]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
def test_forked_child_runs_a_multi_block_call():
    child(FORK)


@needs_bundled_openblas
@needs_two_cpus
@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="no signal.setitimer")
def test_call_after_an_interrupted_wait_is_whole():
    child(INTERRUPT)


@pytest.fixture
def owned(monkeypatch):
    """This process's per-half threads switched on, with a model and a three-block input."""
    monkeypatch.setattr(_blas, "OWNED", True)
    params = fs.init_params((16, 48, 10), seed=0)
    x = np.random.default_rng(0).standard_normal((2 * model._block_rows(params.layer_dims) + 1, 16))
    return params, x


def on_caller() -> bool:
    return threading.get_ident() == threading.main_thread().ident


@needs_two_cpus
@pytest.mark.parametrize("failing", ["caller", "thread", "both"])
def test_failing_half_raises_once_after_the_other_stops(owned, monkeypatch, failing):
    params, x = owned
    expected = fs.forward(params, x)
    inner, events = model._forward, []

    def spy(layers, h, outs):
        side = "caller" if on_caller() else "thread"
        if failing in (side, "both"):
            events.append(f"{side} raised")
            raise RuntimeError(side)
        time.sleep(0.05)
        result = inner(layers, h, outs)
        events.append(f"{side} done")
        return result

    monkeypatch.setattr(model, "_forward", spy)
    with pytest.raises(RuntimeError, match="caller" if failing == "both" else failing):
        fs.forward(params, x)
    other = {"caller": ["thread done"], "thread": ["caller done"], "both": []}[failing]
    assert sorted(events) == sorted([f"{side} raised" for side in ("caller", "thread")
                                     if failing in (side, "both")] + other)
    monkeypatch.setattr(model, "_forward", inner)
    np.testing.assert_array_equal(fs.forward(params, x), expected)


def test_concurrent_callers_get_serial_results(owned):
    params, x = owned
    inputs = [x, x[::-1].copy(), x[: len(x) - 5], x[7:]]
    expected = [fs.forward(params, a) for a in inputs]
    start, results = threading.Barrier(2), {}

    def call(k: int) -> None:
        start.wait()
        for i in range(k, 4 * 3, 2):
            results[i] = fs.forward(params, inputs[i % 4])

    threads = [threading.Thread(target=call, args=(k,), daemon=True) for k in (0, 1)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert sorted(results) == list(range(12))
    for i, got in results.items():
        np.testing.assert_array_equal(got, expected[i % 4])


class HalfFailed(RuntimeError):
    """A failure that, unlike RuntimeError itself, takes a weak reference."""


@needs_two_cpus
@pytest.mark.parametrize("failing", [False, True])
def test_halves_keep_nothing_of_a_call(owned, monkeypatch, failing):
    params, x = owned
    inner, errors = model._forward, []

    def spy(layers, h, outs):
        if failing and not on_caller():
            raise HalfFailed("second half failed")
        return inner(layers, h, outs)

    monkeypatch.setattr(model, "_forward", spy)
    x = x.copy()
    inputs = weakref.ref(x)
    try:
        fs.forward(params, x)
    except HalfFailed as error:
        errors.append(weakref.ref(error))
    del x
    gc.collect()
    assert inputs() is None
    assert len(errors) == failing and all(ref() is None for ref in errors)
