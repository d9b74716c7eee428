"""OpenBLAS threads: who owns the count, when it rises, and that no bit depends on it.

Each case runs in a fresh interpreter, because the package decides ownership
once, at its first import, and this test process imported numpy first.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fedsem as fs

SRC = str(Path(fs.__file__).resolve().parents[1])
CANONICAL_INI = Path(__file__).resolve().parents[1] / "configs" / "canonical.ini"
OPENBLAS = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))

# Reports the OpenBLAS thread count after import and inside and after
# single-block, multi-block and failing multi-block forward calls.
PROBE = """
import ctypes, json, os, sys
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

def spy(*args):
    seen.append(count())
    if len(seen) == fail_at[0]:
        raise RuntimeError("block failed")
    return inner(*args)

model._forward = spy
params = fedsem.init_params((16, 48, 10), seed=0)
rows = model._block_rows(params.layer_dims)
x = np.zeros((2 * rows + 1, 16))
for name, n, fail in [("single", rows, None), ("multi", len(x), None), ("failing", len(x), 2)]:
    seen.clear()
    fail_at[0] = fail
    try:
        fedsem.forward(params, x[:n])
    except RuntimeError:
        pass
    report[name] = {"during": list(seen), "after": count()}
print(json.dumps(report))
"""


def fresh_env(**variables) -> dict:
    """This process's environment for a child on ``src``, without the thread variable."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env.update(variables)
    return env


def probe(order: str, **variables) -> dict:
    done = subprocess.run(
        [sys.executable, "-c", PROBE, order, str(OPENBLAS[0])],
        env=fresh_env(**variables), check=True, capture_output=True, text=True,
    )
    return json.loads(done.stdout)


needs_bundled_openblas = pytest.mark.skipif(
    not OPENBLAS, reason="numpy does not bundle OpenBLAS in numpy.libs"
)


@needs_bundled_openblas
class TestOwnedThreads:
    @pytest.fixture(scope="class")
    def report(self):
        return probe("fedsem-first")

    def test_import_leaves_one_thread_and_no_variable(self, report):
        assert report["variable"] is None
        assert report["import"] == 1

    def test_single_block_call_keeps_one_thread(self, report):
        assert report["single"] == {"during": [1], "after": 1}

    def test_multi_block_call_runs_on_every_usable_cpu(self, report):
        assert report["multi"] == {"during": [report["cpus"]] * 3, "after": 1}

    def test_failing_block_still_restores_one_thread(self, report):
        assert report["failing"] == {"during": [report["cpus"]] * 2, "after": 1}


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
    assert report["single"] == {"during": [start], "after": start}
    assert report["multi"] == {"during": [start] * 3, "after": start}
    assert report["failing"] == {"during": [start] * 2, "after": start}


def test_multi_block_run_bits_do_not_depend_on_threads(tmp_path):
    # CI's "blocked" row: 6,000 evaluation rows and 19,200 hidden rows span
    # several forward blocks, so an owned count rises to every usable CPU.
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
