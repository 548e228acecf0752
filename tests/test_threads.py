"""Importing uwbio pins OpenBLAS to one thread unless the caller chose a
count.  The import cases run in a fresh interpreter, since the pin only
acts before numpy is first imported; one more checks that the pin is in
force in the test process itself."""

from __future__ import annotations

import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

pytestmark = pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                                reason="threads are counted through /proc")

# argv: the module to import, then the variables to report.
PROBE = """
import importlib, json, os, sys
importlib.import_module(sys.argv[1])
print(json.dumps({"threads": len(os.listdir("/proc/self/task")),
                  "env": {k: os.environ.get(k) for k in sys.argv[2:]}}))
"""


def fresh_import(module: str, **env_vars: str) -> dict:
    """Import `module` in a new interpreter whose thread variables are only
    `env_vars`; return its thread count and those variables afterwards."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(env_vars)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", PROBE, module, *THREAD_VARS], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


@pytest.mark.parametrize("module", ["uwbio", "uwbio.cli"])
def test_import_pins_one_blas_thread(module):
    got = fresh_import(module)
    assert got["threads"] == 1
    assert got["env"] == {"OPENBLAS_NUM_THREADS": "1", "GOTO_NUM_THREADS": None,
                          "OMP_NUM_THREADS": None}


@pytest.mark.parametrize("var", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_caller_thread_count_is_kept(var):
    got = fresh_import("uwbio", **{var: "2"})
    assert got["env"] == {k: "2" if k == var else None for k in THREAD_VARS}
    assert got["threads"] == fresh_import("numpy", **{var: "2"})["threads"]


def test_pin_in_force_in_the_test_process():
    # conftest imports uwbio before numpy, so the tests run pinned too.
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*.so"))
    if not libs:
        pytest.skip("numpy bundles no OpenBLAS here")
    lib = ctypes.CDLL(str(libs[0]))
    if not hasattr(lib, "scipy_openblas_get_num_threads64_"):
        pytest.skip("the bundled OpenBLAS does not export its thread count")
    assert lib.scipy_openblas_get_num_threads64_() == 1
