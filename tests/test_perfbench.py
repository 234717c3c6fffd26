"""The benchmark's checker self-test, run in a process of its own: ``perfbench/oracles.py``
and ``tests/oracles.py`` share a module name, so one pytest process cannot import both."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).parent.parent


def test_benchmark_checkers_pass():
    # a change that the benchmark would read as incorrect output fails here; -B and
    # no:cacheprovider leave no files behind
    run = subprocess.run([sys.executable, "-B", "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "perfbench/test_checkers.py"],
                         cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
