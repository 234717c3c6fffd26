"""Rebuild the cached grid-oracle discord minima in ``refs/discord_grid.json``.

    python3 perfbench/refs.py

Each entry is the exhaustive product-basis grid minimum from
``tests/oracles.py`` (about 0.7 s per state) for one two-qubit state the
discord-solve workload feeds to ``cohlab discord``: the two theorem-3
fixtures and the ``POOL_SIZE`` pool states.  The program's optimizer is not
called.  Each entry carries a fingerprint of its state, so a run refuses a
cache that no longer matches the states it solves.
"""

from __future__ import annotations

import importlib.util
import json
import os

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _grid_oracle():
    spec = importlib.util.spec_from_file_location(
        "cohlab_test_oracles", os.path.join(ROOT, "tests", "oracles.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.discord_grid_oracle


def main():
    grid = _grid_oracle()
    states = {name: workloads.fixture_state(name) for name in ("theorem3-cnot", "theorem3-block")}
    states.update({f"pool-{i}": workloads.pool_state(i) for i in range(workloads.POOL_SIZE)})
    refs = {key: {"fingerprint": workloads.state_fingerprint(mat), "grid_min": grid(mat)}
            for key, mat in states.items()}
    os.makedirs(os.path.dirname(workloads.REFS), exist_ok=True)
    with open(workloads.REFS, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(refs)} grid minima to {os.path.relpath(workloads.REFS, ROOT)}")


if __name__ == "__main__":
    main()
