"""Self-test of the benchmark's correctness checks.

    python3 -m pytest -q perfbench/test_checkers.py

Each test feeds a checker the program's real output, which it must accept,
and the same output with one deliberate error, which it must reject.
"""

import contextlib
import io
import json
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import cohlab  # noqa: E402
import cohlab.cli  # noqa: E402
import workloads  # noqa: E402


def _cli(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cohlab.cli.main(argv) == 0
    return buf.getvalue()


def _replace_field(text: str, row: int, column: str, fn) -> str:
    lines = text.splitlines()
    header_at = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    cols = lines[header_at].split(",")
    fields = lines[header_at + 1 + row].split(",")
    fields[cols.index(column)] = repr(fn(fields))
    lines[header_at + 1 + row] = ",".join(fields)
    return "\n".join(lines) + "\n"


def test_polygamy_check_rejects_a_nudged_coherence(tmp_path):
    out = str(tmp_path / "sweep.csv")
    _cli(["sweep", "polygamy", "--dims", "3x3", "--samples", "20", "--seed", "7", "--out", out])
    text = open(out, encoding="utf-8").read()
    assert workloads.check_polygamy(text, (3, 3), 7, 20, (5,)) == []
    bad = _replace_field(text, 5, "c12", lambda f: float(f[3]) + 1e-6)
    assert workloads.check_polygamy(bad, (3, 3), 7, 20, (5,))


def test_monotonicity_check_rejects_a_coherence_gain():
    text = _cli(["monotonicity", "--measure", "skew", "--samples", "20", "--dim", "3",
                 "--seed", "8"])
    assert workloads.check_monotonicity(text, "skew", 3, 8, 20, (4,)) == []
    bad = _replace_field(text, 11, "c_avg_after", lambda f: float(f[1]) + 1e-6)
    assert workloads.check_monotonicity(bad, "skew", 3, 8, 20, (4,))
    bad = _replace_field(text, 4, "c_after", lambda f: float(f[3]) - 1e-6)
    assert workloads.check_monotonicity(bad, "skew", 3, 8, 20, (4,))


def test_discord_check_rejects_a_value_above_the_oracle(tmp_path):
    mat = workloads.pool_state(3)
    ref = workloads.load_grid_refs()["pool-3"]["grid_min"]
    path = str(tmp_path / "state.json")
    workloads.write_matrix(path, mat)
    text = _cli(["discord", "--input", path, "--dims", "2x2", "--restarts", "8", "--seed", "1"])
    assert workloads.check_discord(text, "sym2", mat, (2, 2), ref) == []
    out = json.loads(text)
    out["value"] += 1e-4
    assert workloads.check_discord(json.dumps(out), "sym2", mat, (2, 2), ref)


def test_asym_check_rejects_a_value_off_the_closed_form(tmp_path):
    mat = workloads.oracles.ginibre(np.random.default_rng(4), 6)
    path = str(tmp_path / "state.json")
    workloads.write_matrix(path, mat)
    text = _cli(["discord", "--input", path, "--dims", "2x3", "--mode", "asym",
                 "--restarts", "8", "--seed", "2"])
    assert workloads.check_discord(text, "asym", mat, (2, 3)) == []
    out = json.loads(text)
    out["value"] += 1e-6
    assert workloads.check_discord(json.dumps(out), "asym", mat, (2, 3))


def test_state_report_check_rejects_an_estimate_outside_shot_noise(tmp_path):
    rng = np.random.default_rng(5)
    mat, obs = workloads.oracles.ginibre(rng, 4), workloads.oracles.hermitian(rng, 4)
    sp, op = str(tmp_path / "state.json"), str(tmp_path / "obs.json")
    workloads.write_matrix(sp, mat)
    workloads.write_matrix(op, obs)
    texts = workloads.report_chain(cohlab, sp, op, 11)
    shots = workloads.SHOTS
    assert workloads.check_state_report(texts, mat, obs, shots, True) == []
    sim = json.loads(texts[2])
    rec = sim["estimates"]["shots"][1]
    p = rec["plus_count"] / shots
    rec["plus_count"] += int(7 * np.sqrt(shots * p * (1 - p)))
    bad = (texts[0], texts[1], json.dumps(sim))
    assert workloads.check_state_report(bad, mat, obs, shots, True)


def test_state_report_check_rejects_non_strict_json(tmp_path):
    rng = np.random.default_rng(6)
    mat, obs = workloads.oracles.ginibre(rng, 3), workloads.oracles.hermitian(rng, 3)
    sp, op = str(tmp_path / "state.json"), str(tmp_path / "obs.json")
    workloads.write_matrix(sp, mat)
    workloads.write_matrix(op, obs)
    texts = workloads.report_chain(cohlab, sp, op, 12)
    compute = json.loads(texts[0])
    compute["c_l1"] = float("nan")
    bad = (json.dumps(compute), texts[1], texts[2])
    assert workloads.check_state_report(bad, mat, obs, workloads.SHOTS, False)
