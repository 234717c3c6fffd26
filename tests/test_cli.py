import hashlib
import io
import json
from contextlib import redirect_stdout

import numpy as np
import pytest

from cohlab import ginibre_mixed, maximally_coherent, random_incoherent_channel
from cohlab.cli import main
from cohlab.errors import NotUnitTrace, ParseError, UnknownFixture
from cohlab.fixtures import FIXTURE_NAMES, fixture_report
from cohlab.serialize import (
    read_channel,
    read_state,
    state_to_obj,
    write_channel,
    write_state,
)


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


@pytest.fixture
def plus_file(tmp_path):
    path = tmp_path / "plus.json"
    write_state(str(path), maximally_coherent(2))
    return str(path)


def test_state_json_round_trip(tmp_path):
    rho = ginibre_mixed(3, 17)
    path = tmp_path / "state.json"
    write_state(str(path), rho)
    back = read_state(str(path))
    assert np.abs(back.mat - rho.mat).max() < 1e-12
    obj = state_to_obj(rho)
    assert obj["dim"] == 3 and len(obj["re"]) == 3


def test_state_reader_validates(tmp_path):
    path = tmp_path / "bad_state.json"
    path.write_text(json.dumps({"dim": 2, "re": [[0.7, 0.0], [0.0, 0.4]],
                                "im": [[0.0, 0.0], [0.0, 0.0]]}))
    with pytest.raises(NotUnitTrace):
        read_state(str(path))


def test_channel_json_round_trip(tmp_path):
    ch = random_incoherent_channel(3, 2, 5)
    path = tmp_path / "channel.json"
    write_channel(str(path), ch)
    back = read_channel(str(path))
    assert len(back.operators) == 2
    for a, b in zip(back.operators, ch.operators):
        assert np.abs(a - b).max() < 1e-15


def test_malformed_json_raises_parse_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    with pytest.raises(ParseError):
        read_state(str(path))


def test_compute_plus_state(plus_file):
    code, out = run_cli(["compute", "--input", plus_file])
    assert code == 0
    rep = json.loads(out)
    assert rep["c_skew"] == pytest.approx(0.5, abs=1e-9)
    assert rep["meta"]["seed"] == 0
    assert rep["meta"]["version"]


def test_compute_with_observable(tmp_path):
    from cohlab.fixtures import COUNTEREXAMPLE_K, COUNTEREXAMPLE_RHO

    state = tmp_path / "rho.json"
    obs = tmp_path / "k.json"
    state.write_text(json.dumps({
        "dim": 3,
        "re": COUNTEREXAMPLE_RHO.tolist(),
        "im": np.zeros((3, 3)).tolist(),
    }))
    obs.write_text(json.dumps({
        "dim": 3,
        "re": COUNTEREXAMPLE_K.tolist(),
        "im": np.zeros((3, 3)).tolist(),
    }))
    code, out = run_cli(["compute", "--input", str(state), "--observable", str(obs)])
    assert code == 0
    rep = json.loads(out)
    # honest digits recomputed from the printed four-decimal entries
    assert rep["c_k"] == pytest.approx(0.2271695, abs=1e-6)


def test_compute_malformed_exits_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    code, out = run_cli(["compute", "--input", str(path)])
    assert code == 2
    assert json.loads(out)["error"] == "ParseError"


@pytest.mark.parametrize("entries", [
    [[np.nan, 0.0], [0.0, 1.0]],
    [[0.5, np.nan], [np.nan, 0.5]],
    [[0.5, np.inf], [np.inf, 0.5]],
    [[np.inf, 0.0], [0.0, 1.0]],
], ids=["nan-diagonal", "nan-offdiagonal", "inf-offdiagonal", "inf-diagonal"])
def test_compute_non_finite_exits_2(tmp_path, entries):
    path = tmp_path / "non_finite.json"
    path.write_text(json.dumps({"dim": 2, "re": entries, "im": [[0.0, 0.0], [0.0, 0.0]]}))
    code, out = run_cli(["compute", "--input", str(path)])
    assert code == 2
    err = json.loads(out)
    assert err["error"] == "NotFinite"
    assert err["detail"]


def test_compute_non_finite_result_exits_2(tmp_path, plus_file):
    # finite entries, but Tr(rho K^2) overflows and c_k comes out NaN
    obs = tmp_path / "huge.json"
    obs.write_text(json.dumps({"re": [[1e200, 0.0], [0.0, -1e200]], "im": [[0.0, 0.0], [0.0, 0.0]]}))
    with np.errstate(over="ignore", invalid="ignore"):
        code, out = run_cli(["compute", "--input", plus_file, "--observable", str(obs)])
    assert code == 2
    assert json.loads(out)["error"] == "NotFinite"


def test_fixture_reports_exist_for_all_names():
    for name in FIXTURE_NAMES:
        rows = fixture_report(name, seed=0)
        assert rows
        labels = [r.label for r in rows]
        assert len(labels) == len(set(labels))


def test_fixture_unknown_name():
    with pytest.raises(UnknownFixture):
        fixture_report("nope")
    code, out = run_cli(["fixture", "nope"])
    assert code == 2
    assert json.loads(out)["error"] == "UnknownFixture"


def test_fixture_max_coherent_passes():
    code, out = run_cli(["fixture", "max-coherent-3x3"])
    assert code == 0
    assert "FAIL" not in out


def test_fixture_theorem3_block_passes():
    code, out = run_cli(["fixture", "theorem3-block"])
    assert code == 0
    assert "FAIL" not in out


def test_fixture_appendix_d_passes():
    code, out = run_cli(["fixture", "appendix-d"])
    assert code == 0
    assert "0.6744" in out and "0.6758" in out


def test_fixture_appendix_a_reports_known_defects():
    # the printed inputs cannot reproduce two of the reference values; the
    # table must say so honestly while the flags and the average reproduce
    code, out = run_cli(["fixture", "appendix-a"])
    assert code == 1
    lines = out.splitlines()
    by_label = {line.split()[0]: line for line in lines[2:] if line.strip()}
    assert "pass" in by_label["c_k_average_after"]
    assert "pass" in by_label["strong_ok"]
    assert "pass" in by_label["weak_ok"]
    assert "FAIL" in by_label["c_k_initial"]
    assert "FAIL" in by_label["c_k_final"]


def test_sweep_byte_identical(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    argv = ["sweep", "polygamy", "--dims", "2x3", "--samples", "30", "--seed", "1"]
    code1, stdout1 = run_cli(argv + ["--out", str(out1), "--threads", "1"])
    code2, stdout2 = run_cli(argv + ["--out", str(out2), "--threads", "2"])
    assert code1 == code2 == 0
    assert stdout1 == stdout2
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[2].split(",") == ["sample", "dimA", "dimB", "c12", "c1", "c2", "gap",
                                   "lambda_min", "rank", "cs", "gap_cor1_sym"]
    assert len(lines) == 3 + 30


def test_sweep_stdout_mode():
    code, out = run_cli(["sweep", "polygamy", "--dims", "2x2", "--samples", "5",
                         "--seed", "2", "--threads", "1"])
    assert code == 0
    assert out.startswith("# version=")


def test_monotonicity_fixture_row():
    code, out = run_cli(["monotonicity", "--measure", "k", "--fixture", "appendix-a"])
    assert code == 0
    row = out.splitlines()[-1].split(",")
    assert row[0] == "appendix-a"
    assert row[4] == "0" and row[5] == "0"  # strong_ok, weak_ok both false


def test_monotonicity_sweep_csv():
    argv = ["monotonicity", "--measure", "skew", "--samples", "20", "--dim", "2",
            "--seed", "3", "--threads", "1"]
    code, out = run_cli(argv)
    assert code == 0
    rows = [line for line in out.splitlines() if not line.startswith("#")][1:]
    assert len(rows) == 20
    assert all(r.split(",")[4] == "1" for r in rows)
    code2, out2 = run_cli(argv)
    assert out == out2


def test_discord_fixture_value():
    code, out = run_cli(["discord", "--fixture", "theorem3-cnot",
                         "--restarts", "8", "--seed", "0"])
    assert code == 0
    res = json.loads(out)
    assert res["value"] == pytest.approx(0.5, abs=1e-6)
    assert res["converged"] is True
    assert "u_a" in res["basis"] and "u_b" in res["basis"]


def test_discord_requires_input_or_fixture():
    code, out = run_cli(["discord", "--mode", "sym"])
    assert code == 2


def test_metrology_cli(plus_file):
    code, out = run_cli(["metrology", "--input", plus_file, "--runs", "1"])
    assert code == 0
    rep = json.loads(out)
    assert rep["aggregate"]["ok"]
    assert rep["aggregate"]["sum_inv_var"] == pytest.approx(2.0, abs=1e-9)


def test_simulate_measure_deterministic(plus_file):
    argv = ["simulate-measure", "--input", plus_file, "--shots", "500", "--seed", "4"]
    code1, out1 = run_cli(argv)
    code2, out2 = run_cli(argv)
    assert code1 == code2 == 0
    assert out1 == out2
    res = json.loads(out1)
    assert res["estimates"]["swap_settings"] == 1
    assert res["true"]["c_rel"] == pytest.approx(1.0, abs=1e-9)


def test_env_seed_override(plus_file, monkeypatch):
    monkeypatch.setenv("COHLAB_SEED", "77")
    code, out = run_cli(["compute", "--input", plus_file])
    assert json.loads(out)["meta"]["seed"] == 77
    monkeypatch.delenv("COHLAB_SEED")
    code, out = run_cli(["compute", "--input", plus_file, "--seed", "5"])
    assert json.loads(out)["meta"]["seed"] == 5


def test_sweep_csv_bytes_are_pinned(tmp_path):
    # SHA-256 of this CSV as the per-sample sweep wrote it; the stacked sweep
    # must reproduce it byte for byte (the header embeds the package version)
    out = tmp_path / "sweep.csv"
    code, _ = run_cli(["sweep", "polygamy", "--dims", "3x4", "--samples", "113", "--seed", "9",
                       "--out", str(out)])
    assert code == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "8a89a02415b2c711e50faf8b18691e8c7b59ccb93e10a94721b6ad3a47cb051f"
