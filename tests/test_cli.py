import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cohlab
from cohlab import ginibre_mixed, maximally_coherent, random_incoherent_channel
from cohlab.cli import main
from cohlab.errors import CohlabError, NotUnitTrace, ParseError, UnknownFixture
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


def test_non_utf8_state_file_raises_parse_error(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"dim": 1, "re": [[1.0]], "im": [[0.0]], "note": "\xe9"}')
    with pytest.raises(ParseError):
        read_state(str(path))


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=8,
)
_ROWS = st.lists(st.lists(st.floats() | st.integers() | st.none(), max_size=3), max_size=3)
_STATE_LIKE = st.fixed_dictionaries({"re": _ROWS | _JSON, "im": _ROWS | _JSON},
                                    optional={"dim": _JSON | st.integers(0, 3)})


@settings(max_examples=200, deadline=None)
@given(_STATE_LIKE | _JSON)
def test_read_state_raises_only_cohlab_errors(obj):
    # the wrong types, ragged rows and non-dict roots that state files can hold
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        try:
            rho = read_state(path)
        except CohlabError:
            return
        assert np.isfinite(rho.mat).all() and abs(rho.mat.trace() - 1.0) < 1e-9
    finally:
        os.remove(path)


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


@pytest.mark.parametrize("dim", ["x", None, [2]])
def test_compute_non_integer_dim_exits_2(tmp_path, dim):
    path = tmp_path / "bad_dim.json"
    path.write_text(json.dumps({"dim": dim, "re": [[0.5, 0.0], [0.0, 0.5]],
                                "im": [[0.0, 0.0], [0.0, 0.0]]}))
    code, out = run_cli(["compute", "--input", str(path)])
    assert code == 2
    assert json.loads(out)["error"] == "ParseError"


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


def test_sweep_zero_samples_summary(tmp_path):
    out = tmp_path / "empty.csv"
    code, stdout = run_cli(["sweep", "polygamy", "--dims", "2x2", "--samples", "0",
                            "--out", str(out)])
    assert code == 0
    assert json.loads(stdout)["summary"] == {
        "samples": 0, "min_gap": None, "mean_gap": None, "violations": 0,
        "theorem_min_gaps": {},
    }
    assert len(out.read_text().splitlines()) == 3  # the header only


@pytest.mark.parametrize("argv", [
    ["sweep", "polygamy", "--dims", "2x2"],
    ["monotonicity", "--measure", "skew", "--dim", "2"],
])
def test_negative_sample_count_exits_2(argv):
    code, out = run_cli(argv + ["--samples", "-3"])
    assert code == 2
    assert json.loads(out)["error"] == "NegativeCount"


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
    assert list(res)[:4] == ["value", "converged", "restarts_used", "sweeps"]
    assert isinstance(res["sweeps"], int) and res["sweeps"] >= 1
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


def test_non_integer_env_seed_exits_2(plus_file, monkeypatch):
    monkeypatch.setenv("COHLAB_SEED", "abc")
    code, out = run_cli(["compute", "--input", plus_file])
    assert code == 2
    err = json.loads(out)
    assert err["error"] == "ParseError" and "COHLAB_SEED" in err["detail"]


def test_sweep_csv_bytes_are_pinned(tmp_path):
    # SHA-256 of this CSV as the per-sample sweep wrote it; the stacked sweep
    # must reproduce it byte for byte (the header embeds the package version)
    out = tmp_path / "sweep.csv"
    code, _ = run_cli(["sweep", "polygamy", "--dims", "3x4", "--samples", "113", "--seed", "9",
                       "--out", str(out)])
    assert code == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "8a89a02415b2c711e50faf8b18691e8c7b59ccb93e10a94721b6ad3a47cb051f"


@pytest.mark.parametrize("measure,dim,digest", [
    ("skew", 4, "e8784ce48988ab135ac7310b2ae924aa1eca95f44cb609ad2f4ca34cfeca0d9a"),
    ("k", 3, "dd80be78db2d2942baae454fe40d8749e731cb9a62621a0c922afe0e6a43a5ca"),
])
def test_monotonicity_csv_bytes_are_pinned(tmp_path, measure, dim, digest):
    # SHA-256 of this CSV as the per-operator channel kernels wrote it; the
    # stacked Kraus kernels must reproduce it byte for byte
    out = tmp_path / "monotonicity.csv"
    code, _ = run_cli(["monotonicity", "--measure", measure, "--dim", str(dim), "--samples", "80",
                       "--seed", "9", "--out", str(out)])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_cli_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(cohlab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, cohlab.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"
