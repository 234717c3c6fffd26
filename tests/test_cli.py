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
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cohlab
from cohlab import ginibre_mixed, maximally_coherent, validate_density
from cohlab import cli
from cohlab.cli import main
from cohlab.errors import CohlabError, ConvergenceFailure, NotUnitTrace, ParseError, UnknownFixture
from cohlab.fixtures import block_unitary_example, cnot_attainment, fixture_report
from cohlab.serialize import matrix_to_obj, read_state

from oracles import random_hermitian, state_to_obj, write_state


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


def _read_dumped(read, obj):
    """``read`` of a temporary file that holds ``obj`` as JSON."""
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        return read(path)
    finally:
        os.remove(path)


@settings(max_examples=200, deadline=None)
@given(_STATE_LIKE | _JSON)
@example({"re": [[None, None, 0.0]], "im": [[None, None, float("inf")]]})  # 1j * inf warned
def test_read_state_raises_only_cohlab_errors(obj):
    # the wrong types, ragged rows and non-dict roots that state files can hold
    try:
        rho = _read_dumped(read_state, obj)
    except CohlabError:
        return
    assert np.isfinite(rho.mat).all() and abs(rho.mat.trace() - 1.0) < 1e-9


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


@pytest.mark.parametrize("dim", ["x", None, [2], 2.0])
def test_compute_non_integer_dim_exits_2(tmp_path, dim):
    path = tmp_path / "bad_dim.json"
    path.write_text(json.dumps({"dim": dim, "re": [[0.5, 0.0], [0.0, 0.5]],
                                "im": [[0.0, 0.0], [0.0, 0.0]]}))
    code, out = run_cli(["compute", "--input", str(path)])
    assert code == 2
    assert json.loads(out)["error"] == "ParseError"


@pytest.mark.parametrize("obj", [{"dim": True, "re": [[1.0]], "im": [[0.0]]}], ids=["state-dim-true"])
def test_readers_reject_declared_dims_that_are_not_the_shape(obj):
    with pytest.raises(ParseError, match="declared"):
        _read_dumped(read_state, obj)


@pytest.mark.parametrize("obj", [
    {"dim": 1, "re": [["1"]], "im": [["0"]]},
    {"dim": 1, "re": [[True]], "im": [[False]]},
    {"re": [[1.0, False], [0.0, 0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]},
], ids=["string", "bool", "mixed-bool"])
def test_compute_rejects_entries_that_are_not_json_numbers(tmp_path, obj):
    # numpy reads each of these as floats, and each once loaded as a valid state
    path = tmp_path / "entries.json"
    path.write_text(json.dumps(obj))
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


def test_compute_overflowing_observable_blames_the_input(tmp_path, plus_file):
    # the symmetrized observable overflows; it once reached the report as inf + nan j
    obs = tmp_path / "overflow.json"
    obs.write_text(json.dumps({"re": [[1e308, 1e308], [1e308, 1e308]],
                               "im": [[0.0, 0.0], [0.0, 0.0]]}))
    code, out = run_cli(["compute", "--input", plus_file, "--observable", str(obs)])
    assert code == 2
    err = json.loads(out)
    assert err["error"] == "NotFinite" and err["detail"].startswith("input")


@pytest.mark.parametrize("argv", [
    ["compute", "--input", "state.json", "--seed", "abc"],
    ["sweep", "polygamy", "--dims", "2x2", "--samples", "x"],
    ["compute"],
    ["sweep", "polygamy", "--dims", "2x2", "--samples", "3", "--bogus"],
    [],
], ids=["seed-not-int", "samples-not-int", "missing-input", "unknown-option", "no-command"])
def test_argument_errors_print_json_and_exit_2(argv, capsys):
    code, out = run_cli(argv)
    assert code == 2
    assert json.loads(out)["error"] == "ParseError"
    assert capsys.readouterr().err == ""


def test_an_eigensolver_failure_is_a_typed_error(monkeypatch, plus_file):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(ConvergenceFailure, match="did not converge"):
        validate_density(np.eye(2) / 2)
    code, out = run_cli(["compute", "--input", plus_file])
    assert code == 2
    assert json.loads(out) == {
        "error": "ConvergenceFailure",
        "detail": "eigendecomposition did not converge: Eigenvalues did not converge",
    }


def test_help_still_prints_usage_and_exits_0():
    buf = io.StringIO()
    with redirect_stdout(buf), pytest.raises(SystemExit) as exc:
        main(["compute", "--help"])
    assert exc.value.code == 0
    assert buf.getvalue().startswith("usage: cohlab compute")


def test_fixture_reports_exist_for_all_names():
    for name in ("appendix-a", "appendix-d", "theorem3-cnot", "theorem3-block", "max-coherent-3x3"):
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


@pytest.mark.parametrize("name,budget,last", [
    ("theorem3-cnot", 0.5000000000000002, "attained"),
    ("theorem3-block", 0.7500000000000002, "below_budget"),
])
def test_theorem3_budget_row_is_computed_from_the_inputs(name, budget, last):
    # 1 - (1 - C(A))(1 - C(B)) of the fixture's factors, not the stored 0.5 or 0.75
    rows = {r.label: r for r in fixture_report(name)}
    assert list(rows) == ["discord_sym", "bound", last]
    assert rows["bound"].computed == budget
    assert all(r.ok for r in rows.values())


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
    ["sweep", "polygamy", "--dims", "2x2", "--samples", "2"],
    ["monotonicity", "--samples", "2"],
], ids=["sweep", "monotonicity"])
@pytest.mark.parametrize("out", ["missing-dir/x.csv", "."], ids=["missing-dir", "directory"])
def test_unwritable_out_exits_2(tmp_path, argv, out):
    # exit 1 means a failing fixture row; an --out that cannot be opened once raised with it
    path = str(tmp_path / out)
    code, stdout = run_cli(argv + ["--out", path])
    assert code == 2
    err = json.loads(stdout)
    assert err["error"] == "ParseError" and path in err["detail"]


@pytest.mark.parametrize("argv", [
    ["sweep", "polygamy", "--dims", "2x2"],
    ["monotonicity", "--measure", "skew", "--dim", "2"],
])
def test_negative_sample_count_exits_2(argv):
    code, out = run_cli(argv + ["--samples", "-3"])
    assert code == 2
    assert json.loads(out)["error"] == "NegativeCount"


@pytest.mark.parametrize("dim", ["0", "-1"])
def test_monotonicity_non_positive_dim_exits_2(dim):
    code, out = run_cli(["monotonicity", "--measure", "skew", "--dim", dim])
    assert code == 2
    assert json.loads(out) == {"error": "DimensionMismatch", "detail": f"dimension {dim} is not positive"}


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


@pytest.mark.parametrize("extra", [["--input", "PLUS"], ["--dims", "2x2"]], ids=["input", "dims"])
def test_discord_rejects_a_fixture_with_an_input_or_dims(extra, plus_file):
    argv = ["discord", "--fixture", "theorem3-cnot"] + extra
    code, out = run_cli([plus_file if a == "PLUS" else a for a in argv])
    assert code == 2
    assert json.loads(out)["error"] == "ParseError"


@pytest.mark.parametrize("argv", [
    ["fixture", "nope"],
    ["discord", "--fixture", "nope"],
    ["discord", "--fixture", "appendix-a"],
    ["monotonicity", "--fixture", "nope"],
    ["monotonicity", "--fixture", "theorem3-cnot"],
])
def test_every_fixture_option_rejects_unknown_names_alike(argv):
    code, out = run_cli(argv)
    assert code == 2
    err = json.loads(out)
    assert err["error"] == "UnknownFixture" and "choose from" in err["detail"]


def test_malformed_dims_exit_2():
    code, out = run_cli(["sweep", "polygamy", "--dims", "3by3", "--samples", "1"])
    assert code == 2
    assert json.loads(out) == {"error": "DimensionMismatch",
                               "detail": "--dims expects AxB, got '3by3'"}


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


@pytest.mark.parametrize("shots", ["-5", "0"])
def test_simulate_measure_checks_shots_with_exact_powers(shots, plus_file):
    code, out = run_cli(["simulate-measure", "--input", plus_file, "--shots", shots,
                         "--exact-powers"])
    assert code == 2
    assert json.loads(out) == {"error": "NegativeCount", "detail": f"shot count {shots} is below 1"}


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


@pytest.mark.parametrize("argv", [
    ["sweep", "polygamy", "--dims", "2x2", "--samples", "3", "--seed", "-1"],
    ["monotonicity", "--dim", "2", "--samples", "3", "--seed", "-1"],
    ["discord", "--fixture", "theorem3-cnot", "--seed", "-1"],
    ["fixture", "theorem3-cnot", "--seed", "-1"],
    ["simulate-measure", "--input", "PLUS", "--shots", "50", "--seed", "-1"],
    ["monotonicity", "--dim", "2", "--samples", "3"],
], ids=["sweep", "monotonicity", "discord", "fixture", "simulate-measure", "env"])
def test_negative_seed_prints_json_and_exits_2(argv, plus_file, monkeypatch):
    monkeypatch.setenv(cli.ENV_SEED, "-5")  # read only where --seed is absent
    code, out = run_cli([plus_file if a == "PLUS" else a for a in argv])
    assert code == 2
    err = json.loads(out)
    assert err == {"error": "NegativeCount",
                   "detail": f"seed {-1 if '--seed' in argv else -5} is negative"}


def test_sweep_csv_bytes_are_pinned(tmp_path):
    # SHA-256 of this CSV (the header embeds the package version); the pin below
    # without the cs and gap_cor1_sym columns holds every other column to the
    # per-sample sweep's bytes
    out = tmp_path / "sweep.csv"
    code, _ = run_cli(["sweep", "polygamy", "--dims", "3x4", "--samples", "113", "--seed", "9",
                       "--out", str(out)])
    assert code == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "09950c1c72308ee90194e8664aee4082eea292dbf5474ad377de703eb1cab2ad"


@pytest.mark.parametrize("argv,digest", [
    ("sweep polygamy --dims 2x3 --samples 40 --seed 18446744073709551621",
     "cf45a55052e7fc312c54316e63e1442825a23f01d2504504a53e34b6a27f3127"),
    ("monotonicity --measure skew --dim 3 --samples 40 "
     "--seed 340282366920938463463374607431768211457",
     "9cb690a955c050f8a330a14cbcec9b19e2fcd6a71cda8c931bbc00c6f2c72543"),
], ids=["polygamy-3-word-seed", "monotonicity-5-word-seed"])
def test_multi_word_seed_csv_bytes_are_pinned(tmp_path, argv, digest):
    # SHA-256 of these CSVs; seeds past 2^32 take more SeedSequence words, which the
    # per-chunk seeding must hash as per-sample child_rng seeding does
    out = tmp_path / "sweep.csv"
    code, _ = run_cli(argv.split() + ["--out", str(out)])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("argv,digest", [
    ("sweep polygamy --dims 3x4 --samples 113 --seed 9",
     "49f5720183e70c272f2ca12514b85d60dddc547c5e0ae19cd73a51349927b3b4"),
    ("sweep polygamy --dims 2x3 --samples 40 --seed 18446744073709551621",
     "4e3f1b3382d85b8e32711897c29529e2af22029c42a9e1430b44925e2408a06e"),
], ids=["3x4-seed-9", "polygamy-3-word-seed"])
def test_polygamy_csv_bytes_without_cs_columns_are_pinned(tmp_path, argv, digest):
    # SHA-256 of the two pinned polygamy CSVs with the cs and gap_cor1_sym columns
    # dropped: c_s sums eigenstate marginal coherences, whose last bits depend on how
    # the Schmidt spectrum is computed, and every other column must not move with it
    out = tmp_path / "sweep.csv"
    code, _ = run_cli(argv.split() + ["--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    header = lines[2].split(",")
    keep = [i for i, name in enumerate(header) if name not in ("cs", "gap_cor1_sym")]
    assert len(keep) == len(header) - 2
    kept = lines[:2] + [",".join(line.split(",")[i] for i in keep) for line in lines[2:]]
    assert hashlib.sha256("\n".join(kept).encode()).hexdigest() == digest


def monotonicity_digest(tmp_path, measure, dim, samples):
    out = tmp_path / "monotonicity.csv"
    code, _ = run_cli(["monotonicity", "--measure", measure, "--dim", str(dim), "--samples",
                       str(samples), "--seed", "9", "--out", str(out)])
    assert code == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("measure,dim,digest", [
    ("skew", 4, "e8784ce48988ab135ac7310b2ae924aa1eca95f44cb609ad2f4ca34cfeca0d9a"),
    ("k", 3, "dd80be78db2d2942baae454fe40d8749e731cb9a62621a0c922afe0e6a43a5ca"),
])
def test_monotonicity_csv_bytes_are_pinned(tmp_path, measure, dim, digest):
    # SHA-256 of this CSV as the per-operator channel kernels wrote it; the
    # stacked Kraus kernels must reproduce it byte for byte
    assert monotonicity_digest(tmp_path, measure, dim, 80) == digest


def test_multi_chunk_monotonicity_csv_bytes_are_pinned(tmp_path):
    # five chunks, the last one partial; SHA-256 of the CSV as the per-sample
    # channel and state construction wrote it
    digest = "694a75ec53d15b69f9464623ae2d693a08edd75c7583ed67e8b016444a5d20ca"
    assert monotonicity_digest(tmp_path, "skew", 5, 250) == digest


@pytest.mark.parametrize("command,digest", [
    ("compute", "5b90747aa4b5258127443a8d35ce4da5cc4fe929e7c8c476c8a8850272fa2c3e"),
    ("metrology", "61d12308790ec21b89a6c6d2066a98afab2f994facdd0d97457ee963555d9b2f"),
    ("discord", "fd778de671425fb9f293a70c623681a0d6756c569d38e804169ddf771e2723fe"),
    ("simulate-measure", "d330275248bb6978a6a86fb1de51f9e16fc910919b11f9f1c78b21c5b0391ba4"),
    ("simulate-measure-exact", "c9c968997b40ad3f02e91c8075e877624641ec5ad67e48c68582473ea308713f"),
])
def test_report_bytes_are_pinned(tmp_path, command, digest):
    # SHA-256 of the JSON report without "meta", which embeds the input path
    state, obs = tmp_path / "rho.json", tmp_path / "k.json"
    write_state(str(state), ginibre_mixed(5, 31))
    obs.write_text(json.dumps(matrix_to_obj(random_hermitian(5, 32))))
    argv = {
        "compute": ["compute", "--input", str(state), "--observable", str(obs)],
        "metrology": ["metrology", "--input", str(state), "--runs", "37"],
        "discord": ["discord", "--fixture", "theorem3-block"],
        "simulate-measure": ["simulate-measure", "--input", str(state), "--shots", "1000"],
        "simulate-measure-exact": ["simulate-measure", "--input", str(state), "--shots", "1000",
                                   "--exact-powers"],
    }[command]
    code, out = run_cli(argv)
    assert code == 0
    report = json.loads(out)
    del report["meta"]
    text = json.dumps(report, indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("dims,extra,digest", [
    ("2x3", ["--mode", "asym"], "59e8ec187485118431aa69c1f94bced381420528fe8d88728ab0d53faa0eee44"),
    ("3x3", ["--mode", "sym", "--restarts", "5"],
     "3a420dd7ed5d9d0a98c077f04bad432850d65748ad100640295f776b0e98438b"),
    # one and two restarts draw no random start; one restart never reports convergence
    ("2x3", ["--restarts", "1"], "e25227cca6d49ad9a5cfb48672546572494c80fcf9a8f971e069b77298878bcb"),
    ("2x3", ["--restarts", "2"], "be6909808181f928e72afc651030a8460b5e9517166694be558185f34593120d"),
    # a 4-dimensional subsystem, rotated by the fancy-index pair kernel when these were taken
    ("2x4", ["--mode", "asym", "--restarts", "8"],
     "0e48464e85a0bf1e49c2c7a639b6dd403ffadf557dad0d262bae6c3122e75442"),
    ("4x4", ["--mode", "sym", "--restarts", "4"],
     "ef9b765f70d20c321f4a4286195d6681a957f9cbcc6e4c8226a66eb024e7d8ae"),
])
def test_discord_bytes_are_pinned(tmp_path, dims, extra, digest):
    # SHA-256 of the JSON report without "meta", as the per-restart start loop wrote it
    assert _discord_digest(tmp_path, dims, extra) == digest


def _discord_digest(tmp_path, dims, extra, **overrides):
    da, db = map(int, dims.split("x"))
    state = tmp_path / "rho.json"
    write_state(str(state), ginibre_mixed(da * db, 33))
    code, out = run_cli(["discord", "--input", str(state), "--dims", dims, "--seed", "7"] + extra)
    assert code == 0
    report = json.loads(out)
    del report["meta"]
    report.update(overrides)
    return hashlib.sha256(json.dumps(report, indent=2).encode()).hexdigest()


def test_one_restart_report_changed_only_in_converged(tmp_path):
    # the pin from when one restart read as converged: every other byte is kept
    assert _discord_digest(tmp_path, "2x3", ["--restarts", "1"], converged=True) == (
        "67758a255d9cbade75634ce6ba5622119c4b80183139ed93056339757663926c")


@pytest.mark.parametrize("restarts", ["0", "-3"])
def test_discord_restarts_below_one_exits_2(restarts):
    code, out = run_cli(["discord", "--fixture", "theorem3-cnot", "--restarts", restarts])
    assert code == 2
    assert json.loads(out)["error"] == "NegativeCount"


def test_cached_parser_prints_what_a_fresh_parser_prints(tmp_path, monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    state = str(tmp_path / "rho.json")
    write_state(state, ginibre_mixed(4, 34))
    calls = [  # (argv, COHLAB_SEED)
        (["compute", "--input", state, "--seed", "abc"], None),
        (["compute", "--input", state], None),
        (["compute", "--input", state, "--seed", "5"], None),
        (["compute", "--input", state], "77"),
        (["discord", "--fixture", "theorem3-cnot", "--restarts", "3"], None),
        (["discord", "--input", state, "--dims", "2x2", "--restarts", "3"], None),
        (["compute", "--help"], None),
    ]

    def run_all():
        results = []
        for argv, env_seed in calls:
            if env_seed is None:
                monkeypatch.delenv(cli.ENV_SEED, raising=False)
            else:
                monkeypatch.setenv(cli.ENV_SEED, env_seed)
            buf = io.StringIO()
            with redirect_stdout(buf):
                try:
                    code = main(argv)
                except SystemExit as exc:  # --help
                    code = exc.code
            results.append((code, buf.getvalue()))
        return results

    cached = run_all()
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert cli.build_parser() is not cli.build_parser()
    assert run_all() == cached
    assert [code for code, _ in cached] == [2, 0, 0, 0, 0, 0, 0]
    assert [json.loads(out)["meta"]["seed"] for _, out in cached[1:4]] == [0, 5, 77]
    assert cached[-1][1].startswith("usage: cohlab compute")


def test_cached_fixtures_print_what_fresh_fixtures_print():
    argvs = [["discord", "--fixture", "theorem3-block"], ["fixture", "theorem3-cnot"]]
    first = [run_cli(argv) for argv in argvs]
    assert [run_cli(argv) for argv in argvs] == first
    for build in (cnot_attainment, block_unitary_example):
        build.cache_clear()
    assert [run_cli(argv) for argv in argvs] == first
    assert [code for code, _ in first] == [0, 0]
    assert cnot_attainment.cache_info().currsize == block_unitary_example.cache_info().currsize == 1


def _fresh_python(code):
    """stdout of ``code`` run in a new interpreter that imports this cohlab."""
    src = os.path.dirname(os.path.dirname(cohlab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=60).stdout.strip()


def test_cli_import_loads_no_scipy():
    # start-up loads what every command needs: numpy, errors and the seed rule in linalg
    code = ("import json, sys, cohlab.cli; cohlab.cli.build_parser(); "
            "print(json.dumps(sorted(sys.modules)))")
    loaded = json.loads(_fresh_python(code))
    assert [m for m in loaded if m.split(".")[0] == "cohlab"] == [
        "cohlab", "cohlab.cli", "cohlab.errors", "cohlab.linalg"]
    assert [m for m in loaded if m.split(".")[0] == "scipy" or m.startswith("numpy.random")] == []
    assert "numpy" in loaded


@pytest.mark.parametrize("argv, unused", [
    (["compute", "--input", "{state}"],
     "rand channels polygamy discord fixtures measurement metrology numpy.random"),
    (["metrology", "--input", "{state}", "--runs", "10"],
     "rand channels polygamy discord fixtures measurement numpy.random"),
    (["simulate-measure", "--input", "{state}", "--shots", "100"],
     "channels polygamy discord fixtures metrology"),
    (["sweep", "polygamy", "--dims", "2x2", "--samples", "3"],
     "discord channels fixtures serialize measurement metrology"),
    (["monotonicity", "--samples", "3", "--dim", "2"],
     "discord polygamy fixtures serialize measurement metrology"),
    (["discord", "--input", "{state}", "--dims", "2x2", "--restarts", "2"],
     "fixtures polygamy measurement metrology"),
    (["fixture", "theorem3-cnot"], "serialize measurement metrology"),
], ids=["compute", "metrology", "simulate-measure", "sweep", "monotonicity", "discord-input",
        "fixture"])
def test_each_command_loads_only_the_modules_it_runs(tmp_path, argv, unused):
    state = tmp_path / "rho.json"
    write_state(str(state), ginibre_mixed(4, 35))
    argv = [a.format(state=state) for a in argv]
    code = ("import contextlib, io, json, sys, cohlab.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    status = cohlab.cli.main({argv!r})\n"
            "print(json.dumps([status, sorted(sys.modules)]))")
    status, loaded = json.loads(_fresh_python(code))
    assert status == 0
    unused = {m if "." in m else f"cohlab.{m}" for m in unused.split()}
    assert [m for m in loaded if m in unused or m.split(".")[0] == "scipy"] == []


# the package's public names, which resolve on first access
PUBLIC = """
    CoherenceReport DensityMatrix DiscordResult KrausChannel LocalBasis MeasurementEstimate
    MetrologyReport MonotonicityVerdict Observable PolygamyRecord SelectiveOutcome ShotRecord
    SpectrumEstimate affinity apply apply_selective basis_state bipartite_record c_l1 c_l2
    c_rel_entropy c_skew child_rng coherence_report discord_asym discord_bound_check discord_sym
    estimate_measures exact_trace_powers find_qubit_violations generalized_cnot ginibre_mixed
    is_incoherent k_coherence l1_bounds local_basis maximally_coherent metrology_report
    monotonicity_check monotonicity_sweep optimal_incoherent_state partial_trace partition_check
    product_basis_coherence pure_polygamy_gap pure_state qfi_projector random_channel
    random_incoherent_channel recover_spectrum rotated simulate_shots skew_bounds skew_info
    skew_qfi_sandwich sqrtm subsystem_coherence sweep_polygamy sweep_summary tensor true_measures
    validate_channel validate_density validate_observable
""".split()
SUBMODULES = ("serialize metrology measurement errors fixtures discord polygamy channels rand "
              "coherence linalg cli").split()


def test_public_names_and_submodules_resolve_on_the_package():
    # perfbench reads submodules off the package object, e.g. cohlab.serialize.read_state
    code = f"""
import json, sys, cohlab, cohlab.cli
subs = [m for m in {SUBMODULES!r} if getattr(cohlab, m) is not sys.modules["cohlab." + m]]
homes = {{n: getattr(cohlab, n).__module__ for n in {PUBLIC!r}}}
foreign = [n for n, home in homes.items() if vars(sys.modules[home]).get(n) is not getattr(cohlab, n)]
star = {{}}
exec("from cohlab import *", star)
try:
    unknown = repr(cohlab.no_such_name)
except AttributeError as exc:
    unknown = str(exc)
print(json.dumps([subs, sorted(set(homes.values())), foreign, sorted(star), unknown]))
"""
    subs, homes, foreign, star, unknown = json.loads(_fresh_python(code))
    assert subs == [] and foreign == []
    assert homes == [f"cohlab.{m}" for m in sorted(
        "channels coherence discord linalg measurement metrology polygamy rand".split())]
    assert sorted(set(star) - {"__builtins__"}) == sorted(PUBLIC) and len(PUBLIC) == 64
    assert unknown == "module 'cohlab' has no attribute 'no_such_name'"


def test_cli_start_builds_no_fixture():
    # the theorem-3 fixtures are cached on first use, not built at import or parser time
    code = ("import cohlab.cli; cohlab.cli.build_parser(); from cohlab import fixtures; "
            "print([f.cache_info().currsize for f in "
            "(fixtures.cnot_attainment, fixtures.block_unitary_example)])")
    assert _fresh_python(code) == "[0, 0]"
