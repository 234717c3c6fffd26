import json
import math

import numpy as np
import pytest

import cohlab.coherence
import cohlab.linalg
import cohlab.metrology

from cohlab import (
    c_skew,
    child_rng,
    ginibre_mixed,
    maximally_coherent,
    metrology_report,
    qfi_projector,
    skew_info,
    skew_qfi_sandwich,
    validate_density,
)

from cohlab.errors import DimensionMismatch, NegativeCount

from oracles import haar_pure, qfi_finite_difference


def test_qfi_pure_plus_state():
    assert qfi_projector(maximally_coherent(2), 0) == pytest.approx(1.0, abs=1e-10)


def test_qfi_diagonal_state_vanishes():
    rho = validate_density(np.diag([0.2, 0.3, 0.5]))
    for k in range(3):
        assert qfi_projector(rho, k) == pytest.approx(0.0, abs=1e-12)


def test_qfi_matches_fidelity_finite_difference():
    for i in range(10):
        rho = ginibre_mixed(3, child_rng(1000, i))
        for k in range(3):
            assert qfi_projector(rho, k) == pytest.approx(
                qfi_finite_difference(rho.mat, k), abs=1e-5
            )


def test_qfi_pure_state_variance_formula():
    for i in range(20):
        psi = haar_pure(4, child_rng(1001, i))
        d = psi.diag()
        for k in range(4):
            assert qfi_projector(psi, k) == pytest.approx(
                4.0 * (d[k] - d[k] ** 2), abs=1e-10
            )


def test_qfi_gauge_invariance():
    from cohlab.linalg import DensityMatrix

    rho = ginibre_mixed(4, 7)
    phases = np.exp(1j * child_rng(1002, 0).uniform(0, 2 * np.pi, 4))
    regauged = DensityMatrix(rho.mat, rho.eigenvalues, rho.eigenvectors * phases)
    for k in range(4):
        assert qfi_projector(rho, k) == pytest.approx(qfi_projector(regauged, k), abs=1e-10)


def test_sandwich_pure_state_lower_edge():
    out = skew_qfi_sandwich(maximally_coherent(2), 0)
    assert out["ok"]
    assert out["skew"] == pytest.approx(0.25, abs=1e-12)
    assert out["qfi"] / 4.0 == pytest.approx(0.25, abs=1e-10)


def test_sandwich_diagonal_degenerate():
    rho = validate_density(np.diag([0.5, 0.5]))
    out = skew_qfi_sandwich(rho, 0)
    assert out["ok"]
    assert out["skew"] == pytest.approx(0.0, abs=1e-14)
    assert out["qfi"] == pytest.approx(0.0, abs=1e-14)


def test_sandwich_random_sweep():
    for i in range(1000):
        rng = child_rng(1003, i)
        d = int(rng.integers(2, 6))
        rho = ginibre_mixed(d, rng)
        for k in range(d):
            assert skew_qfi_sandwich(rho, k)["ok"]


def test_summed_sandwich():
    for i in range(100):
        rho = ginibre_mixed(4, child_rng(1004, i))
        total = sum(qfi_projector(rho, k) for k in range(4)) / 4.0
        c = c_skew(rho)
        assert c - 1e-9 <= total <= 2.0 * c + 1e-9


def test_report_maximally_coherent_qutrit():
    rep = metrology_report(maximally_coherent(3), 100)
    agg = rep.aggregate
    assert agg["ok"]
    assert agg["lower"] == pytest.approx(4 * 100 * (2.0 / 3.0), abs=1e-9)
    assert agg["upper"] == pytest.approx(8 * 100 * (2.0 / 3.0), abs=1e-9)
    assert agg["lower"] - 1e-9 <= agg["sum_inv_var"] <= agg["upper"] + 1e-9


def test_report_diagonal_state_flags_everything():
    rep = metrology_report(validate_density(np.diag([0.6, 0.4])), 10)
    assert rep.aggregate["sum_inv_var"] == 0.0
    assert rep.aggregate["excluded_k"] == [0, 1]
    assert rep.aggregate["ok"]
    assert all(math.isinf(e["var_opt"]) for e in rep.per_k)
    d = rep.to_dict()
    assert d["per_k"][0]["var_opt"] is None


def test_report_plus_state_single_run():
    rep = metrology_report(maximally_coherent(2), 1)
    assert rep.aggregate["sum_inv_var"] == pytest.approx(2.0, abs=1e-9)
    assert rep.aggregate["lower"] == pytest.approx(2.0, abs=1e-9)
    assert rep.aggregate["upper"] == pytest.approx(4.0, abs=1e-9)


def test_report_per_k_consistency():
    # the report's per-index values carry the single-index functions' bits
    n = 50
    for dim in (1, 2, 3, 5, 16):
        rho = ginibre_mixed(dim, 9)
        rep = metrology_report(rho, n)
        for k, entry in enumerate(rep.per_k):
            assert entry["skew"] == skew_info(rho, k)
            assert entry["qfi"] == qfi_projector(rho, k)
            if entry["finite"]:
                assert entry["var_opt"] == pytest.approx(1.0 / (n * entry["qfi"]), abs=1e-12)
                assert entry["var_lower"] - 1e-12 <= entry["var_opt"] <= entry["var_upper"] + 1e-12


@pytest.mark.parametrize("dim", [1, 4, 9])
def test_report_builds_the_ratio_once_and_sqrt_diag_at_most_twice(dim, monkeypatch):
    calls = {"ratio": 0, "sqrt_diag": 0}

    def counted(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    rho = ginibre_mixed(dim, 11)
    ratio = counted("ratio", cohlab.metrology._qfi_ratio)
    monkeypatch.setattr(cohlab.metrology, "_qfi_ratio", ratio)
    sqrt_diag = counted("sqrt_diag", cohlab.linalg._sqrt_diag)
    monkeypatch.setattr(cohlab.linalg, "_sqrt_diag", sqrt_diag)
    monkeypatch.setattr(cohlab.coherence, "_sqrt_diag", sqrt_diag)
    metrology_report(rho, 10)
    assert calls["ratio"] == 1
    assert 1 <= calls["sqrt_diag"] <= 2


@pytest.mark.parametrize("n_runs,error", [
    (2.5, DimensionMismatch), ("3", DimensionMismatch), (True, DimensionMismatch),
    (0, NegativeCount), (-1, NegativeCount),
], ids=["2.5", "3", "True", "0", "-1"])
def test_report_rejects_run_counts_that_are_not_positive_integers(n_runs, error):
    with pytest.raises(error):
        metrology_report(maximally_coherent(2), n_runs)


def test_report_run_count_prints_as_an_integer():
    rep = metrology_report(maximally_coherent(2), np.int64(3))
    assert json.loads(json.dumps(rep.to_dict()))["n_runs"] == 3
