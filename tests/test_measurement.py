import numpy as np
import pytest

from cohlab import (
    c_rel_entropy,
    child_rng,
    estimate_measures,
    exact_trace_powers,
    ginibre_mixed,
    maximally_coherent,
    recover_spectrum,
    simulate_shots,
    true_measures,
    validate_density,
)
from cohlab.errors import CountTooLarge, DimensionMismatch, NegativeCount, NotFinite

from oracles import haar_pure, power_sum_jacobian_inverse_norm


def test_exact_powers_two_level():
    rho = validate_density(np.diag([0.7, 0.3]))
    p = exact_trace_powers(rho, 3)
    assert p[0] == pytest.approx(1.0, abs=1e-12)
    assert p[1] == pytest.approx(0.58, abs=1e-12)
    assert p[2] == pytest.approx(0.7**3 + 0.3**3, abs=1e-12)


def test_exact_powers_pure_state():
    psi = haar_pure(4, 2)
    assert np.abs(exact_trace_powers(psi, 5) - 1.0).max() < 1e-10


def test_exact_powers_maximally_mixed():
    rho = validate_density(np.eye(3) / 3.0)
    p = exact_trace_powers(rho, 4)
    assert np.allclose(p, [3.0 ** (1 - n) for n in range(1, 5)], atol=1e-12)


def test_simulate_shots_pure_state_always_plus():
    psi = haar_pure(3, 4)
    rec = simulate_shots(psi, 2, 1000, 0)
    assert rec.plus_count == 1000
    assert rec.trace_power_hat == pytest.approx(1.0, abs=1e-12)


def test_simulate_shots_three_sigma():
    rho = validate_density(np.diag([0.7, 0.3]))
    rec = simulate_shots(rho, 2, 10**5, child_rng(42, 0))
    p = (1 + 0.58) / 2
    bound = 3 * 2 * np.sqrt(p * (1 - p) / 10**5)
    assert abs(rec.trace_power_hat - 0.58) <= bound


def test_simulate_single_shot():
    rho = ginibre_mixed(2, 5)
    rec = simulate_shots(rho, 2, 1, 7)
    assert rec.plus_count in (0, 1)
    assert rec.shots == 1


def test_simulate_shots_rejects_bad_power():
    with pytest.raises(NegativeCount):
        simulate_shots(ginibre_mixed(2, 0), 1, 10, 0)


def test_recover_two_level_exact():
    est = recover_spectrum([1.0, 0.58])
    assert np.abs(est.eigenvalues - [0.7, 0.3]).max() < 1e-10
    assert not est.ill_conditioned


def test_recover_random_round_trip():
    for d in range(2, 7):
        for i in range(50):
            rho = ginibre_mixed(d, child_rng(1100 + d, i))
            est = recover_spectrum(exact_trace_powers(rho, d))
            assert np.abs(est.eigenvalues - rho.eigenvalues).max() < 1e-8
            assert est.residuals.max() < 1e-9
            assert not est.ill_conditioned


@pytest.mark.parametrize("powers", [[1.0, np.nan], [1.0, 0.5, np.inf]])
def test_recover_rejects_non_finite_power_sums(powers):
    with pytest.raises(NotFinite):
        recover_spectrum(powers)


def test_recover_flags_large_dimension():
    rho = ginibre_mixed(7, 3)
    est = recover_spectrum(exact_trace_powers(rho, 7))
    assert est.ill_conditioned


def test_recover_noisy_powers_bounded_by_propagation():
    # while the roots stay clean the error follows the power-sum Jacobian;
    # root collisions set the conditioning flag and stay within the scale of
    # the colliding pair's separation
    lam = np.array([0.6, 0.3, 0.1])
    rho = validate_density(np.diag(lam))
    p_true = exact_trace_powers(rho, 3)
    kappa = power_sum_jacobian_inverse_norm(lam)
    clean = 0
    for s in range(100):
        est_p = p_true.copy()
        for n in (2, 3):
            rec = simulate_shots(rho, n, 10**4, child_rng(1200 + s, n))
            est_p[n - 1] = rec.trace_power_hat
        est = recover_spectrum(est_p)
        perr = np.abs(est_p - p_true).max()
        lerr = np.abs(est.eigenvalues - lam).max()
        if est.ill_conditioned:
            assert lerr <= 0.25
        else:
            clean += 1
            assert lerr <= 1.2 * kappa * perr + 1e-12
    assert clean >= 50


def test_estimator_std_matches_binomial():
    rho = validate_density(np.diag([0.7, 0.3]))
    shots = 10**4
    hats = np.array(
        [simulate_shots(rho, 2, shots, child_rng(9, s)).trace_power_hat for s in range(200)]
    )
    p = (1 + 0.58) / 2
    predicted = 2 * np.sqrt(p * (1 - p) / shots)
    assert hats.std(ddof=1) / predicted == pytest.approx(1.0, abs=0.2)


def test_estimate_plus_state_exact_powers():
    est = estimate_measures(maximally_coherent(2), 100, seed=0, exact_powers=True)
    assert est.c_rel_hat == pytest.approx(1.0, abs=1e-9)
    assert est.c_l2_hat == pytest.approx(0.5, abs=1e-9)
    assert est.skew_bounds_hat[0] == pytest.approx(0.25, abs=1e-9)
    assert est.skew_bounds_hat[1] == pytest.approx(0.5, abs=1e-9)


def test_estimate_diagonal_state_near_zero():
    rho = validate_density(np.diag([0.5, 0.3, 0.2]))
    est = estimate_measures(rho, 10**5, seed=3)
    assert abs(est.c_rel_hat) < 0.02
    assert abs(est.c_l2_hat) < 0.02


def test_estimate_converges_with_shots():
    rho = ginibre_mixed(3, 21)
    true = c_rel_entropy(rho)
    errs = []
    for shots in (10**3, 10**5):
        err = np.mean(
            [abs(estimate_measures(rho, shots, seed=s).c_rel_hat - true) for s in range(10)]
        )
        errs.append(err)
    assert errs[1] < errs[0]


def test_estimate_matches_true_values_on_exact_powers():
    for i in range(20):
        rho = ginibre_mixed(4, child_rng(1300, i))
        est = estimate_measures(rho, 1, seed=0, exact_powers=True)
        tv = true_measures(rho)
        assert est.c_rel_hat == pytest.approx(tv["c_rel"], abs=1e-7)
        assert est.c_l2_hat == pytest.approx(tv["c_l2"], abs=1e-8)
        assert est.skew_bounds_hat[0] == pytest.approx(tv["skew_bounds"][0], abs=1e-8)
        assert est.skew_bounds_hat[1] == pytest.approx(tv["skew_bounds"][1], abs=1e-8)


def test_cost_accounting():
    for d in (2, 3, 5):
        rho = ginibre_mixed(d, d)
        est = estimate_measures(rho, 10, seed=0)
        assert est.swap_settings == d - 1
        assert est.projector_probes == d - 1
        assert len(est.shot_records) == d - 1
        assert [r.power for r in est.shot_records] == list(range(2, d + 1))


@pytest.mark.parametrize("call,error", [
    (lambda rho: simulate_shots(rho, 2, 2.5, 0), DimensionMismatch),
    (lambda rho: simulate_shots(rho, 2.0, 10, 0), DimensionMismatch),
    (lambda rho: simulate_shots(rho, 2, 0, 0), NegativeCount),
    (lambda rho: exact_trace_powers(rho, 1.5), DimensionMismatch),
    (lambda rho: exact_trace_powers(rho, 0), NegativeCount),
    (lambda rho: estimate_measures(rho, 2.5, 0), DimensionMismatch),
    (lambda rho: estimate_measures(rho, -7, 0, exact_powers=True), NegativeCount),
    (lambda rho: estimate_measures(rho, 0, 0, exact_powers=True), NegativeCount),
    (lambda rho: estimate_measures(rho, 2.5, 0, exact_powers=True), DimensionMismatch),
    (lambda rho: estimate_measures(validate_density([[1.0]]), 0, 0), NegativeCount),
], ids=["shots-float", "power-float", "shots-zero", "max-n-float", "max-n-zero",
        "estimate-shots-float",
        "exact-shots-negative", "exact-shots-zero", "exact-shots-float", "one-level-shots-zero"])
def test_counts_are_positive_integers(call, error):
    with pytest.raises(error):
        call(ginibre_mixed(3, 1))


def test_shot_counts_stop_at_the_samplers_int64():
    rho = ginibre_mixed(2, 0)
    assert simulate_shots(rho, 2, 2**63 - 1, 0).shots == 2**63 - 1
    with pytest.raises(CountTooLarge):
        simulate_shots(rho, 2, 2**63, 0)


def test_recover_rejects_empty_power_sums():
    with pytest.raises(DimensionMismatch):
        recover_spectrum([])


@pytest.mark.parametrize("powers", [["a"], [[1.0, 0.5]], 1.0, [object()]],
                         ids=["string", "2-d", "scalar", "object"])
def test_recover_rejects_power_sums_that_are_not_a_list_of_numbers(powers):
    with pytest.raises(DimensionMismatch):
        recover_spectrum(powers)
