import numpy as np
import pytest

from cohlab import (
    affinity,
    apply_selective,
    c_l1,
    c_l2,
    c_rel_entropy,
    c_skew,
    child_rng,
    coherence_report,
    ginibre_mixed,
    k_coherence,
    l1_bounds,
    maximally_coherent,
    optimal_incoherent_state,
    random_channel,
    rotated,
    skew_bounds,
    skew_info,
    validate_density,
    validate_observable,
)
from cohlab.errors import DimensionMismatch
from cohlab.fixtures import COUNTEREXAMPLE_RHO, COUNTEREXAMPLE_K

from oracles import k_coherence_commutator, random_hermitian, random_unitary, skew_info_commutator


def test_skew_info_diagonal_state_vanishes():
    rho = validate_density(np.diag([0.3, 0.7]))
    assert skew_info(rho, 0) == pytest.approx(0.0, abs=1e-14)


def test_skew_info_plus_state_quarter():
    assert skew_info(maximally_coherent(2), 0) == pytest.approx(0.25, abs=1e-12)


def test_skew_info_matches_commutator_oracle():
    rho = validate_density(COUNTEREXAMPLE_RHO)
    for k in range(3):
        assert skew_info(rho, k) == pytest.approx(
            skew_info_commutator(rho.mat, k), abs=1e-10
        )
    for i in range(20):
        rho = ginibre_mixed(4, child_rng(600, i))
        for k in range(4):
            assert skew_info(rho, k) == pytest.approx(
                skew_info_commutator(rho.mat, k), abs=1e-10
            )


def test_skew_info_range():
    for i in range(200):
        rho = ginibre_mixed(3, child_rng(601, i))
        for k in range(3):
            v = skew_info(rho, k)
            assert -1e-12 <= v <= 0.25 + 1e-12


def test_c_skew_diagonal_zero():
    rng = child_rng(602, 0)
    d = rng.dirichlet(np.ones(4))
    assert c_skew(validate_density(np.diag(d))) == pytest.approx(0.0, abs=1e-12)


def test_c_skew_maximally_coherent_values():
    assert c_skew(maximally_coherent(3)) == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert c_skew(maximally_coherent(9)) == pytest.approx(8.0 / 9.0, abs=1e-12)


def test_c_skew_equals_skew_info_sum():
    for i in range(100):
        rho = ginibre_mixed(4, child_rng(603, i))
        total = sum(skew_info(rho, k) for k in range(4))
        assert c_skew(rho) == pytest.approx(total, abs=1e-10)


def test_c_skew_range_and_maximum():
    for d in (2, 3, 4):
        cap = 1.0 - 1.0 / d
        assert c_skew(maximally_coherent(d)) == pytest.approx(cap, abs=1e-12)
        for i in range(100):
            v = c_skew(ginibre_mixed(d, child_rng(604 + d, i)))
            assert -1e-12 <= v <= cap + 1e-10


def test_null_state_characterization():
    # zero coherence forces tiny off-diagonals and vice versa
    for i in range(50):
        rng = child_rng(605, i)
        diag = validate_density(np.diag(rng.dirichlet(np.ones(3))))
        assert c_skew(diag) < 1e-12
        rho = ginibre_mixed(3, rng)
        off = np.abs(rho.mat - np.diag(rho.mat.diagonal())).max()
        if off > 1e-4:
            assert c_skew(rho) > 1e-9


def test_convexity_under_mixing():
    for i in range(100):
        rng = child_rng(606, i)
        r1 = ginibre_mixed(3, rng)
        r2 = ginibre_mixed(3, rng)
        t = rng.uniform()
        mix = validate_density(t * r1.mat + (1 - t) * r2.mat)
        assert c_skew(mix) <= t * c_skew(r1) + (1 - t) * c_skew(r2) + 1e-10


def test_basis_covariance():
    for i in range(50):
        rng = child_rng(607, i)
        rho = ginibre_mixed(3, rng)
        u = random_unitary(3, rng)
        conjugated = validate_density(u @ rho.mat @ u.conj().T)
        assert c_skew(rotated(conjugated, u)) == pytest.approx(c_skew(rho), abs=1e-10)


def test_optimal_incoherent_state_plus():
    delta = optimal_incoherent_state(maximally_coherent(2))
    assert np.allclose(delta.mat, np.diag([0.5, 0.5]), atol=1e-12)


def test_optimal_incoherent_state_fixes_diagonal():
    rho = validate_density(np.diag([0.2, 0.3, 0.5]))
    assert np.abs(optimal_incoherent_state(rho).mat - rho.mat).max() < 1e-12


def test_optimal_incoherent_state_beats_random_diagonals():
    rho = ginibre_mixed(3, 11)
    best = affinity(rho, optimal_incoherent_state(rho))
    rng = child_rng(608, 0)
    for _ in range(10000):
        delta = validate_density(np.diag(rng.dirichlet(np.ones(3))))
        assert affinity(rho, delta) <= best + 1e-10


def test_affinity_self_and_orthogonal():
    rho = ginibre_mixed(3, 12)
    assert affinity(rho, rho) == pytest.approx(1.0, abs=1e-10)
    a = validate_density(np.diag([1.0, 0.0]))
    b = validate_density(np.diag([0.0, 1.0]))
    assert affinity(a, b) == pytest.approx(0.0, abs=1e-12)


def test_affinity_closed_form_identity():
    for i in range(50):
        rho = ginibre_mixed(4, child_rng(609, i))
        f = affinity(rho, optimal_incoherent_state(rho))
        assert 1.0 - f**2 == pytest.approx(c_skew(rho), abs=1e-10)


def test_affinity_dimension_check():
    with pytest.raises(DimensionMismatch):
        affinity(ginibre_mixed(2, 0), ginibre_mixed(3, 0))


def test_data_processing_inequality():
    # affinity never drops under a selective channel, incoherent or not
    for i in range(200):
        rng = child_rng(610, i)
        d = int(rng.integers(2, 5))
        ch = random_channel(d, int(rng.integers(1, 4)), rng)
        rho = ginibre_mixed(d, rng)
        sigma = ginibre_mixed(d, rng)
        outs_r = apply_selective(ch, rho)
        outs_s = apply_selective(ch, sigma)
        rhs = sum(
            np.sqrt(orr.probability * oss.probability) * affinity(orr.state, oss.state)
            for orr, oss in zip(outs_r, outs_s)
        )
        assert affinity(rho, sigma) <= rhs + 1e-9


def test_c_rel_entropy_values():
    assert c_rel_entropy(validate_density(np.diag([0.25, 0.75]))) == pytest.approx(0.0, abs=1e-12)
    assert c_rel_entropy(maximally_coherent(2)) == pytest.approx(1.0, abs=1e-10)
    for d in (3, 4, 5):
        assert c_rel_entropy(maximally_coherent(d)) == pytest.approx(np.log2(d), abs=1e-10)


def test_l1_l2_examples():
    plus = maximally_coherent(2)
    assert c_l1(plus) == pytest.approx(1.0, abs=1e-12)
    assert c_l2(plus) == pytest.approx(0.5, abs=1e-12)
    diag = validate_density(np.diag([0.1, 0.9]))
    assert c_l1(diag) == 0.0
    assert c_l2(diag) == 0.0
    for d in (3, 5):
        m = maximally_coherent(d)
        assert c_l1(m) == pytest.approx(d - 1.0, abs=1e-10)
        assert c_l2(m) == pytest.approx((d - 1.0) / d, abs=1e-10)


def test_l2_trace_identity():
    for i in range(100):
        rho = ginibre_mixed(4, child_rng(611, i))
        d = rho.diag()
        assert c_l2(rho) == pytest.approx(rho.purity() - float(d @ d), abs=1e-10)
        off = sum(
            abs(rho.mat[a, b]) for a in range(4) for b in range(4) if a != b
        )
        assert c_l1(rho) == pytest.approx(off, abs=1e-12)


def test_skew_bounds_plus_state():
    lo, hi = skew_bounds(maximally_coherent(2))
    assert (lo, hi) == (pytest.approx(0.25, abs=1e-12), pytest.approx(0.5, abs=1e-12))
    assert c_skew(maximally_coherent(2)) == pytest.approx(hi, abs=1e-10)


def test_skew_bounds_diagonal_slack():
    rho = validate_density(np.diag([0.6, 0.4]))
    lo, hi = skew_bounds(rho)
    assert lo == 0.0
    assert hi == pytest.approx(1.0 - rho.purity(), abs=1e-12)
    assert c_skew(rho) <= hi


def test_skew_bounds_sandwich_sweep():
    for i in range(500):
        rho = ginibre_mixed(4, child_rng(612, i))
        lo, hi = skew_bounds(rho)
        c = c_skew(rho)
        assert c >= lo - 1e-10
        assert c <= hi + 1e-10


def test_l1_bounds_examples_and_sweep():
    lo, hi = l1_bounds(maximally_coherent(2))
    assert (lo, hi) == (pytest.approx(0.5, abs=1e-12), pytest.approx(1.0, abs=1e-12))
    diag = validate_density(np.diag([0.3, 0.7]))
    assert l1_bounds(diag) == (0.0, 0.0)
    for i in range(500):
        rho = ginibre_mixed(3, child_rng(613, i))
        lo, hi = l1_bounds(rho)
        l1 = c_l1(rho)
        assert lo - 1e-10 <= l1 <= hi + 1e-10


def test_k_coherence_commuting_vanishes():
    rho = validate_density(np.diag([0.2, 0.8]))
    k = validate_observable(np.diag([1.0, 3.0]))
    assert k_coherence(rho, k) == pytest.approx(0.0, abs=1e-12)


def test_k_coherence_counterexample_value():
    # reproducible digits from the printed four-decimal state
    rho = validate_density(COUNTEREXAMPLE_RHO)
    k = validate_observable(COUNTEREXAMPLE_K)
    v = k_coherence(rho, k)
    assert v == pytest.approx(0.2271695, abs=1e-6)
    assert v == pytest.approx(k_coherence_commutator(rho.mat, COUNTEREXAMPLE_K), abs=1e-9)


def test_k_coherence_qubit_equivalence():
    # for qubits the observable-weighted measure is 2 lambda^2 times the
    # projector-summed coherence in the observable's eigenbasis
    for i in range(100):
        rng = child_rng(614, i)
        rho = ginibre_mixed(2, rng)
        k = random_hermitian(2, rng)
        w, v = np.linalg.eigh(k)
        lam = (w[1] - w[0]) / 2.0
        expected = 2.0 * lam**2 * c_skew(rotated(rho, v))
        assert k_coherence(rho, validate_observable(k)) == pytest.approx(expected, abs=1e-9)


def test_coherence_report_consistency():
    for i in range(30):
        rho = ginibre_mixed(4, child_rng(615, i))
        rep = coherence_report(rho)
        assert rep.c_skew == pytest.approx(float(np.sum(rep.skew_per_k)), abs=1e-10)
        assert rep.bounds["skew_lower"] - 1e-10 <= rep.c_skew <= rep.bounds["skew_upper"] + 1e-10
        assert rep.bounds["l1_lower"] - 1e-10 <= rep.c_l1 <= rep.bounds["l1_upper"] + 1e-10
        assert min(rep.c_skew, rep.c_rel, rep.c_l1, rep.c_l2) >= -1e-12
        d = rep.to_dict()
        assert set(d["bounds"]) == {"skew_lower", "skew_upper", "l1_lower", "l1_upper"}


def test_k_coherence_rejects_an_observable_of_another_dimension():
    with pytest.raises(DimensionMismatch):
        k_coherence(ginibre_mixed(3, 1), validate_observable(np.eye(2)))


def test_report_fields_are_bit_identical_to_the_single_measures():
    for dim in (1, 2, 5, 16):
        rho = ginibre_mixed(dim, child_rng(616, dim))
        rep = coherence_report(rho)
        assert (rep.c_skew, rep.c_rel, rep.c_l1, rep.c_l2) == (
            c_skew(rho), c_rel_entropy(rho), c_l1(rho), c_l2(rho))
        assert rep.skew_per_k.tolist() == [skew_info(rho, k) for k in range(dim)]
        assert (rep.bounds["skew_lower"], rep.bounds["skew_upper"]) == skew_bounds(rho)
        assert (rep.bounds["l1_lower"], rep.bounds["l1_upper"]) == l1_bounds(rho)
