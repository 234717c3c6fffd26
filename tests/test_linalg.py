import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cohlab import (
    basis_state,
    child_rng,
    discord_sym,
    estimate_measures,
    generalized_cnot,
    ginibre_mixed,
    haar_pure,
    maximally_coherent,
    monotonicity_sweep,
    partial_trace,
    pure_state,
    qfi_projector,
    random_unitary,
    skew_qfi_sandwich,
    sqrtm,
    sweep_polygamy,
    tensor,
    validate_density,
)
from cohlab.channels import validate_channel
from cohlab.coherence import check_unitary, skew_info, validate_observable
from cohlab.errors import (
    DimensionMismatch,
    NegativeCount,
    NotFinite,
    NotHermitian,
    NotPSD,
    NotUnitTrace,
)
from cohlab.fixtures import COUNTEREXAMPLE_RHO
from cohlab.linalg import CHUNK_ENTRIES, _chunks, _partial_trace
from cohlab.rand import as_rng

from oracles import _reduced, psd_sqrt


def test_validate_maximally_mixed_qubit():
    rho = validate_density(np.diag([0.5, 0.5]))
    assert rho.dim == 2
    assert np.allclose(rho.mat, np.diag([0.5, 0.5]))


def test_validate_counterexample_state():
    rho = validate_density(COUNTEREXAMPLE_RHO)
    assert rho.dim == 3
    assert np.abs(rho.mat - COUNTEREXAMPLE_RHO).max() < 1e-9


def test_validate_rejects_bad_trace():
    with pytest.raises(NotUnitTrace):
        validate_density(np.diag([0.7, 0.4]))


def test_validate_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        validate_density(np.array([[0.5, 0.1], [0.3, 0.5]]))


def test_validate_rejects_negative_eigenvalue():
    with pytest.raises(NotPSD):
        validate_density(np.diag([1.5, -0.5]))


def test_validate_rejects_overflow_when_symmetrizing():
    # finite entries whose sum a + a^dag overflows once gave an all-NaN state
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and numpy warns no RuntimeWarning on the way
        with pytest.raises(NotFinite):
            validate_density(np.array([[0.5, 1e308], [1e308, 0.5]]))


def test_validate_rejects_non_square():
    with pytest.raises(DimensionMismatch):
        validate_density(np.ones((2, 3)))


@pytest.mark.parametrize("entries", [np.zeros((0, 0)), [[0.5, 0.5], [0.5]], "rho"],
                         ids=["empty", "ragged", "string"])
@pytest.mark.parametrize("validate", [validate_density, validate_observable, check_unitary],
                         ids=["density", "observable", "unitary"])
def test_validators_reject_non_matrices(validate, entries):
    with pytest.raises(DimensionMismatch):
        validate(entries)


def test_observable_rejects_overflow_when_symmetrizing():
    # entries whose sum a + a^dag overflows once gave an Observable of inf + nan j
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotFinite):
            validate_observable([[1e308, 1e308], [1e308, 1e308]])


def test_check_unitary_rejects_overflowing_residual():
    # u^dag u overflows to a NaN residual, which once passed the tolerance test
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DimensionMismatch):
            check_unitary(np.full((2, 2), 1e200 + 1e200j))


def test_validate_clips_roundoff_negatives():
    rho = validate_density(np.diag([1.0 + 5e-10, -5e-10]))
    assert rho.eigenvalues.min() >= 0.0
    assert abs(rho.eigenvalues.sum() - 1.0) < 1e-15


@st.composite
def _non_finite_matrices(draw):
    n = draw(st.integers(1, 4))
    finite = arrays(float, (n, n), elements=st.floats(-1e3, 1e3))
    m = draw(finite) + 1j * draw(finite)
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    part = m.real if draw(st.booleans()) else m.imag
    part[i, j] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return m


@given(_non_finite_matrices())
def test_validators_reject_non_finite_entries(m):
    for validate in (validate_density, validate_observable, check_unitary,
                     lambda a: validate_channel([a])):
        with pytest.raises(NotFinite):
            validate(m)


def test_eigh_descending_and_reconstruction():
    rho = validate_density(np.diag([0.3, 0.7]))
    assert np.allclose(rho.eigenvalues, [0.7, 0.3])
    plus = maximally_coherent(2)
    assert np.allclose(plus.eigenvalues, [1.0, 0.0], atol=1e-12)
    rho = ginibre_mixed(5, 3)
    v, w = rho.eigenvectors, rho.eigenvalues
    assert np.abs(v.conj().T @ v - np.eye(5)).max() < 1e-9
    assert np.abs((v * w) @ v.conj().T - rho.mat).max() < 1e-8


def test_eigh_property_sweep():
    for i in range(1000):
        rho = ginibre_mixed(4, child_rng(100, i))
        w = rho.eigenvalues
        assert abs(w.sum() - 1.0) < 1e-9
        assert w.min() >= 0.0
        assert np.all(np.diff(w) <= 1e-15)


def test_eigh_invariant_under_conjugation():
    rho = ginibre_mixed(4, 8)
    u = random_unitary(4, 9)
    rotated = validate_density(u @ rho.mat @ u.conj().T)
    assert np.abs(np.sort(rotated.eigenvalues) - np.sort(rho.eigenvalues)).max() < 1e-9


def test_sqrtm_diagonal():
    s = sqrtm(validate_density(np.diag([0.25, 0.75])))
    assert np.allclose(s, np.diag([0.5, np.sqrt(0.75)]))


def test_sqrtm_pure_state_idempotent():
    plus = maximally_coherent(2)
    assert np.abs(sqrtm(plus) - plus.mat).max() < 1e-12


def test_sqrtm_multiply_back_counterexample():
    rho = validate_density(COUNTEREXAMPLE_RHO)
    s = sqrtm(rho)
    assert np.abs(s @ s - rho.mat).max() < 1e-8


@pytest.mark.parametrize("dim", [2, 3, 5, 7, 9])
def test_sqrtm_multiply_back_random(dim):
    for i in range(20):
        rho = ginibre_mixed(dim, child_rng(200 + dim, i))
        s = sqrtm(rho)
        assert np.abs(s @ s - rho.mat).max() < 1e-8
        assert np.abs(s - s.conj().T).max() < 1e-12


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_oracle_sqrt_matches_scipy_on_full_rank_states(dim):
    import scipy.linalg

    for i in range(20):
        mat = ginibre_mixed(dim, child_rng(42, i)).mat
        assert np.abs(psd_sqrt(mat) - scipy.linalg.sqrtm(mat)).max() < 1e-12


def test_tensor_basis_states():
    t = tensor(basis_state(2, 0), basis_state(2, 0))
    assert np.allclose(t.mat, np.diag([1.0, 0, 0, 0]))


def test_tensor_plus_states():
    t = tensor(maximally_coherent(2), maximally_coherent(2))
    assert np.abs(t.mat - 0.25).max() < 1e-12


def test_tensor_qutrits_gives_uniform_ninth():
    t = tensor(maximally_coherent(3), maximally_coherent(3))
    assert t.dim == 9
    assert np.abs(t.mat - 1.0 / 9.0).max() < 1e-12


def test_partial_trace_bell_is_maximally_mixed():
    bell = pure_state([1, 0, 0, 1])
    red = partial_trace(bell, [2, 2], [0])
    assert np.abs(red.mat - np.eye(2) / 2).max() < 1e-12


def test_partial_trace_of_product_recovers_factor():
    a = ginibre_mixed(2, 5)
    b = ginibre_mixed(3, 6)
    assert np.abs(partial_trace(tensor(a, b), [2, 3], [0]).mat - a.mat).max() < 1e-10
    assert np.abs(partial_trace(tensor(a, b), [2, 3], [1]).mat - b.mat).max() < 1e-10


def test_partial_trace_max_coherent_marginal():
    t = tensor(maximally_coherent(3), maximally_coherent(3))
    red = partial_trace(t, [3, 3], [0])
    assert np.abs(red.mat - 1.0 / 3.0).max() < 1e-12


def test_partial_trace_keeps_trace_one():
    for i in range(50):
        rho = ginibre_mixed(6, child_rng(300, i))
        red = partial_trace(rho, [2, 3], [1])
        assert abs(red.mat.trace().real - 1.0) < 1e-10


@pytest.mark.parametrize("dims, keep", [
    ((2, 3), [0]), ((2, 3), [1]),
    *[(dims, keep) for dims in [(2, 2, 3), (2, 3, 2)] for keep in [[0], [1], [0, 2], [1, 2]]],
])
def test_stacked_partial_trace_matches_each_matrix_and_the_einsum_oracle(dims, keep):
    # tolerance set beforehand: each entry sums at most 6 entries of a unit-trace matrix
    mats = np.stack([ginibre_mixed(int(np.prod(dims)), child_rng(310, i)).mat for i in range(8)])
    stacked = _partial_trace(mats, dims, keep)
    for mat, reduced in zip(mats, stacked):
        assert reduced.tobytes() == _partial_trace(mat, dims, keep).tobytes()
        assert np.abs(reduced - _reduced(mat, dims, keep)).max() <= 1e-15


def test_partial_trace_dimension_check():
    rho = ginibre_mixed(4, 1)
    with pytest.raises(DimensionMismatch):
        partial_trace(rho, [2, 3], [0])


@pytest.mark.parametrize("call", [
    lambda rho: basis_state(2, 2),
    lambda rho: basis_state(2, -1),
    lambda rho: basis_state(2, 1.0),
    lambda rho: partial_trace(rho, [2, 2], ["a"]),
    lambda rho: partial_trace(rho, [2, 2], 0.7),
    lambda rho: partial_trace(rho, [2, 2], [0.5]),
    lambda rho: skew_info(rho, 1.5),
    lambda rho: qfi_projector(rho, 1.5),
    lambda rho: skew_info(rho, True),
    lambda rho: qfi_projector(rho, True),
    lambda rho: maximally_coherent(2.5),
    lambda rho: maximally_coherent(-1),
    lambda rho: generalized_cnot(2.5),
    lambda rho: ginibre_mixed(2.5, 1),
    lambda rho: ginibre_mixed(0, 1),
    lambda rho: haar_pure(2.5, 1),
    lambda rho: random_unitary(2.5, 1),
], ids=["basis-past-end", "basis-negative", "basis-float", "keep-string", "keep-float",
        "keep-float-list", "skew-float", "qfi-float", "skew-bool", "qfi-bool",
        "max-coherent-float", "max-coherent-negative", "cnot-float", "ginibre-float",
        "ginibre-zero", "haar-float", "unitary-float"])
def test_index_arguments_are_integers_in_range(call):
    # numpy once raised IndexError/TypeError here, or read -1 as the last index and 0.5 as 0
    with pytest.raises(DimensionMismatch):
        call(maximally_coherent(4))


@pytest.mark.parametrize("call,error", [
    (lambda rho: child_rng(-1, 0), NegativeCount),
    (lambda rho: child_rng(1.5, 0), DimensionMismatch),
    (lambda rho: child_rng("7", 0), DimensionMismatch),
    (lambda rho: as_rng(-1), NegativeCount),
    (lambda rho: as_rng(True), DimensionMismatch),
    (lambda rho: ginibre_mixed(2, 2.5), DimensionMismatch),
    (lambda rho: sweep_polygamy((2, 2), 3, -1), NegativeCount),
    (lambda rho: discord_sym(rho, (2, 2), restarts=2, seed=-1), NegativeCount),
    (lambda rho: estimate_measures(rho, 100, -1), NegativeCount),
    (lambda rho: sweep_polygamy((2, 2), 0, -1), NegativeCount),
    (lambda rho: monotonicity_sweep("skew", 0, 3, -1), NegativeCount),
    (lambda rho: estimate_measures(maximally_coherent(2), 100, -1, exact_powers=True),
     NegativeCount),
], ids=["child-negative", "child-float", "child-string", "as-rng-negative", "as-rng-bool",
        "ginibre-seed-float", "sweep-negative", "discord-negative", "estimate-negative",
        "empty-sweep-negative", "empty-monotonicity-negative", "exact-estimate-negative"])
def test_seeds_are_non_negative_integers(call, error):
    # numpy once raised its bare ValueError or TypeError here
    with pytest.raises(error):
        call(maximally_coherent(4))


def test_seed_rule_passes_generators_and_numpy_integers():
    rng = np.random.default_rng(3)
    assert as_rng(rng) is rng
    assert child_rng(np.int64(5), 2).random() == child_rng(5, 2).random()
    assert as_rng(np.uint8(5)).random() == as_rng(5).random()


@pytest.mark.parametrize("vec", ["ab", [1, "a"], [object()]], ids=["string", "string-entry", "object"])
def test_pure_state_rejects_non_numeric_entries(vec):
    with pytest.raises(DimensionMismatch, match="state vector"):
        pure_state(vec)


def test_index_arguments_accept_numpy_integers():
    rho = ginibre_mixed(4, 3)
    assert np.array_equal(partial_trace(rho, np.array([2, 2]), np.int64(1)).mat,
                          partial_trace(rho, [2, 2], [1]).mat)
    assert skew_info(rho, np.int32(2)) == skew_info(rho, 2)
    assert np.array_equal(basis_state(np.int64(3), np.int64(2)).mat, basis_state(3, 2).mat)


@pytest.mark.parametrize("n,entries", [
    (0, 9), (1, 9), (10, CHUNK_ENTRIES // 3), (10, 2 * CHUNK_ENTRIES), (1000, 81), (910, 9),
])
def test_chunks_cover_the_range_in_order_within_the_entry_budget(n, entries):
    chunks = list(_chunks(n, entries))
    assert [i for c in chunks for i in c] == list(range(n))
    size = max(1, CHUNK_ENTRIES // entries)
    assert all(len(c) == size for c in chunks[:-1]) and all(0 < len(c) <= size for c in chunks)


def test_random_state_sweep_valid():
    for i in range(1000):
        rho = ginibre_mixed(4, child_rng(400, i))
        assert np.abs(rho.mat - rho.mat.conj().T).max() < 1e-12
        assert abs(rho.mat.trace().real - 1.0) < 1e-12
        assert rho.eigenvalues.min() >= 0.0


def test_haar_pure_unit_purity():
    for i in range(100):
        psi = haar_pure(5, child_rng(500, i))
        assert abs(psi.purity() - 1.0) < 1e-12



@st.composite
def _near_singular_states(draw):
    """``(w, u)``: a descending full-rank spectrum whose smallest eigenvalues reach about 1e-14
    (after normalization), and a Haar unitary whose columns are its eigenvectors."""
    d = draw(st.integers(2, 6))
    exponents = draw(arrays(float, d - 1, elements=st.floats(-14.0, 0.0)))
    exponents = np.append(exponents, draw(st.floats(-14.0, -12.0)))
    w = np.sort(10.0**exponents)[::-1]
    return w / w.sum(), random_unitary(d, draw(st.integers(0, 2**16)))


@given(_near_singular_states())
def test_validate_density_keeps_near_singular_spectra(state):
    # tolerances set beforehand: eigh's backward error is about d eps |rho| ~ 1e-15 and the
    # roundoff rule zeroes at most 1e-14 of the largest eigenvalue, so 1e-12 on entries
    w, u = state
    mat = (u * w) @ u.conj().T
    rho = validate_density(mat)
    assert np.abs(rho.eigenvalues - w).max() < 1e-12
    assert np.abs(rho.mat - mat).max() < 1e-12
    assert rho.eigenvalues.min() >= 0.0
    assert abs(rho.eigenvalues.sum() - 1.0) < 1e-14


@given(_near_singular_states())
def test_sqrtm_of_near_singular_states(state):
    # tolerances set beforehand: s @ s rebuilds the stored matrix to roundoff, 1e-12; sqrt turns
    # an eigenvalue error of at most 1e-14 into at most 1e-7, so 1e-6 against the exact root
    w, u = state
    rho = validate_density((u * w) @ u.conj().T)
    s = sqrtm(rho)
    assert np.array_equal(s, s.conj().T)
    assert np.abs(s @ s - rho.mat).max() < 1e-12
    assert np.abs(s - (u * np.sqrt(w)) @ u.conj().T).max() < 1e-6


@given(_near_singular_states(), st.data())
def test_qfi_projector_of_near_singular_states(state, data):
    # tolerances set beforehand: the QFI is at most 1 and each term moves by at most a few times
    # the eigenvalue error, so 1e-10 against the constructed spectrum; the sandwich
    # I <= F/4 <= 2I holds within skew_qfi_sandwich's own 1e-9
    w, u = state
    rho = validate_density((u * w) @ u.conj().T)
    k = data.draw(st.integers(0, len(w) - 1))
    a = np.abs(u[k]) ** 2
    exact = 2.0 * sum(a[i] * a[j] * (w[i] - w[j]) ** 2 / (w[i] + w[j])
                      for i in range(len(w)) for j in range(len(w)))
    assert qfi_projector(rho, k) == pytest.approx(exact, abs=1e-10)
    assert skew_qfi_sandwich(rho, k)["ok"]


def test_partial_trace_rejects_an_empty_keep():
    with pytest.raises(DimensionMismatch, match="keep names no subsystem"):
        partial_trace(ginibre_mixed(4, 1), [2, 2], [])


def test_pure_state_rejects_the_zero_vector():
    with pytest.raises(DimensionMismatch, match="zero vector"):
        pure_state(0)


def test_check_unitary_rejects_a_unitary_of_the_wrong_dimension():
    with pytest.raises(DimensionMismatch, match="expected 3"):
        check_unitary(np.eye(2), 3)
    assert np.array_equal(check_unitary(np.eye(2), 2), np.eye(2))
