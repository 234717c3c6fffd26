import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cohlab import (
    basis_state,
    child_rng,
    ginibre_mixed,
    haar_pure,
    maximally_coherent,
    partial_trace,
    pure_state,
    qfi_projector,
    random_unitary,
    skew_qfi_sandwich,
    sqrtm,
    tensor,
    validate_density,
)
from cohlab.channels import validate_channel
from cohlab.coherence import check_unitary, skew_info, validate_observable
from cohlab.errors import (
    DimensionMismatch,
    NotFinite,
    NotHermitian,
    NotPSD,
    NotUnitTrace,
)
from cohlab.fixtures import COUNTEREXAMPLE_RHO

from oracles import psd_sqrt


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
], ids=["basis-past-end", "basis-negative", "basis-float", "keep-string", "keep-float",
        "keep-float-list", "skew-float", "qfi-float", "skew-bool", "qfi-bool"])
def test_index_arguments_are_integers_in_range(call):
    # numpy once raised IndexError/TypeError here, or read -1 as the last index and 0.5 as 0
    with pytest.raises(DimensionMismatch):
        call(maximally_coherent(4))


def test_index_arguments_accept_numpy_integers():
    rho = ginibre_mixed(4, 3)
    assert np.array_equal(partial_trace(rho, np.array([2, 2]), np.int64(1)).mat,
                          partial_trace(rho, [2, 2], [1]).mat)
    assert skew_info(rho, np.int32(2)) == skew_info(rho, 2)
    assert np.array_equal(basis_state(np.int64(3), np.int64(2)).mat, basis_state(3, 2).mat)


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
