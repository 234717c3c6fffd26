import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohlab import (
    apply,
    apply_selective,
    c_skew,
    child_rng,
    ginibre_mixed,
    is_incoherent,
    maximally_coherent,
    monotonicity_check,
    monotonicity_sweep,
    random_channel,
    random_incoherent_channel,
    validate_channel,
    validate_density,
)
from cohlab import channels
from cohlab.channels import completeness_residual, normalize_kraus
from cohlab.coherence import validate_observable
from cohlab.errors import DimensionMismatch, IncompleteChannel, NegativeCount
from cohlab.fixtures import (
    k_coherence_counterexample,
    printed_counterexample_ops,
)
from cohlab.linalg import ATOL
from oracles import kraus_draws, monotonicity_reference, monotonicity_sweep_reference, random_hermitian

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


def test_validate_channel_rejects_incomplete():
    with pytest.raises(IncompleteChannel):
        validate_channel([np.eye(2) * 0.9])


def test_validate_channel_rejects_an_overflowing_set():
    # sum M^dag M overflows to a NaN residual, which once passed the "residual > atol" test
    with pytest.raises(IncompleteChannel, match="residual nan"):
        validate_channel([[[1e155 + 1e155j, 0], [0, 1]]])


def test_validate_channel_rejects_empty():
    with pytest.raises(IncompleteChannel):
        validate_channel([])


@pytest.mark.parametrize("ops", [
    [np.ones(2) / np.sqrt(2.0)],
    [np.eye(2)[None]],
    np.eye(2),
    [np.eye(2), np.eye(3)],
    [np.eye(2), np.ones(2)],
    [np.zeros((2, 0))],
    [[[object()]]],
], ids=["1-d-operator", "3-d-operator", "bare-matrix", "ragged", "ragged-ndim", "empty-operator",
        "object-entry"])
def test_validate_channel_rejects_bad_shapes(ops):
    with pytest.raises(DimensionMismatch):
        validate_channel(ops)


@pytest.mark.parametrize("fn,ops,error", [
    (normalize_kraus, [np.zeros((2, 2))], IncompleteChannel),
    (normalize_kraus, [np.diag([1.0, 0.0])], IncompleteChannel),
    (normalize_kraus, [[[1e200, 0.0], [0.0, 1.0]]], IncompleteChannel),
    (normalize_kraus, [[["a"]]], DimensionMismatch),
    (normalize_kraus, [], IncompleteChannel),
    (completeness_residual, [[["a"]]], DimensionMismatch),
    (completeness_residual, [], IncompleteChannel),
], ids=["normalize-zero", "normalize-rank-deficient", "normalize-overflowing", "normalize-string",
        "normalize-empty", "residual-string", "residual-empty"])
def test_kraus_helpers_raise_typed_errors_without_warnings(fn, ops, error):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            fn(ops)


def test_validate_channel_freezes_a_copy_of_the_stack():
    iso = np.array([[[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]], dtype=complex)  # one 3x2 isometry
    ch = validate_channel(iso)
    assert ch.operators.shape == (1, 3, 2)
    assert (ch.dim_in, ch.dim_out) == (2, 3)
    assert not ch.operators.flags.writeable
    iso[0, 0, 0] = 5.0  # the caller's array stays writable and unshared
    assert ch.operators[0, 0, 0] == 1.0


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4), st.integers(1, 4), st.integers(0, 2**16), st.floats(-1.5e-9, 1.5e-9))
def test_completeness_boundary_is_the_residual(dim, n_kraus, seed, eps):
    # scaling by 1 + eps moves the residual to about 2|eps|, across ATOL
    ops = random_channel(dim, n_kraus, seed).operators * (1.0 + eps)
    if completeness_residual(ops) <= ATOL:
        assert np.array_equal(validate_channel(ops).operators, ops)
    else:
        with pytest.raises(IncompleteChannel):
            validate_channel(ops)


def test_stacked_kernels_match_per_operator_loop():
    for i in range(60):
        rng = child_rng(704, i)
        d = int(rng.integers(2, 10))
        make = random_incoherent_channel if i % 2 else random_channel
        ch = make(d, int(rng.integers(1, d + 2)), rng)
        rho = ginibre_mixed(d, rng)
        terms = [m @ rho.mat @ m.conj().T for m in ch.operators]
        assert np.array_equal(apply(ch, rho).mat, validate_density(sum(terms)).mat)
        kept = [(float(t.trace().real), t) for t in terms if t.trace().real >= 1e-12]
        outs = apply_selective(ch, rho)
        assert [o.probability for o in outs] == [p for p, _ in kept]
        for o, (p, t) in zip(outs, kept):
            assert np.array_equal(o.state.mat, validate_density(t / p).mat)
        verdict = monotonicity_check(ch, rho)
        assert verdict.c_avg_after == float(sum(o.probability * c_skew(o.state) for o in outs))
        assert verdict.c_after == c_skew(apply(ch, rho))


@pytest.mark.parametrize("incoherent", [True, False], ids=["incoherent", "general"])
def test_random_channels_match_per_operator_draws(incoherent):
    make = random_incoherent_channel if incoherent else random_channel
    for i in range(40):
        dim, n_kraus = 2 + i % 4, 1 + i % 5
        want = kraus_draws(child_rng(705, i), dim, n_kraus, incoherent)
        assert np.array_equal(make(dim, n_kraus, child_rng(705, i)).operators, want)


def test_permutation_channel_is_incoherent():
    perm = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert is_incoherent(validate_channel([perm]))


def test_hadamard_is_not_incoherent():
    assert not is_incoherent(validate_channel([HADAMARD]))


def test_counterexample_channel_is_incoherent():
    _, channel, _ = k_coherence_counterexample()
    assert is_incoherent(channel)


def test_printed_ops_residual_bounded_then_repaired():
    m1, m2 = printed_counterexample_ops()
    raw = completeness_residual([m1, m2])
    assert 1e-9 < raw <= 2e-3
    _, channel, _ = k_coherence_counterexample()
    assert completeness_residual(channel.operators) <= 1e-9


def test_identity_channel():
    rho = ginibre_mixed(3, 1)
    ch = validate_channel([np.eye(3)])
    assert np.abs(apply(ch, rho).mat - rho.mat).max() < 1e-12
    outs = apply_selective(ch, rho)
    assert len(outs) == 1
    assert outs[0].probability == pytest.approx(1.0, abs=1e-12)


def test_counterexample_outcome_probabilities():
    # hand arithmetic from the printed entries:
    # Tr(rho diag(0.49, 0.09, 0.25)) = 0.39436, partner completes to one
    rho, channel, _ = k_coherence_counterexample()
    outs = apply_selective(channel, rho)
    assert len(outs) == 2
    assert outs[0].probability == pytest.approx(0.39436, abs=2e-4)
    assert sum(o.probability for o in outs) == pytest.approx(1.0, abs=1e-9)
    mix = sum(o.probability * o.state.mat for o in outs)
    assert np.abs(apply(channel, rho).mat - mix).max() < 1e-10


def test_full_dephasing_kills_coherence():
    rho = ginibre_mixed(3, 2)
    ops = [np.diag([1.0 if i == k else 0.0 for i in range(3)]) for k in range(3)]
    ch = validate_channel(ops)
    assert is_incoherent(ch)
    out = apply(ch, rho)
    assert np.abs(out.mat - np.diag(out.mat.diagonal())).max() < 1e-12
    assert c_skew(out) == pytest.approx(0.0, abs=1e-12)
    verdict = monotonicity_check(ch, rho)
    assert verdict.c_after == pytest.approx(0.0, abs=1e-12)
    assert verdict.weak_ok and verdict.strong_ok


def test_counterexample_verdict_flags():
    rho, channel, obs = k_coherence_counterexample()
    verdict = monotonicity_check(channel, rho, measure="k", observable=obs)
    assert not verdict.strong_ok
    assert not verdict.weak_ok
    # honest recomputed digits from the printed inputs
    assert verdict.c_before == pytest.approx(0.2271695, abs=1e-6)
    assert verdict.c_avg_after == pytest.approx(1.2884125, abs=1e-6)
    assert verdict.c_after == pytest.approx(0.7929517, abs=1e-6)
    # the skew measure is monotone on the very same pair
    skew_verdict = monotonicity_check(channel, rho, measure="skew")
    assert skew_verdict.strong_ok and skew_verdict.weak_ok


def test_random_incoherent_channel_single_kraus_is_unitary_permutation():
    ch = random_incoherent_channel(2, 1, 0)
    m = ch.operators[0]
    assert np.abs(np.abs(m[np.abs(m) > 1e-12]) - 1.0).max() < 1e-12
    assert np.abs(m.conj().T @ m - np.eye(2)).max() < 1e-9


def test_random_incoherent_channel_self_checks():
    ch = random_incoherent_channel(3, 2, 7)
    assert is_incoherent(ch)
    assert completeness_residual(ch.operators) <= 1e-9


def test_random_incoherent_channel_sweep():
    for i in range(500):
        rng = child_rng(700, i)
        d = int(rng.integers(2, 5))
        ch = random_incoherent_channel(d, int(rng.integers(1, d + 2)), rng)
        assert is_incoherent(ch)
        assert completeness_residual(ch.operators) <= 1e-9


def test_random_general_channel_not_restricted():
    ch = random_channel(3, 2, 5)
    assert completeness_residual(ch.operators) <= 1e-9


def test_random_incoherent_channel_rejects_empty():
    with pytest.raises(NegativeCount):
        random_incoherent_channel(3, 0, 0)


def test_trace_preserved():
    for i in range(100):
        rng = child_rng(701, i)
        ch = random_incoherent_channel(3, 2, rng)
        rho = ginibre_mixed(3, rng)
        assert abs(apply(ch, rho).mat.trace().real - 1.0) < 1e-9


def test_incoherent_channels_keep_diagonals_diagonal():
    for i in range(100):
        rng = child_rng(702, i)
        ch = random_incoherent_channel(4, 3, rng)
        delta = validate_density(np.diag(rng.dirichlet(np.ones(4))))
        out = apply(ch, delta)
        assert np.abs(out.mat - np.diag(out.mat.diagonal())).max() < 1e-10


def test_strong_monotonicity_sweep():
    verdicts = monotonicity_sweep("skew", 300, 3, seed=3)
    assert all(v.strong_ok for v in verdicts)
    assert all(v.weak_ok for v in verdicts)


@pytest.mark.parametrize("measure,dim,samples", [
    ("skew", 2, 80), ("skew", 3, 80), ("skew", 4, 80), ("skew", 5, 80),
    ("k", 3, 80), ("k", 4, 80),
    ("skew", 8, 300), ("k", 6, 100),  # several chunks, the last one partial
    ("skew", 5, 1), ("k", 4, 2),  # for some seeds every sample draws fewer than dim + 1 operators
])
def test_sweep_matches_per_sample_reference(measure, dim, samples):
    for seed in (0, 7, 12345):
        want = monotonicity_sweep_reference(measure, samples, dim, seed)
        assert monotonicity_sweep(measure, samples, dim, seed) == want


def test_a_tiny_amplitude_column_still_gives_a_complete_incoherent_channel(monkeypatch):
    # a column's squared norm is chi-squared with 2K degrees of freedom, so draws this
    # short (probability far below 1e-12) are planted: column 0 is scaled to norm 1e-9
    build = channels._incoherent_ops

    def tiny_column(rows, amps):
        col = amps[:, :, 0]  # column 0 of each channel, zero in the slots past its Kraus count
        col *= 1e-9 / np.sqrt((np.abs(col) ** 2).sum(axis=1, keepdims=True))
        return build(rows, amps)

    monkeypatch.setattr(channels, "_incoherent_ops", tiny_column)
    for i in range(40):
        dim, n_kraus = 1 + i % 5, 1 + i % 4
        ch = random_incoherent_channel(dim, n_kraus, child_rng(708, i))
        assert completeness_residual(ch.operators) <= 1e-12
        assert is_incoherent(ch)
    for dim in (2, 3, 4):
        assert all(v.strong_ok and v.weak_ok for v in monotonicity_sweep("skew", 60, dim, 8))


@pytest.mark.parametrize("dim", [0, -1])
def test_sweep_rejects_non_positive_dim(dim):
    with pytest.raises(DimensionMismatch):
        monotonicity_sweep("skew", 5, dim, seed=1)


def assert_zero_operators_keep_the_bits(ch, rho, obs):
    # a sweep chunk pads each channel with zero operators up to dim + 1, the largest Kraus count
    padded = validate_channel(np.concatenate([ch.operators, np.zeros((2,) + ch.operators.shape[1:])]))
    want, got = apply(ch, rho), apply(padded, rho)
    for a, b in [(want.mat, got.mat), (want.eigenvalues, got.eigenvalues),
                 (want.eigenvectors, got.eigenvectors)]:
        assert a.tobytes() == b.tobytes()
    want, got = apply_selective(ch, rho), apply_selective(padded, rho)
    assert [o.probability for o in got] == [o.probability for o in want]
    assert [o.state.mat.tobytes() for o in got] == [o.state.mat.tobytes() for o in want]
    assert monotonicity_check(padded, rho) == monotonicity_check(ch, rho)
    k = monotonicity_check(padded, rho, measure="k", observable=obs)
    assert k == monotonicity_check(ch, rho, measure="k", observable=obs)


def test_check_matches_reference_on_general_channels_and_fixture():
    for i in range(120):
        rng = child_rng(706, i)
        d = int(rng.integers(2, 7))
        make = random_incoherent_channel if i % 2 else random_channel
        ch = make(d, int(rng.integers(1, d + 2)), rng)
        rho = ginibre_mixed(d, rng)
        obs = validate_observable(random_hermitian(d, rng))
        assert monotonicity_check(ch, rho) == monotonicity_reference(ch, rho)
        want = monotonicity_reference(ch, rho, "k", obs)
        assert monotonicity_check(ch, rho, measure="k", observable=obs) == want
        assert_zero_operators_keep_the_bits(ch, rho, obs)
    rho, ch, obs = k_coherence_counterexample()
    assert_zero_operators_keep_the_bits(ch, rho, obs)
    skew = monotonicity_check(ch, rho)
    assert (skew.c_before, skew.c_avg_after, skew.c_after) == (
        0.07907741588993877, 0.07749689039655486, 0.04948324191676701)
    k = monotonicity_check(ch, rho, measure="k", observable=obs)
    assert (k.c_before, k.c_avg_after, k.c_after) == (
        0.22716950367833277, 1.2884125215736806, 0.7929516978219162)
    assert skew == monotonicity_reference(ch, rho)
    assert k == monotonicity_reference(ch, rho, "k", obs)


def test_mixing_convexity_of_outcomes():
    for i in range(100):
        rng = child_rng(703, i)
        ch = random_incoherent_channel(3, 2, rng)
        rho = ginibre_mixed(3, rng)
        outs = apply_selective(ch, rho)
        mixed = apply(ch, rho)
        avg = sum(o.probability * c_skew(o.state) for o in outs)
        assert c_skew(mixed) <= avg + 1e-9


def test_dimension_mismatch_raises():
    ch = random_incoherent_channel(3, 2, 0)
    with pytest.raises(DimensionMismatch):
        apply(ch, ginibre_mixed(2, 0))
    with pytest.raises(DimensionMismatch):
        monotonicity_check(ch, ginibre_mixed(2, 0))
    with pytest.raises(DimensionMismatch):
        monotonicity_check(ch, ginibre_mixed(3, 0), measure="k", observable=validate_observable(np.eye(2)))


def test_maximally_coherent_unaffected_probability_structure():
    ch = random_incoherent_channel(2, 2, 4)
    outs = apply_selective(ch, maximally_coherent(2))
    assert sum(o.probability for o in outs) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("n_kraus", [0, -2])
def test_random_channel_without_operators_raises_before_any_warning(n_kraus):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NegativeCount):
            random_channel(3, n_kraus, 0)


@pytest.mark.parametrize("call,error", [
    (lambda: random_channel(3, 1.5, 0), DimensionMismatch),
    (lambda: random_channel(3.0, 2, 0), DimensionMismatch),
    (lambda: random_incoherent_channel(3, 2.0, 0), DimensionMismatch),
    (lambda: random_incoherent_channel(3, -1, 0), NegativeCount),
    (lambda: monotonicity_sweep("skew", 2.5, 3, seed=0), DimensionMismatch),
    (lambda: monotonicity_sweep("skew", 2, 3.0, seed=0), DimensionMismatch),
    (lambda: monotonicity_sweep("skew", -1, 3, seed=0), NegativeCount),
    (lambda: random_incoherent_channel(0, 2, 0), DimensionMismatch),
    (lambda: random_channel(-1, 2, 0), DimensionMismatch),
], ids=["kraus-float", "dim-float", "incoherent-kraus-float", "incoherent-kraus-negative",
        "sweep-samples-float", "sweep-dim-float", "sweep-samples-negative",
        "incoherent-dim-zero", "dim-negative"])
def test_counts_and_dims_follow_the_integer_rule(call, error):
    with pytest.raises(error):
        call()


def test_check_rejects_k_without_observable_and_unknown_measures():
    rho, channel, _ = k_coherence_counterexample()
    with pytest.raises(DimensionMismatch, match="needs an observable"):
        monotonicity_check(channel, rho, measure="k")
    with pytest.raises(DimensionMismatch, match="unknown measure"):
        monotonicity_check(channel, rho, measure="l1")


@pytest.mark.parametrize("measure", ["skew", "k"])
def test_a_chunk_eigendecomposes_its_states_then_its_outputs_and_outcomes(measure, monkeypatch):
    # the input states, then the channel outputs followed by the kept outcomes
    eigh, matrices = np.linalg.eigh, []

    def counted(a, *args, **kwargs):
        matrices.append(int(np.prod(np.shape(a)[:-2])))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    n = 20  # one chunk at d = 3
    assert len(monotonicity_sweep(measure, n, 3, 6)) == n
    assert len(matrices) == 2 and matrices[0] == n and matrices[1] > n


@pytest.mark.parametrize("samples", [0, 5])
def test_sweep_rejects_an_unknown_measure_before_drawing(samples, monkeypatch):
    def no_draws(*args):
        raise AssertionError("drew samples for an unknown measure")

    monkeypatch.setattr(channels, "_child_rngs", no_draws)
    with pytest.raises(DimensionMismatch, match="unknown measure"):
        monotonicity_sweep("l1", samples, 3, 0)
