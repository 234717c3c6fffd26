import os
import tempfile

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
from cohlab.channels import COMPLETENESS_ATOL, KrausChannel, completeness_residual
from cohlab.errors import DimensionMismatch, IncompleteChannel
from cohlab.fixtures import (
    k_coherence_counterexample,
    printed_counterexample_ops,
)
from cohlab.serialize import read_channel, write_channel
from oracles import kraus_draws

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


def test_validate_channel_rejects_incomplete():
    with pytest.raises(IncompleteChannel):
        validate_channel([np.eye(2) * 0.9])


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
], ids=["1-d-operator", "3-d-operator", "bare-matrix", "ragged", "ragged-ndim", "empty-operator"])
def test_validate_channel_rejects_bad_shapes(ops):
    with pytest.raises(DimensionMismatch):
        validate_channel(ops)


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
    # scaling by 1 + eps moves the residual to about 2|eps|, across COMPLETENESS_ATOL
    ops = random_channel(dim, n_kraus, seed).operators * (1.0 + eps)
    ok = completeness_residual(ops) <= COMPLETENESS_ATOL
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "channel.json")
        write_channel(path, KrausChannel(ops))
        for load in (lambda: validate_channel(ops), lambda: read_channel(path)):
            if ok:
                assert np.array_equal(load().operators, ops)
            else:
                with pytest.raises(IncompleteChannel):
                    load()


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
    from cohlab.errors import InfeasiblePattern

    with pytest.raises(InfeasiblePattern):
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


def test_maximally_coherent_unaffected_probability_structure():
    ch = random_incoherent_channel(2, 2, 4)
    outs = apply_selective(ch, maximally_coherent(2))
    assert sum(o.probability for o in outs) == pytest.approx(1.0, abs=1e-9)
