import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohlab import (
    DensityMatrix,
    bipartite_record,
    c_skew,
    child_rng,
    find_qubit_violations,
    ginibre_mixed,
    maximally_coherent,
    partition_check,
    pure_polygamy_gap,
    qfi_projector,
    sqrtm,
    sweep_polygamy,
    sweep_summary,
    tensor,
)
from cohlab.discord import discord_sym, subsystem_coherence
from cohlab.errors import BadPartition, DimensionMismatch, NegativeCount, NotPure
from cohlab.fixtures import max_coherent_pair, qubit_mixture_counterexample
from cohlab.linalg import CHUNK_ENTRIES, RANK_TOL, partial_trace, validate_density
from cohlab.polygamy import _records
from oracles import (
    haar_pure,
    partition_reference,
    product_coherence_commutator,
    random_unitary,
    schmidt_marginal_coherences,
    skew_info_commutator,
)


def _kept_eigenvectors(rho):
    return rho.eigenvectors[:, rho.eigenvalues > RANK_TOL]


def test_pure_gap_product_of_qutrits_is_zero():
    fx = max_coherent_pair()
    assert pure_polygamy_gap(fx["psi"], (3, 3)) == pytest.approx(0.0, abs=1e-12)
    assert c_skew(fx["psi"]) == pytest.approx(8.0 / 9.0, abs=1e-12)
    assert c_skew(fx["rho_a"]) == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_pure_gap_product_states_saturate():
    for i in range(50):
        rng = child_rng(800, i)
        psi = tensor(haar_pure(2, rng), haar_pure(3, rng))
        assert abs(pure_polygamy_gap(psi, (2, 3))) < 1e-10


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
def test_pure_gap_nonnegative_sweep(dims):
    d = dims[0] * dims[1]
    for i in range(1000):
        psi = haar_pure(d, child_rng(801 + d, i))
        assert pure_polygamy_gap(psi, dims) >= -1e-9


def test_pure_gap_rejects_mixed_states():
    with pytest.raises(NotPure):
        pure_polygamy_gap(ginibre_mixed(4, 0), (2, 2))


def test_record_pure_state_reduces_to_pure_form():
    psi = haar_pure(6, 5)
    rec = bipartite_record(psi, (2, 3))
    assert rec.lambda_min == pytest.approx(1.0, abs=1e-9)
    assert rec.rank == 1
    # the eigenvalue-weighted link collapses onto the pure product bound
    assert rec.gap_diag_vs_lambda() + rec.gap_marginal_vs_diag() == pytest.approx(
        rec.gap_pure_form, abs=1e-9
    )


def test_record_qubit_mixture_fixture_values():
    fx = qubit_mixture_counterexample()
    assert fx["overlap_residual"] < 1e-4
    rec = bipartite_record(fx["rho"], (2, 2))
    assert rec.c_a == pytest.approx(0.2582, abs=5e-4)
    assert rec.c_b == pytest.approx(0.0909, abs=5e-4)
    assert rec.c_joint == pytest.approx(0.3242, abs=5e-4)
    product = (1 - rec.c_a) * (1 - rec.c_b)
    assert product == pytest.approx(0.6744, abs=5e-4)
    assert 1 - rec.c_joint == pytest.approx(0.6758, abs=5e-4)
    assert product < 1 - rec.c_joint
    assert rec.gap_pure_form < 0
    # the proven mixed-state forms survive on the same state
    assert all(g >= -1e-9 for g in rec.theorem_gaps().values())


def test_record_inequalities_random_sweep():
    for i in range(1000):
        rec = bipartite_record(ginibre_mixed(6, child_rng(802, i)), (2, 3))
        for name, gap in rec.theorem_gaps().items():
            assert gap >= -1e-9, (i, name, gap)


def test_record_chain_identity():
    # the diagonal square sum equals purity minus the l2 coherence
    from cohlab import c_l2

    for i in range(100):
        rho = ginibre_mixed(6, child_rng(803, i))
        rec = bipartite_record(rho, (2, 3))
        assert rec.diag_sq_sum == pytest.approx(rho.purity() - c_l2(rho), abs=1e-10)


def test_record_invariants():
    for i in range(100):
        rec = bipartite_record(ginibre_mixed(9, child_rng(804, i)), (3, 3))
        assert 0.0 <= rec.c_joint <= 1.0 and 0.0 <= rec.c_a <= 1.0 and 0.0 <= rec.c_b <= 1.0
        assert 0.0 < rec.lambda_min <= 1.0
        assert rec.rank <= 9
        assert rec.c_s >= 0.0
        assert abs(sum(rec.eigenvalues) - 1.0) < 1e-9


def test_partition_product_plus_states():
    plus4 = tensor(
        tensor(maximally_coherent(2), maximally_coherent(2)),
        tensor(maximally_coherent(2), maximally_coherent(2)),
    )
    res = partition_check(plus4, [2, 2, 2, 2], (((0,), (1,)), ((2,), (3,))))
    assert res["ok_lambda_form"] and res["ok_symmetric_form"]
    assert res["lhs_product"] == pytest.approx((1.0 / 2.0) ** 4, abs=1e-10)
    assert res["lambda_m"] == pytest.approx(1.0, abs=1e-9)
    # product structure saturates the symmetric form
    assert res["lhs_symmetric"] == pytest.approx(
        (1.0 - c_skew(plus4)) ** 2 / res["c_st"], abs=1e-9
    )


def test_partition_single_split_of_pure_state_matches_pure_form():
    # one bipartite cut of a four-party pure state is the pure product bound
    # on that grouping
    psi = haar_pure(16, 9)
    res = partition_check(psi, [2, 2, 2, 2], ((0, 1), (2, 3)))
    gap = pure_polygamy_gap(psi, (4, 4))
    assert res["ok_lambda_form"]
    assert res["lambda_m"] == pytest.approx(1.0, abs=1e-9)
    assert res["lhs_product"] - res["lambda_m"] * (1.0 - c_skew(psi)) == pytest.approx(
        gap, abs=1e-9
    )


def test_partition_tripartite_random_sweep():
    for i in range(500):
        rho = ginibre_mixed(8, child_rng(805, i))
        res = partition_check(rho, [2, 2, 2], ((0,), ((1,), (2,))))
        assert res["ok_lambda_form"], i
        assert res["ok_symmetric_form"], i


def test_partition_exponent_bookkeeping():
    rho = ginibre_mixed(8, 10)
    res = partition_check(rho, [2, 2, 2], ((0,), ((1,), (2,))))
    assert res["exponents"] == {(0,): 1.0, (1,): 0.5, (2,): 0.5}
    assert [s["subsystems"] for s in res["splits"]] == [(0, 1, 2), (1, 2)]


def _near_product_state(dims, rng, weight):
    """State on a random product basis whose (k, k) and (k+1, k+1) vectors, k even, are
    rotated into pairs of Schmidt weights (1 - weight, weight).

    Its eigenvalues are a shuffled 1, 2, ..., d over d(d+1)/2; with gaps that wide,
    eigh's eigenvectors carry only roundoff-size Schmidt weights beyond these.
    """
    da, db = dims
    basis = np.kron(random_unitary(da, rng), random_unitary(db, rng))
    c, s = np.sqrt(1.0 - weight), np.sqrt(weight)
    for k in range(0, min(dims) - 1, 2):
        pair = [k * db + k, (k + 1) * db + k + 1]
        basis[:, pair] = basis[:, pair] @ np.array([[c, -s], [s, c]])
    p = rng.permutation(np.arange(1.0, da * db + 1))
    return validate_density((basis * (p / p.sum())) @ basis.conj().T)


@pytest.mark.parametrize("dims", [(2, 3), (3, 4), (3, 3), (4, 4), (3, 2), (4, 2), (2, 8)])
def test_record_eigenstate_sums_match_schmidt_oracle(dims):
    # the marginals of a 2x3 or 3x4 eigenstate are rank deficient on the
    # larger side, and those of a product eigenstate on both sides, so the
    # roundoff rule decides the digits here
    rng = child_rng(30, dims[0] * dims[1])
    states = [ginibre_mixed(dims[0] * dims[1], child_rng(31, i)) for i in range(100)]
    states += [_near_product_state(dims, rng, weight) for weight in (0.0, 1e-7) for _ in range(20)]
    for rho in states:
        rec = bipartite_record(rho, dims)
        sum_a, sum_b = schmidt_marginal_coherences(_kept_eigenvectors(rho), dims, [0])
        assert rec.sum_eig_coh_a == pytest.approx(sum_a, abs=1e-12)
        assert rec.sum_eig_coh_b == pytest.approx(sum_b, abs=1e-12)


@pytest.mark.parametrize("dims", [(2, 3), (3, 3), (3, 4)])
def test_partition_single_split_matches_record(dims):
    for i in range(20):
        rho = ginibre_mixed(dims[0] * dims[1], child_rng(32, i))
        rec = bipartite_record(rho, dims)
        res = partition_check(rho, list(dims), ((0,), (1,)))
        assert res["splits"][0]["c_s"] == rec.c_s
        assert res["lambda_m"] == rec.lambda_min


def test_partition_noncontiguous_split_matches_schmidt_oracle():
    dims = [2, 2, 3]
    for i in range(20):
        rho = ginibre_mixed(12, child_rng(33, i))
        res = partition_check(rho, dims, ((1,), ((0,), (2,))))
        root, inner = res["splits"]
        assert root["split"] == ((1,), (0, 2))
        for split, st, node_dims, left in (
            (root, rho, dims, [1]),
            (inner, partial_trace(rho, dims, [0, 2]), [2, 3], [0]),
        ):
            vecs = _kept_eigenvectors(st)
            r = vecs.shape[1]
            sum_l, sum_r = schmidt_marginal_coherences(vecs, node_dims, left)
            assert split["c_s"] == pytest.approx((r - sum_l) * (r - sum_r), rel=1e-12)


def test_partition_rejects_bad_trees():
    rho = ginibre_mixed(8, 11)
    with pytest.raises(BadPartition):
        partition_check(rho, [2, 2, 2], ((0,), (1,)))
    with pytest.raises(BadPartition):
        partition_check(rho, [2, 2, 2], ((0, 1), (1, 2)))


def test_partition_rejects_malformed_nodes():
    rho = ginibre_mixed(8, 12)
    with pytest.raises(BadPartition):
        partition_check(rho, [2, 2, 2], ((0,), (1,), (2,)))
    with pytest.raises(BadPartition):
        partition_check(rho, [2, 2, 2], ((0, 1, 2), ()))
    with pytest.raises(BadPartition):
        partition_check(rho, [2, 2, 2], (0, ((1,), (2,))))
    with pytest.raises(BadPartition, match="^tree root must split into at least two blocks$"):
        partition_check(rho, [2, 2, 2], (0, 1, 2))  # the root is a leaf
    for node in (1.5, None):  # neither a leaf tuple nor a split
        with pytest.raises(BadPartition):
            partition_check(rho, [2, 2, 2], ((0,), node))


@st.composite
def _nested_splits(draw):
    """Party dims and a random nested split; leaves list shuffled subsystems."""
    dims = draw(st.lists(st.integers(2, 3), min_size=3, max_size=4))
    order = draw(st.permutations(range(len(dims))))

    def node(block, leaf_ok):
        if len(block) == 1 or (leaf_ok and draw(st.booleans())):
            return tuple(block)
        cut = draw(st.integers(1, len(block) - 1))
        return (node(block[:cut], True), node(block[cut:], True))

    return dims, node(list(order), False)


def _reordered(rho, dims, left, right):
    """Reduced state on left + right with the left block first, sharing rho's spectrum."""
    subs = sorted(left + right)
    node = rho if len(subs) == len(dims) else partial_trace(rho, dims, subs)
    shape = [dims[i] for i in subs]
    axes = [subs.index(i) for i in left + right]
    k = len(subs)
    mat = node.mat.reshape(shape * 2).transpose(axes + [a + k for a in axes])
    vecs = node.eigenvectors.reshape(shape + [node.dim]).transpose(axes + [k])
    return DensityMatrix(mat.reshape(node.dim, node.dim), node.eigenvalues,
                         vecs.reshape(node.dim, node.dim))


@settings(max_examples=40, deadline=None)
@given(_nested_splits(), st.integers(0, 2**16), st.booleans())
def test_partition_check_is_a_stack_of_bipartite_records(split, seed, pure):
    dims, tree = split
    d = int(np.prod(dims))
    rho = (haar_pure if pure else ginibre_mixed)(d, child_rng(seed, 0))
    res = partition_check(rho, dims, tree)
    for s in res["splits"]:
        left, right = s["split"]
        block_dims = [int(np.prod([dims[i] for i in block])) for block in (left, right)]
        rec = bipartite_record(_reordered(rho, dims, list(left), list(right)), block_dims)
        assert s["c_s"] == rec.c_s
        assert s["lambda_min"] == rec.lambda_min
    assert sorted(i for leaf in res["leaf_coherences"] for i in leaf) == list(range(len(dims)))
    for leaf, c in res["leaf_coherences"].items():
        assert c == pytest.approx(c_skew(partial_trace(rho, dims, sorted(leaf))), abs=1e-12)
    ref = partition_reference(rho.mat, dims, tree)
    for key, value in ref.items():
        assert res[key] == pytest.approx(value, rel=1e-12, abs=1e-12), key


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 3), st.integers(2, 3), st.integers(1, 8), st.integers(0, 2**16))
def test_rank_deficient_states_stay_finite(da, db, rank, seed):
    d = da * db
    rank = min(rank, d - 1)
    rng = child_rng(seed, 0)
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    m = g @ g.conj().T
    rho = validate_density(m / m.trace().real)
    assert rho.rank == rank < d
    for keep in ([0], [1]):
        reduced = partial_trace(rho, [da, db], keep)
        assert np.isfinite(reduced.mat).all() and np.isfinite(reduced.eigenvalues).all()
        assert validate_density(reduced.mat).dim == reduced.dim
    s = sqrtm(rho)
    assert np.abs(s @ s - rho.mat).max() < 1e-10
    for k in range(d):
        fq = qfi_projector(rho, k)
        assert np.isfinite(fq) and fq >= 0.0


def test_sweep_deterministic_and_summarized():
    a = sweep_polygamy((2, 3), 50, seed=1)
    b = sweep_polygamy((2, 3), 50, seed=1)
    assert all(
        x.c_joint == y.c_joint and x.eigenvalues == y.eigenvalues for x, y in zip(a, b)
    )
    s = sweep_summary(a)
    assert s["samples"] == 50
    assert s["violations"] == 0
    assert s["min_gap"] <= s["mean_gap"]


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (3, 4), (4, 4)])
def test_sweep_matches_per_sample_records(dims):
    # two chunks, the second one partial
    d = dims[0] * dims[1]
    chunk = CHUNK_ENTRIES // (d * d)
    n = chunk + chunk // 2 + 1
    records = sweep_polygamy(dims, n, seed=3)
    assert records == [bipartite_record(ginibre_mixed(d, child_rng(3, i)), dims) for i in range(n)]


def test_stacked_records_mixing_ranks_match_single_states():
    rng = child_rng(35, 0)
    a, b = haar_pure(6, rng), haar_pure(6, rng)
    rank2 = validate_density(0.3 * a.mat + 0.7 * b.mat)
    states = [ginibre_mixed(6, rng), a, rank2, ginibre_mixed(6, rng), b, rank2]
    records = _records(
        np.stack([s.mat for s in states]),
        np.stack([s.eigenvalues for s in states]),
        np.stack([s.eigenvectors for s in states]),
        (2, 3),
    )
    assert [r.rank for r in records] == [6, 1, 2, 6, 1, 2]
    assert records == [bipartite_record(s, (2, 3)) for s in states]


@pytest.mark.parametrize("dims", [(0, 3), (-2, 3)])
def test_sweep_rejects_non_positive_dims(dims):
    with pytest.raises(DimensionMismatch):
        sweep_polygamy(dims, 5, seed=1)


@pytest.mark.parametrize("dims", [(2.5, 2), ("2", 2)])
def test_sweep_rejects_non_integer_dims(dims):
    with pytest.raises(DimensionMismatch):
        sweep_polygamy(dims, 5, seed=1)


@pytest.mark.parametrize("dims", [(2, 2, 1), (4,), (), 5, None])
def test_sweep_rejects_dims_of_wrong_length(dims):
    with pytest.raises(DimensionMismatch):
        sweep_polygamy(dims, 5, seed=1)


@pytest.mark.parametrize("dims", [(2, 2, 1), (4,), (-2, -2), (2, 3), (2.5, 2), ("2", 2)])
@pytest.mark.parametrize("fn", [bipartite_record, discord_sym, subsystem_coherence],
                         ids=["bipartite_record", "discord_sym", "subsystem_coherence"])
def test_bipartite_functions_reject_bad_dims(fn, dims):
    with pytest.raises(DimensionMismatch):
        fn(maximally_coherent(4), dims)


@pytest.mark.parametrize("dims", [(-2, -2), (2, "x"), (2.5, 2), ("2", 2)],
                         ids=["negative", "non-integer", "float", "numeric-string"])
@pytest.mark.parametrize("fn", [lambda rho, dims: partial_trace(rho, dims, 0),
                                lambda rho, dims: partition_check(rho, dims, ((0,), (1,)))],
                         ids=["partial_trace", "partition_check"])
def test_subsystem_functions_reject_bad_dims(fn, dims):
    # (-2, -2) multiplies to 4, and numpy's reshape once raised its own ValueError for it
    with pytest.raises(DimensionMismatch):
        fn(maximally_coherent(4), dims)


@pytest.mark.parametrize("seed,n_trials", [(0, "x"), (0, 2.0), (None, 3)])
def test_qubit_violation_search_rejects_non_integer_arguments(seed, n_trials):
    with pytest.raises(DimensionMismatch):
        find_qubit_violations(seed, n_trials)


@pytest.mark.parametrize("seed,n_trials", [(-1, 0), (-1, 3), (0, -1)])
def test_qubit_violation_search_rejects_negative_arguments(seed, n_trials):
    with pytest.raises(NegativeCount):
        find_qubit_violations(seed, n_trials)


def test_qubit_violation_search_replays():
    found = find_qubit_violations(seed=5, n_trials=40)
    assert found
    assert found[0][0] == 0  # the unperturbed mixture itself violates
    assert all(rec.gap_pure_form < 0 for _, rec in found)
    # the proven forms hold even on violating states
    for _, rec in found[:5]:
        assert all(g >= -1e-9 for g in rec.theorem_gaps().values())


@pytest.mark.parametrize("dims,gap", [((2, 3), -2.3e-3), ((3, 3), -2.0e-3), ((4, 4), -1.8e-3)])
def test_plain_product_form_fails_on_full_rank_states_beyond_two_qubits(dims, gap):
    # the two-qubit witness in the lowest levels of each side, mixed with 1e-3 of the
    # maximally mixed state
    da, db = dims
    t = np.zeros((da, db, da, db), dtype=complex)
    t[:2, :2, :2, :2] = qubit_mixture_counterexample()["rho"].mat.reshape(2, 2, 2, 2)
    mat = (1.0 - 1e-3) * t.reshape(da * db, -1) + 1e-3 * np.eye(da * db) / (da * db)
    rec = bipartite_record(validate_density(mat), dims)
    t = mat.reshape(da, db, da, db)
    c_a = sum(skew_info_commutator(np.trace(t, axis1=1, axis2=3), k) for k in range(da))
    c_b = sum(skew_info_commutator(np.trace(t, axis1=0, axis2=2), k) for k in range(db))
    oracle_gap = (1.0 - c_a) * (1.0 - c_b) - (1.0 - product_coherence_commutator(mat, dims))
    assert rec.rank == da * db
    assert rec.gap_pure_form == pytest.approx(oracle_gap, abs=1e-12)
    assert rec.gap_pure_form == pytest.approx(gap, abs=5e-5)
    assert all(g >= -1e-9 for g in rec.theorem_gaps().values())


@pytest.mark.parametrize("dims", [(2, 3), (4, 4)])
def test_sweep_eigendecomposes_d_plus_3_matrices_per_sample(dims, monkeypatch):
    # the state, its two marginals, and the smaller Schmidt side of each of its d eigenstates
    eigh, matrices = np.linalg.eigh, []

    def counted(a, *args, **kwargs):
        matrices.append(int(np.prod(np.shape(a)[:-2])))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    d = dims[0] * dims[1]
    n = CHUNK_ENTRIES // (d * d) + 3  # two chunks
    records = sweep_polygamy(dims, n, seed=4)
    assert [r.rank for r in records] == [d] * n
    assert sum(matrices) == n * (d + 3)


@pytest.mark.parametrize("n_samples", [2.5, "4", None])
def test_sweep_rejects_non_integer_sample_counts(n_samples):
    with pytest.raises(DimensionMismatch):
        sweep_polygamy((2, 2), n_samples, 0)
