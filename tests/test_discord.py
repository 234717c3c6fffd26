from itertools import combinations

import numpy as np
import pytest

from cohlab import (
    basis_state,
    c_skew,
    child_rng,
    discord_asym,
    discord_bound_check,
    discord_sym,
    generalized_cnot,
    ginibre_mixed,
    is_incoherent,
    local_basis,
    maximally_coherent,
    partial_trace,
    product_basis_coherence,
    pure_state,
    rotated,
    subsystem_coherence,
    tensor,
    validate_density,
)
from cohlab import discord
from cohlab.channels import apply, validate_channel
from cohlab.discord import _kept_weight, _rotate_pair, _starts, _sweep
from cohlab.errors import DimensionMismatch, NegativeCount, NotIncoherentChannel
from cohlab.fixtures import block_unitary_example, cnot_attainment

from oracles import (
    discord_grid_oracle,
    haar_pure,
    product_coherence_commutator,
    psd_sqrt,
    qubit_a_discord,
    random_start_unitaries,
    random_unitary,
    rotate_pair_fancy,
    subsystem_coherence_commutator,
)

BELL = pure_state([1, 0, 0, 1])


def test_subsystem_coherence_classical_state_vanishes():
    cc = validate_density(np.diag([0.4, 0.1, 0.3, 0.2]))
    assert subsystem_coherence(cc, (2, 2)) == pytest.approx(0.0, abs=1e-12)


def test_subsystem_coherence_bell_half():
    assert subsystem_coherence(BELL, (2, 2)) == pytest.approx(0.5, abs=1e-10)
    assert subsystem_coherence_commutator(BELL.mat, (2, 2)) == pytest.approx(0.5, abs=1e-10)


def test_subsystem_coherence_matches_commutator_oracle():
    for i in range(20):
        rng = child_rng(900, i)
        rho = ginibre_mixed(6, rng)
        u = random_unitary(2, rng)
        assert subsystem_coherence(rho, (2, 3), u) == pytest.approx(
            subsystem_coherence_commutator(rho.mat, (2, 3), u), abs=1e-9
        )


def test_subsystem_coherence_basis_covariance():
    rng = child_rng(901, 0)
    rho = ginibre_mixed(4, rng)
    u = random_unitary(2, rng)
    conj = validate_density(
        np.kron(u.conj().T, np.eye(2)) @ rho.mat @ np.kron(u, np.eye(2))
    )
    assert subsystem_coherence(rho, (2, 2), u) == pytest.approx(
        subsystem_coherence(conj, (2, 2)), abs=1e-10
    )


def test_product_basis_coherence_identity_is_c_skew():
    for i in range(20):
        rho = ginibre_mixed(6, child_rng(902, i))
        assert product_basis_coherence(rho, (2, 3)) == pytest.approx(c_skew(rho), abs=1e-12)


def test_product_basis_coherence_plus_pair():
    prod = tensor(maximally_coherent(2), maximally_coherent(2))
    assert product_basis_coherence(prod, (2, 2)) == pytest.approx(0.75, abs=1e-10)


def test_product_basis_coherence_diagonal_zero():
    cc = validate_density(np.diag([0.25, 0.25, 0.25, 0.25]))
    assert product_basis_coherence(cc, (2, 2)) == pytest.approx(0.0, abs=1e-12)


def test_product_basis_coherence_rotated_matches_oracle():
    rng = child_rng(903, 0)
    rho = ginibre_mixed(4, rng)
    ua, ub = random_unitary(2, rng), random_unitary(2, rng)
    assert product_basis_coherence(rho, (2, 2), local_basis(ua, ub)) == pytest.approx(
        product_coherence_commutator(rho.mat, (2, 2), ua, ub), abs=1e-9
    )


def test_discord_product_state_zero():
    rng = child_rng(904, 0)
    prod = tensor(ginibre_mixed(2, rng), ginibre_mixed(2, rng))
    res = discord_sym(prod, (2, 2), restarts=8, seed=0)
    assert res.value == pytest.approx(0.0, abs=1e-6)


def test_discord_bell_half():
    res = discord_sym(BELL, (2, 2), restarts=8, seed=0)
    assert res.value == pytest.approx(0.5, abs=1e-6)
    assert res.converged


def test_discord_cnot_attainment():
    fx = cnot_attainment()
    res = discord_sym(fx["rho_f"], (2, 2), restarts=8, seed=0)
    assert res.value == pytest.approx(c_skew(fx["sigma_a"]), abs=1e-6)


def test_discord_never_exceeds_identity_basis():
    for i in range(10):
        rho = ginibre_mixed(4, child_rng(905, i))
        res = discord_sym(rho, (2, 2), restarts=6, seed=i)
        assert res.value <= product_basis_coherence(rho, (2, 2)) + 1e-9


def test_discord_asym_sandwich():
    for i in range(10):
        rho = ginibre_mixed(4, child_rng(906, i))
        res = discord_asym(rho, (2, 2), restarts=8, seed=i)
        assert res.value <= subsystem_coherence(rho, (2, 2)) + 1e-9
        marg = partial_trace(rho, [2, 2], [0])
        assert res.value >= c_skew(rotated(marg, res.basis.u_a)) - 1e-6


def test_discord_local_unitary_invariance():
    rng = child_rng(907, 0)
    rho = ginibre_mixed(4, rng)
    u, v = random_unitary(2, rng), random_unitary(2, rng)
    w = np.kron(u, v)
    moved = validate_density(w @ rho.mat @ w.conj().T)
    a = discord_sym(rho, (2, 2), restarts=16, seed=1)
    b = discord_sym(moved, (2, 2), restarts=16, seed=2)
    assert a.value == pytest.approx(b.value, abs=1e-5)


def test_discord_grid_oracle_soundness():
    states = [
        BELL,
        cnot_attainment()["rho_f"],
        block_unitary_example()["rho_f"],
        ginibre_mixed(4, 12),
        haar_pure(4, 3),
    ]
    for rho in states:
        grid = discord_grid_oracle(rho.mat)
        res = discord_sym(rho, (2, 2), restarts=16, seed=0)
        assert res.value == pytest.approx(grid, abs=1e-4)


@pytest.mark.parametrize("db", [2, 3, 4, 5])
def test_discord_asym_qubit_a_matches_closed_form(db):
    states = [ginibre_mixed(2 * db, child_rng(910, 10 * db + i)) for i in range(5)]
    states.append(haar_pure(2 * db, child_rng(911, db)))
    for i, rho in enumerate(states):
        res = discord_asym(rho, (2, db), restarts=4, seed=i)
        assert res.value == pytest.approx(qubit_a_discord(rho.mat, db), abs=1e-10)
        assert res.converged


def test_discord_sym_3x3_converges():
    for i in range(12):
        rho = ginibre_mixed(9, child_rng(77, i))
        res = discord_sym(rho, (3, 3), restarts=8, seed=0)
        assert res.converged
        assert 0.0 <= res.value <= product_basis_coherence(rho, (3, 3))
        assert res.sweeps >= 1


def test_discord_sym_fixed_start_avoids_local_minimum():
    # this two-qubit state has a local minimum 2e-3 above the global one; the identity,
    # the eigenbases of rho's marginals and 43% of random starts fall into it, the
    # eigenbases of the partial traces of sqrt(rho) do not
    rho = ginibre_mixed(4, np.random.default_rng(np.random.SeedSequence([20170414, 6])))
    res = discord_sym(rho, (2, 2), restarts=2, seed=0)
    assert res.value == pytest.approx(discord_grid_oracle(rho.mat), abs=1e-5)


def test_discord_sweep_cap_is_not_converged(monkeypatch):
    monkeypatch.setattr(discord, "MAX_SWEEPS", 1)
    rho = ginibre_mixed(9, child_rng(77, 0))
    res = discord_sym(rho, (3, 3), restarts=8, seed=0)
    assert res.sweeps == 1
    assert not res.converged


@pytest.mark.parametrize("solve, dims", [(discord_sym, (2, 3)), (discord_asym, (3, 2))])
def test_discord_same_seed_bit_identical(solve, dims):
    rho = ginibre_mixed(6, child_rng(912, 0))
    a = solve(rho, dims, restarts=6, seed=5)
    b = solve(rho, dims, restarts=6, seed=5)
    assert a.value == b.value
    assert np.array_equal(a.basis.u_a, b.basis.u_a)
    assert np.array_equal(a.basis.u_b, b.basis.u_b)


@pytest.mark.parametrize("sym, dims", [(True, (3, 3)), (True, (2, 4)), (False, (3, 2))])
def test_jacobi_sweep_never_lowers_kept_weight(sym, dims):
    da, db = dims
    rho = ginibre_mixed(da * db, child_rng(913, da * db))
    ua, ub = _starts(psd_sqrt(rho.mat), dims, 6, 1, sym)
    w = np.stack([np.kron(x, y) for x, y in zip(ua, ub)])
    m = (w.conj().transpose(0, 2, 1) @ psd_sqrt(rho.mat) @ w).reshape(-1, da, db, da, db)
    kept = np.eye(db) if sym else np.ones((db, db))
    weight = _kept_weight(m, kept)
    active = np.ones(len(m), dtype=bool)
    for _ in range(10):
        _sweep(m, ua, ub if sym else None, kept, active)
        new = _kept_weight(m, kept)
        assert np.all(new >= weight - 1e-13)
        weight = new


@pytest.mark.parametrize("d, other", [(3, 2), (4, 3)])
@pytest.mark.parametrize("side", ["a", "b"])
def test_rotate_pair_views_match_fancy_index_reference(d, other, side):
    # every pair of a d-dimensional subsystem, the step-2 and step-3 slices (0, 2), (0, 3) too;
    # B is rotated through the transposed view that _sweep passes, as in a symmetric solve
    rng = child_rng(917, d)
    shape = (5, d, other, d, other) if side == "a" else (5, other, d, other, d)
    m0 = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    u0 = rng.normal(size=(5, d, d)) + 1j * rng.normal(size=(5, d, d))
    kept = np.ones((other, other)) if side == "a" else np.eye(other)
    active = np.array([True, False, True, True, True])
    view = (lambda a: a) if side == "a" else (lambda a: a.transpose(0, 2, 1, 4, 3))
    for i, j in combinations(range(d), 2):
        m, u, m_ref, u_ref = m0.copy(), u0.copy(), m0.copy(), u0.copy()
        _rotate_pair(view(m), u, (i, j), kept, active)
        rotate_pair_fancy(view(m_ref), u_ref, (i, j), kept, active)
        assert np.array_equal(m, m_ref) and np.array_equal(u, u_ref)
        rest = [k for k in range(d) if k not in (i, j)]
        assert np.array_equal(view(m)[:, rest][:, :, :, rest], view(m0)[:, rest][:, :, :, rest])
        assert np.array_equal(u[:, :, rest], u0[:, :, rest])
        assert not np.array_equal(u[:, :, [i, j]], u0[:, :, [i, j]])


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (2, 4), (3, 3)])
@pytest.mark.parametrize("restarts", [1, 2, 8])
def test_solver_value_is_the_public_value(dims, restarts):
    # the solver values its swept sqrt(rho) in its bases; the public kernels recompute sqrt(rho)
    rho = ginibre_mixed(dims[0] * dims[1], child_rng(918, dims[0] * dims[1]))
    sym = discord_sym(rho, dims, restarts=restarts, seed=3)
    asym = discord_asym(rho, dims, restarts=restarts, seed=3)
    assert sym.value == max(product_basis_coherence(rho, dims, sym.basis), 0.0)
    assert asym.value == max(subsystem_coherence(rho, dims, asym.basis.u_a), 0.0)


@pytest.mark.parametrize("solve", [discord_sym, discord_asym])
@pytest.mark.parametrize("restarts, error", [(0, NegativeCount), (-3, NegativeCount),
                                              (2.5, DimensionMismatch)])
def test_discord_rejects_bad_restart_counts(solve, restarts, error):
    with pytest.raises(error):
        solve(BELL, (2, 2), restarts=restarts)


@pytest.mark.parametrize("sym, dims", [(True, (2, 2)), (True, (2, 3)), (True, (4, 3)),
                                       (False, (3, 2)), (False, (4, 4))])
@pytest.mark.parametrize("restarts", [1, 2, 3, 9])
def test_starts_match_per_restart_draws(sym, dims, restarts):
    da, db = dims
    s = psd_sqrt(ginibre_mixed(da * db, child_rng(914, da * db)).mat)
    ua, ub = _starts(s, dims, restarts, 7, sym)
    ra, rb = random_start_unitaries(7, dims, restarts, sym)
    assert ua.shape == (restarts, da, da) and ub.shape == (restarts, db, db)
    assert np.array_equal(ua[2:], np.array(ra).reshape(-1, da, da))
    assert np.array_equal(ub[2:], np.array(rb).reshape(-1, db, db) if sym
                          else np.broadcast_to(np.eye(db), (len(ra), db, db)))


@pytest.mark.parametrize("sym, most", [(True, 4), (False, 2)])
def test_starts_eigh_calls_do_not_grow_with_restarts(sym, most, monkeypatch):
    eigh, calls = np.linalg.eigh, []

    def counted(a):
        calls.append(a.shape)
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    s = psd_sqrt(ginibre_mixed(6, child_rng(915, 0)).mat)
    for restarts in (1, 2, 3, 8, 32, 200):
        calls.clear()
        ua, _ = _starts(s, (2, 3), restarts, 0, sym)
        assert len(ua) == restarts
        assert len(calls) <= most


def test_generalized_cnot_dim2_permutation():
    ch = generalized_cnot(2)
    u = ch.operators[0]
    perm = np.zeros((4, 4))
    perm[0, 0] = perm[1, 1] = perm[3, 2] = perm[2, 3] = 1.0
    assert np.abs(u - perm).max() < 1e-12
    assert is_incoherent(ch)


def test_generalized_cnot_copies_coherence():
    ch = generalized_cnot(2)
    plus0 = tensor(maximally_coherent(2), basis_state(2, 0))
    out = apply(ch, plus0)
    assert np.abs(out.mat - BELL.mat).max() < 1e-12
    zz = tensor(basis_state(2, 0), basis_state(2, 0))
    assert np.abs(apply(ch, zz).mat - zz.mat).max() < 1e-12


def test_generalized_cnot_higher_dim_unitary():
    ch = generalized_cnot(3)
    u = ch.operators[0]
    assert np.abs(u.conj().T @ u - np.eye(9)).max() < 1e-12
    assert is_incoherent(ch)


def test_bound_check_attained_by_cnot():
    fx = cnot_attainment()
    out = discord_bound_check(
        fx["sigma_a"], fx["sigma_b"], fx["channel"], restarts=8, seed=0
    )
    assert out["ok"]
    assert out["bound"] == pytest.approx(0.5, abs=1e-10)
    assert out["discord_after"] == pytest.approx(0.5, abs=1e-5)


def test_theorem3_fixtures_are_built_once_and_read_only():
    assert cnot_attainment() is cnot_attainment()
    assert block_unitary_example() is block_unitary_example()
    with pytest.raises(TypeError):
        cnot_attainment()["rho_f"] = BELL


def test_bound_check_block_unitary_strict():
    fx = block_unitary_example()
    out = discord_bound_check(
        fx["sigma_a"], fx["sigma_b"], fx["channel"], restarts=12, seed=0
    )
    assert out["ok"]
    assert out["bound"] == pytest.approx(0.75, abs=1e-10)
    assert out["discord_after"] == pytest.approx(0.5, abs=1e-5)
    assert out["discord_after"] < out["bound"]


def test_bound_check_diagonal_marginals_zero():
    rng = child_rng(908, 0)
    a = validate_density(np.diag(rng.dirichlet(np.ones(2))))
    b = validate_density(np.diag(rng.dirichlet(np.ones(2))))
    ch = generalized_cnot(2)
    out = discord_bound_check(a, b, ch, restarts=6, seed=0)
    assert out["bound"] == pytest.approx(0.0, abs=1e-10)
    assert out["discord_after"] <= 1e-6


def test_bound_check_rejects_coherent_channel():
    h = np.kron(np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0), np.eye(2))
    with pytest.raises(NotIncoherentChannel):
        discord_bound_check(
            maximally_coherent(2), maximally_coherent(2), validate_channel([h])
        )


@pytest.mark.parametrize("solve", [discord_sym, discord_asym])
def test_one_restart_never_reports_convergence(solve):
    # the two best of one restart are one weight, whose spread of 0 once read as agreement
    rho = ginibre_mixed(6, 33)
    one = solve(rho, (2, 3), restarts=1, seed=7)
    two = solve(rho, (2, 3), restarts=2, seed=7)
    assert one.sweeps < discord.MAX_SWEEPS and not one.converged
    assert one.value == two.value and two.converged
