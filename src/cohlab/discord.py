"""Skew-information discord via minimization over local product bases.

The asymmetric discord is the minimal coherence of the A subspace over local
bases of A; the symmetric discord minimizes the joint coherence over product
bases.  Both landscapes are non-convex, so the minimizer is a multi-start
derivative-free simplex search over Hermitian generators of the local
unitaries; the best value over restarts is reported together with an honesty
flag comparing the two best restarts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .channels import KrausChannel, apply, is_incoherent, validate_channel
from .coherence import c_skew, check_unitary
from .errors import DimensionMismatch, NotIncoherentChannel
from .linalg import DensityMatrix, partial_trace, sqrtm, tensor
from .rand import as_rng

CONVERGENCE_GAP = 1e-5


@dataclass(frozen=True)
class LocalBasis:
    """Per-subsystem unitaries whose columns define the local bases."""

    u_a: np.ndarray
    u_b: np.ndarray


def local_basis(u_a, u_b) -> LocalBasis:
    u_a = check_unitary(u_a).copy()
    u_b = check_unitary(u_b).copy()
    u_a.setflags(write=False)
    u_b.setflags(write=False)
    return LocalBasis(u_a, u_b)


@dataclass(frozen=True)
class DiscordResult:
    value: float
    basis: LocalBasis
    restarts_used: int
    converged: bool


def _split_dims(rho: DensityMatrix, dims) -> tuple[int, int]:
    da, db = (int(d) for d in dims)
    if da * db != rho.dim:
        raise DimensionMismatch(f"dims {dims} do not factor state dimension {rho.dim}")
    return da, db


def subsystem_coherence(rho_ab: DensityMatrix, dims, u=None) -> float:
    """Summed skew information with the projectors U|k><k|U^dag (x) I_B."""
    da, db = _split_dims(rho_ab, dims)
    t = sqrtm(rho_ab).reshape(da, db, da, db)
    if u is not None:
        u = check_unitary(u, da)
        t = np.einsum("xa,xbyd,yc->abcd", u.conj(), t, u)
    blocks = np.einsum("kbkd->kbd", t)
    return float(1.0 - np.sum(np.abs(blocks) ** 2))


def product_basis_coherence(rho_ab: DensityMatrix, dims, basis: LocalBasis | None = None) -> float:
    """Joint coherence in a local product basis; the identity basis gives c_skew."""
    da, db = _split_dims(rho_ab, dims)
    s = sqrtm(rho_ab)
    if basis is not None:
        w = np.kron(check_unitary(basis.u_a, da), check_unitary(basis.u_b, db))
        d = np.einsum("ij,ik,kj->j", w.conj(), s, w)
    else:
        d = s.diagonal()
    return float(1.0 - np.sum(d.real**2))


def _hermitian_from_vec(x: np.ndarray, d: int) -> np.ndarray:
    h = np.zeros((d, d), dtype=complex)
    h[np.diag_indices(d)] = x[:d]
    iu = np.triu_indices(d, 1)
    m = len(iu[0])
    h[iu] = x[d : d + m] + 1j * x[d + m :]
    return h + np.triu(h, 1).conj().T


def _vec_from_hermitian(h: np.ndarray) -> np.ndarray:
    d = h.shape[0]
    iu = np.triu_indices(d, 1)
    up = h[iu]
    return np.concatenate([h.diagonal().real, up.real, up.imag])


def _unitary_from_vec(x: np.ndarray, d: int) -> np.ndarray:
    w, v = np.linalg.eigh(_hermitian_from_vec(x, d))
    return (v * np.exp(1j * w)) @ v.conj().T


def _generator_of(u: np.ndarray) -> np.ndarray:
    # unitaries are normal, so eig gives a (numerically near-) orthonormal frame
    w, v = np.linalg.eig(u)
    h = (v * np.angle(w)) @ np.linalg.inv(v)
    return (h + h.conj().T) / 2.0


def _minimize_over_bases(objective, n_params, starts, max_iters, tol):
    results = []
    for x0 in starts:
        res = minimize(
            objective,
            x0,
            method="Nelder-Mead",
            options={
                "maxiter": max_iters,
                "fatol": tol,
                "xatol": np.sqrt(tol),
                "disp": False,
            },
        )
        results.append((float(res.fun), res.x))
    results.sort(key=lambda t: t[0])
    best, x_best = results[0]
    converged = len(results) < 2 or (results[1][0] - best) <= CONVERGENCE_GAP
    return max(best, 0.0), x_best, converged


def _starts(rho, dims, n_params_a, n_params_b, restarts, seed, sym):
    """Initial generator vectors: identity, marginal eigenbases, then random."""
    da, db = dims
    rng = as_rng(seed)
    starts = [np.zeros(n_params_a + n_params_b)]
    ua0 = partial_trace(rho, dims, [0]).eigenvectors
    ga = _vec_from_hermitian(_generator_of(ua0))
    if sym:
        ub0 = partial_trace(rho, dims, [1]).eigenvectors
        gb = _vec_from_hermitian(_generator_of(ub0))
        starts.append(np.concatenate([ga, gb]))
    else:
        starts.append(ga)
    while len(starts) < restarts:
        starts.append(rng.normal(0.0, np.pi / 2.0, size=n_params_a + n_params_b))
    return starts[:restarts]


def discord_sym(
    rho_ab: DensityMatrix,
    dims,
    restarts: int = 32,
    max_iters: int = 2000,
    tol: float = 1e-8,
    seed: int = 0,
) -> DiscordResult:
    """Symmetric discord: minimal joint coherence over local product bases."""
    da, db = _split_dims(rho_ab, dims)
    s = sqrtm(rho_ab)
    na, nb = da * da, db * db

    def objective(x):
        w = np.kron(_unitary_from_vec(x[:na], da), _unitary_from_vec(x[na:], db))
        d = np.einsum("ij,ik,kj->j", w.conj(), s, w)
        return 1.0 - float(np.sum(d.real**2))

    starts = _starts(rho_ab, (da, db), na, nb, max(restarts, 1), seed, sym=True)
    best, x, converged = _minimize_over_bases(objective, na + nb, starts, max_iters, tol)
    basis = local_basis(_unitary_from_vec(x[:na], da), _unitary_from_vec(x[na:], db))
    return DiscordResult(best, basis, len(starts), converged)


def discord_asym(
    rho_ab: DensityMatrix,
    dims,
    restarts: int = 32,
    max_iters: int = 2000,
    tol: float = 1e-8,
    seed: int = 0,
) -> DiscordResult:
    """Asymmetric discord: minimal A-subspace coherence over bases of A."""
    da, db = _split_dims(rho_ab, dims)
    t = sqrtm(rho_ab).reshape(da, db, da, db)
    na = da * da

    def objective(x):
        u = _unitary_from_vec(x, da)
        t2 = np.einsum("xa,xbyd,yc->abcd", u.conj(), t, u)
        blocks = np.einsum("kbkd->kbd", t2)
        return 1.0 - float(np.sum(np.abs(blocks) ** 2))

    starts = _starts(rho_ab, (da, db), na, 0, max(restarts, 1), seed, sym=False)
    best, x, converged = _minimize_over_bases(objective, na, starts, max_iters, tol)
    basis = local_basis(_unitary_from_vec(x, da), np.eye(db, dtype=complex))
    return DiscordResult(best, basis, len(starts), converged)


def generalized_cnot(dim: int) -> KrausChannel:
    """Permutation unitary |i, (i+j) mod dim><i, j| as a single-Kraus channel.

    Copies coherence of the first register into correlations: it fixes
    incoherent product inputs and maps a coherent first register onto a
    maximally correlated joint state.
    """
    if dim < 2:
        raise DimensionMismatch("subsystem dimension must be at least 2")
    u = np.zeros((dim * dim, dim * dim), dtype=complex)
    for i in range(dim):
        for j in range(dim):
            u[i * dim + (i + j) % dim, i * dim + j] = 1.0
    return validate_channel([u])


def discord_bound_check(
    sigma_a: DensityMatrix,
    sigma_b: DensityMatrix,
    channel: KrausChannel,
    **opts,
) -> dict:
    """Symmetric discord created from a product state by an incoherent channel.

    Checks it against the coherence budget ``1 - (1-C(A))(1-C(B))`` of the
    input factors; raises ``NotIncoherentChannel`` for other channels.
    """
    if not is_incoherent(channel):
        raise NotIncoherentChannel("bound only applies to incoherent channels")
    joint = tensor(sigma_a, sigma_b)
    after = apply(channel, joint)
    result = discord_sym(after, (sigma_a.dim, sigma_b.dim), **opts)
    bound = 1.0 - (1.0 - c_skew(sigma_a)) * (1.0 - c_skew(sigma_b))
    return {
        "discord_after": result.value,
        "bound": bound,
        "ok": result.value <= bound + 1e-6,
        "result": result,
    }
