"""Skew-information discord: minimal coherence over local product bases.

Asymmetric discord minimizes the A-subspace coherence over bases of A, symmetric
discord the joint coherence over product bases W.  Both are 1 minus the summed
|M_jj'|^2 over the kept entries of M = W^dag sqrt(rho) W, a joint-diagonalization
objective that Jacobi sweeps maximize with closed-form pair rotations (Cardoso and
Souloumiac, SIAM J. Matrix Anal. Appl. 17, 161 (1996)); for a qubit A one rotation
is optimal, so ``discord_asym`` is exact there (Girolami et al., PRL 110, 240402).
All ``restarts`` starts are swept as one stack; the best is returned, valued from the swept
sqrt(rho) in its bases.  ``converged`` says there were at least two restarts, the two best
agree within ``CONVERGENCE_GAP`` and the best beat the sweep cap; one restart never converges.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations

import numpy as np

from .channels import KrausChannel, apply, is_incoherent, validate_channel
from .coherence import c_skew, check_unitary
from .errors import DimensionMismatch, NotIncoherentChannel
from .linalg import DensityMatrix, _count, _frozen, _index, _partial_trace, _subsystem_dims, sqrtm
from .linalg import tensor
from .rand import as_rng

CONVERGENCE_GAP = 1e-5
SWEEP_TOL = 1e-8  # a restart stops after a sweep that raises its kept weight by at most this
MAX_SWEEPS = 2000  # or after this many sweeps


@dataclass(frozen=True)
class LocalBasis:
    """Per-subsystem unitaries whose columns define the local bases."""

    u_a: np.ndarray
    u_b: np.ndarray


def local_basis(u_a, u_b) -> LocalBasis:
    return LocalBasis(_frozen(check_unitary(u_a).copy()), _frozen(check_unitary(u_b).copy()))


@dataclass(frozen=True)
class DiscordResult:
    value: float
    basis: LocalBasis
    restarts_used: int
    converged: bool
    sweeps: int


def subsystem_coherence(rho_ab: DensityMatrix, dims, u=None) -> float:
    """Summed skew information with the projectors U|k><k|U^dag (x) I_B."""
    da, db = _subsystem_dims(rho_ab, dims, 2)
    return _subsystem_value(sqrtm(rho_ab), (da, db), None if u is None else check_unitary(u, da))


def _subsystem_value(s, dims, u=None) -> float:
    """1 - sum_k ||(<k|U^dag (x) I) s (U|k> (x) I)||_F^2, s = sqrt(rho), ``u`` unitary or None."""
    t = s.reshape(*dims, *dims)
    if u is not None:
        t = np.einsum("xa,xbyd,yc->abcd", u.conj(), t, u)
    blocks = np.einsum("kbkd->kbd", t)
    return float(1.0 - np.sum(np.abs(blocks) ** 2))


def product_basis_coherence(rho_ab: DensityMatrix, dims, basis: LocalBasis | None = None) -> float:
    """Joint coherence in a local product basis; the identity basis gives c_skew."""
    da, db = _subsystem_dims(rho_ab, dims, 2)
    w = None if basis is None else np.kron(check_unitary(basis.u_a, da),
                                           check_unitary(basis.u_b, db))
    return _product_value(sqrtm(rho_ab), w)


def _product_value(s, w=None) -> float:
    """1 - sum_j (W^dag s W)_jj^2, s = sqrt(rho), ``w`` unitary or None for the identity."""
    d = s.diagonal() if w is None else np.einsum("ij,ik,kj->j", w.conj(), s, w)
    return float(1.0 - np.sum(d.real**2))


@cache
def _upper(d: int):  # row and column indices of the strict upper triangle of a d x d matrix
    return np.triu_indices(d, 1)


def _unitaries(x: np.ndarray, d: int) -> np.ndarray:
    """exp(iH) per row of ``x``: H Hermitian with diagonal x[:d], upper triangle from the rest."""
    iu, n = _upper(d), d * (d - 1) // 2
    h = np.zeros((len(x), d, d), dtype=complex)
    h[:, iu[0], iu[1]] = x[:, d : d + n] + 1j * x[:, d + n :]
    diag = np.zeros((len(x), d, d))
    diag[:, range(d), range(d)] = x[:, :d]
    w, v = np.linalg.eigh(h + h.conj().swapaxes(1, 2) + diag)
    return (v * np.exp(1j * w)[:, None, :]) @ v.conj().swapaxes(1, 2)


def _starts(s, dims, restarts, seed, sym):
    """Start unitaries (R, dA, dA) and (R, dB, dB) for s = sqrt(rho): identity, then the
    eigenbases of Tr_B s and Tr_A s (maximizers of sum_a (Tr_B M)_aa^2 / dB, a lower bound
    of the kept weight), then R - 2 seeded random ones: one normal block, a row per start,
    exponentiated by one stacked ``eigh`` per subsystem.
    """
    (da, db), rng = dims, as_rng(seed)
    x = rng.normal(0.0, np.pi / 2.0, size=(max(restarts - 2, 0), da * da + (db * db if sym else 0)))
    ua = np.concatenate([[np.eye(da), np.linalg.eigh(_partial_trace(s, dims, [0]))[1]],
                         _unitaries(x[:, : da * da], da)])
    if sym:
        ub = np.concatenate([[np.eye(db), np.linalg.eigh(_partial_trace(s, dims, [1]))[1]],
                             _unitaries(x[:, da * da :], db)])
    else:
        ub = np.repeat(np.eye(db, dtype=complex)[None], len(ua), 0)
    return ua[:restarts], ub[:restarts]


def _kept_weight(m: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """Per restart, the summed |M[a,b,a,b']|^2 over the (b, b') in the 0/1 mask ``kept``."""
    return np.einsum("rbca,bc->r", np.abs(m.diagonal(axis1=1, axis2=3)) ** 2, kept)


def _rotate_pair(m, u, pair, kept, active):
    """Optimal rotation of an index pair of the subsystem on axes 1 and 3 of ``m``, in place.

    A rotation with Bloch vector n maps the kept blocks X = M[pair, b, pair, b'] to
    summed squared diagonals of const + n^T G n / 2, G = Re sum v v^dag with
    v = (X01 + X10, i (X01 - X10), X00 - X11): n is G's top eigenvector, n_z >= 0.
    """
    i, j = pair
    p = slice(i, j + 1, j - i)  # exactly i and j, as a view
    x = m[:, p, :, p] * kept[:, None, :]
    v = np.stack([x[:, 0, :, 1] + x[:, 1, :, 0], 1j * (x[:, 0, :, 1] - x[:, 1, :, 0]),
                  x[:, 0, :, 0] - x[:, 1, :, 1]], 1).reshape(len(x), 3, -1)
    n = np.linalg.eigh((v @ v.conj().swapaxes(1, 2)).real)[1][:, :, -1]
    n = np.where(n[:, 2:] < 0.0, -n, n)
    n[~active] = (0.0, 0.0, 1.0)
    c = np.sqrt((1.0 + n[:, 2]) / 2.0)
    s = (n[:, 0] + 1j * n[:, 1]) / (2.0 * c)
    g = np.stack([c, -s.conj(), s, c], 1).reshape(-1, 2, 2)
    u[:, :, p] = u[:, :, p] @ g
    m[:, p] = np.einsum("rji,rj...->ri...", g.conj(), m[:, p])
    m[:, :, :, p] = np.einsum("rabjc,rjl->rablc", m[:, :, :, p], g)


def _sweep(m, ua, ub, kept, active):
    """One Jacobi sweep in place: every index pair of A, then of B unless ``ub`` is None."""
    da, db = m.shape[1:3]
    for pair in combinations(range(da), 2):
        _rotate_pair(m, ua, pair, kept, active)
    mb, eye = m.transpose(0, 2, 1, 4, 3), np.eye(da)
    for pair in combinations(range(db) if ub is not None else (), 2):
        _rotate_pair(mb, ub, pair, eye, active)


def _solve(rho_ab, dims, restarts, seed, sym) -> DiscordResult:
    """Sweep every start as one stack; the best restart, valued from ``s`` in its bases."""
    da, db = _subsystem_dims(rho_ab, dims, 2)
    restarts = _count(restarts, 1, "restart count")
    s = sqrtm(rho_ab)
    ua, ub = _starts(s, (da, db), restarts, seed, sym)
    w = np.einsum("rac,rbd->rabcd", ua, ub).reshape(len(ua), da * db, da * db)
    m = (w.conj().swapaxes(1, 2) @ s @ w).reshape(-1, da, db, da, db)
    kept = np.eye(db) if sym else np.ones((db, db))
    weight = _kept_weight(m, kept)
    active, sweeps = np.ones(len(m), dtype=bool), np.zeros(len(m), dtype=int)
    while active.any() and sweeps.max() < MAX_SWEEPS:
        _sweep(m, ua, ub if sym else None, kept, active)
        sweeps += active
        new = _kept_weight(m, kept)
        active &= new - weight > SWEEP_TOL
        weight = new
    best = int(np.argmax(weight))
    basis = local_basis(ua[best], ub[best])
    value = (_product_value(s, np.kron(basis.u_a, basis.u_b)) if sym
             else _subsystem_value(s, (da, db), basis.u_a))
    converged = len(m) > 1 and not active[best] and np.ptp(np.sort(weight)[-2:]) <= CONVERGENCE_GAP
    return DiscordResult(max(value, 0.0), basis, len(m), bool(converged), int(sweeps[best]))


def discord_sym(rho_ab: DensityMatrix, dims, restarts: int = 32, seed: int = 0) -> DiscordResult:
    """Symmetric discord: minimal joint coherence over local product bases.

    The ``restarts`` starts (an integer count of at least 1: a non-integer raises
    ``DimensionMismatch`` and 0 or less ``NegativeCount``) are swept together; each
    stops after ``MAX_SWEEPS`` sweeps or a sweep that raises its summed squared diagonal by
    at most ``SWEEP_TOL``.  ``converged`` needs at least two restarts whose best two agree.
    """
    return _solve(rho_ab, dims, restarts, seed, True)


def discord_asym(rho_ab: DensityMatrix, dims, restarts: int = 32, seed: int = 0) -> DiscordResult:
    """Asymmetric discord: minimal A-subspace coherence over bases of A (``u_b`` is I).

    Exact for a qubit A.  ``restarts`` and the ``MAX_SWEEPS`` cap act as in
    :func:`discord_sym`, on the summed squared A-diagonal blocks.
    """
    return _solve(rho_ab, dims, restarts, seed, False)


def __getattr__(name):
    # only perfbench/tracer.py reads ``minimize``; lazy so cohlab loads no scipy (ROADMAP item 1)
    if name == "minimize":
        from scipy.optimize import minimize
        return minimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def generalized_cnot(dim: int) -> KrausChannel:
    """Permutation unitary |i, (i+j) mod dim><i, j| as a single-Kraus channel.

    Copies coherence of the first register into correlations: it fixes
    incoherent product inputs and maps a coherent first register onto a
    maximally correlated joint state.
    """
    dim = _index(dim)
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
