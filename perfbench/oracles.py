"""Reference computations made apart from cohlab's code paths.

Square roots go through scipy's Schur-based ``sqrtm``, skew quantities
through literal commutator traces, entropies through ``eigvalsh``, and the
random inputs of the sweeps are rebuilt here from their documented recipe
(one ``SeedSequence(seed, spawn_key=(i,))`` generator per sample), not by
calling ``cohlab.rand``.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.linalg

PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def psd_sqrt(mat) -> np.ndarray:
    with warnings.catch_warnings():
        # rank-deficient fixtures are expected; the accuracy loss is ~1e-8
        warnings.simplefilter("ignore")
        s = np.asarray(scipy.linalg.sqrtm(np.asarray(mat, dtype=complex)), dtype=complex)
    return (s + s.conj().T) / 2.0


def _skew(s, obs) -> float:
    c = s @ obs - obs @ s
    return float(-0.5 * np.trace(c @ c).real)


def skew_per_k(mat) -> np.ndarray:
    """-1/2 Tr [sqrt(rho), |k><k|]^2 for every basis index k."""
    s = psd_sqrt(mat)
    out = []
    for k in range(s.shape[0]):
        p = np.zeros_like(s)
        p[k, k] = 1.0
        out.append(_skew(s, p))
    return np.array(out)


def c_skew(mat) -> float:
    return float(skew_per_k(mat).sum())


def k_coherence(mat, kobs) -> float:
    return _skew(psd_sqrt(mat), np.asarray(kobs, dtype=complex))


def partial_trace(mat, da: int, db: int, keep: int) -> np.ndarray:
    """Reduced state of subsystem ``keep`` (0 = A, 1 = B) by explicit sums."""
    t = np.asarray(mat).reshape(da, db, da, db)
    if keep == 0:
        return sum(t[:, j, :, j] for j in range(db))
    return sum(t[i, :, i, :] for i in range(da))


def product_coherence(mat, dims, ua, ub) -> float:
    """Summed skew information with the product projectors of bases ua (x) ub."""
    da, db = dims
    s = psd_sqrt(mat)
    total = 0.0
    for k in range(da):
        pa = np.outer(ua[:, k], ua[:, k].conj())
        for l in range(db):
            total += _skew(s, np.kron(pa, np.outer(ub[:, l], ub[:, l].conj())))
    return total


def subsystem_coherence(mat, dims, ua) -> float:
    """Summed skew information with the projectors U|k><k|U^dag (x) I_B."""
    da, db = dims
    s = psd_sqrt(mat)
    return sum(
        _skew(s, np.kron(np.outer(ua[:, k], ua[:, k].conj()), np.eye(db))) for k in range(da)
    )


def qubit_a_discord(mat, db: int) -> float:
    """Closed form (1 - lambda_max(W)) / 2 of the asymmetric discord, qubit A.

    ``W_ij = Tr[sqrt(rho) (s_i (x) I) sqrt(rho) (s_j (x) I)]`` over the Pauli
    matrices (local quantum uncertainty, Girolami et al., PRL 110, 240402).
    """
    s = psd_sqrt(mat)
    ops = [np.kron(p, np.eye(db)) for p in PAULIS]
    w = np.array([[np.trace(s @ a @ s @ b).real for b in ops] for a in ops])
    return float((1.0 - np.linalg.eigvalsh((w + w.T) / 2.0).max()) / 2.0)


def entropy_bits(p) -> float:
    p = np.asarray(p, dtype=float)
    p = p[p > 0.0]
    return float(-(p @ np.log2(p)))


def unitarity_residual(u) -> float:
    return float(np.abs(u.conj().T @ u - np.eye(u.shape[0])).max())


# --- the documented input recipes -------------------------------------------------


def child_generator(master_seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(index,)))


def complex_normal(rng, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def ginibre(rng, dim: int) -> np.ndarray:
    """G G^dag / Tr(G G^dag) for a complex Ginibre G."""
    g = complex_normal(rng, (dim, dim))
    m = g @ g.conj().T
    return m / m.trace().real


def hermitian(rng, dim: int) -> np.ndarray:
    """(A + A^dag)/2 for a complex normal A."""
    a = complex_normal(rng, (dim, dim))
    return (a + a.conj().T) / 2.0


def polygamy_sample(seed: int, index: int, dim: int) -> np.ndarray:
    return ginibre(child_generator(seed, index), dim)


def monotonicity_sample(seed: int, index: int, dim: int, measure: str):
    """(Kraus operators, state, observable or None) of one monotonicity row.

    Draw order of one sample: Kraus count in [1, dim+1]; per attempt one
    permutation per operator then the (count, dim) complex amplitudes, kept
    when every column norm is at least 1e-6; the Ginibre state; for the
    ``k`` measure a Hermitian (A + A^dag)/2 with complex normal A.
    """
    rng = child_generator(seed, index)
    nk = int(rng.integers(1, dim + 2))
    for _ in range(20):
        rows = [rng.permutation(dim) for _ in range(nk)]
        amps = complex_normal(rng, (nk, dim))
        norms = np.sqrt((np.abs(amps) ** 2).sum(axis=0))
        if norms.min() >= 1e-6:
            break
    else:
        raise RuntimeError("no amplitude pattern in 20 attempts")
    amps = amps / norms
    ops = []
    for n in range(nk):
        m = np.zeros((dim, dim), dtype=complex)
        m[rows[n], np.arange(dim)] = amps[n]
        ops.append(m)
    rho = ginibre(rng, dim)
    obs = hermitian(rng, dim) if measure == "k" else None
    return ops, rho, obs


def monotonicity_values(ops, rho, measure: str, obs=None) -> tuple[float, float, float]:
    """(c_before, probability-weighted c after selection, c after the channel)."""
    f = c_skew if measure == "skew" else (lambda m: k_coherence(m, obs))
    outs = [m @ rho @ m.conj().T for m in ops]
    probs = [float(t.trace().real) for t in outs]
    avg = sum(p * f(t / p) for p, t in zip(probs, outs) if p >= 1e-12)
    return f(rho), avg, f(sum(outs))
