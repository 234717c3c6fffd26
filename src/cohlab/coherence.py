"""Scalar coherence measures in a fixed reference basis.

The reference basis is always the computational basis of the stored matrix.
Measuring in a rotated basis is done by conjugating the state with the basis
unitary (see :func:`rotated`), which keeps a single code path and makes basis
covariance directly testable.

The skew-information measure is evaluated through its closed form
``1 - sum_k <k|sqrt(rho)|k>^2``; the defining commutator expression is kept
as an independent oracle in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch
from .linalg import ATOL, DensityMatrix, _frozen, _from_spectrum, _hermitian, _index, _require_finite
from .linalg import _sqrt_diag, _square, sqrtm, validate_density


@dataclass(frozen=True)
class Observable:
    """Hermitian matrix; build through :func:`validate_observable`."""

    mat: np.ndarray

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


def validate_observable(entries) -> Observable:
    """Observable of the Hermitian part of a finite square matrix within ``ATOL`` of Hermitian."""
    return Observable(_frozen(_hermitian(_square(entries))))


def check_unitary(u, dim: int | None = None) -> np.ndarray:
    """``u`` as a complex matrix if it is finite, ``dim``-dimensional when ``dim`` is given
    and unitary within ``ATOL``; ``DimensionMismatch`` or ``NotFinite`` otherwise."""
    u = _square(u)
    if dim is not None and u.shape[0] != dim:
        raise DimensionMismatch(f"unitary is {u.shape[0]}-dimensional, expected {dim}")
    _require_finite(u)
    with np.errstate(over="ignore", invalid="ignore"):
        err = float(np.abs(u.conj().T @ u - np.eye(u.shape[0])).max())
    if not err <= ATOL:  # finite entries can overflow to a NaN residual
        raise DimensionMismatch(f"matrix is not unitary: residual {err:.3e}")
    return u


def rotated(rho: DensityMatrix, u) -> DensityMatrix:
    """State expressed in the basis whose columns are ``u``, i.e. u^dag rho u."""
    u = check_unitary(u, rho.dim)
    return validate_density(u.conj().T @ rho.mat @ u)


def skew_info(rho: DensityMatrix, k: int) -> float:
    """Skew information of the state with the projector onto basis state ``k``.

    Equals ``<k|rho|k> - <k|sqrt(rho)|k>^2`` and lies in [0, 1/4].
    """
    k = _index(k, rho.dim)
    return float(rho.diag()[k] - rho.sqrt_diag()[k] ** 2)


def c_skew(rho: DensityMatrix) -> float:
    """Skew-information coherence, ``1 - sum_k <k|sqrt(rho)|k>^2``.

    In the basis whose columns are ``u`` it is ``c_skew(rotated(rho, u))``.
    """
    return float(_c_skew_of(rho.eigenvalues, rho.eigenvectors))


def _c_skew_of(w: np.ndarray, v: np.ndarray):
    """c_skew from a spectrum ``(w, v)``, one state or a stack of them."""
    s = _sqrt_diag(w, v)
    return 1.0 - (s[..., None, :] @ s[..., :, None])[..., 0, 0]


def optimal_incoherent_state(rho: DensityMatrix) -> DensityMatrix:
    """Diagonal state maximizing the affinity with ``rho``.

    The optimum has diagonal proportional to ``<k|sqrt(rho)|k>^2``, whose sum
    is at least ``(Tr sqrt(rho))^2 / dim >= 1 / dim``.
    """
    w = rho.sqrt_diag() ** 2
    return validate_density(np.diag(w / float(w.sum())))


def affinity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Overlap Tr sqrt(rho) sqrt(sigma), in [0, 1] with affinity(rho, rho) = 1."""
    if rho.dim != sigma.dim:
        raise DimensionMismatch(f"dimensions {rho.dim} and {sigma.dim} differ")
    return float(np.trace(sqrtm(rho) @ sqrtm(sigma)).real)


def _entropy_bits(p: np.ndarray) -> float:
    """Shannon entropy of a probability vector in bits; 0 log 0 := 0."""
    p = p[p > 0.0]
    return float(-(p @ np.log2(p)))


def c_rel_entropy(rho: DensityMatrix) -> float:
    """Relative-entropy coherence S(diag(rho)) - S(rho), in bits."""
    return _entropy_bits(rho.diag()) - _entropy_bits(rho.eigenvalues)


def _offdiag_abs(rho: DensityMatrix) -> np.ndarray:
    a = np.abs(rho.mat).copy()
    np.fill_diagonal(a, 0.0)
    return a


def c_l1(rho: DensityMatrix) -> float:
    """Sum of off-diagonal moduli."""
    return float(_offdiag_abs(rho).sum())


def c_l2(rho: DensityMatrix) -> float:
    """Sum of squared off-diagonal moduli; equals Tr rho^2 - sum_k rho_kk^2."""
    return float((_offdiag_abs(rho) ** 2).sum())


def skew_bounds(rho: DensityMatrix) -> tuple[float, float]:
    """Measurable sandwich for the skew-information coherence.

    Returns ``(C_l2 / 2, 1 - Tr rho^2 + C_l2)``; both ends only involve the
    spectrum and the diagonal entries, so they are accessible without full
    state tomography.
    """
    l2 = c_l2(rho)
    return 0.5 * l2, 1.0 - rho.purity() + l2


def l1_bounds(rho: DensityMatrix) -> tuple[float, float]:
    """Measurable sandwich ``(C_l2, sqrt(N(N-1) C_l2))`` for the l1 coherence."""
    l2 = c_l2(rho)
    n = rho.dim
    return l2, float(np.sqrt(n * (n - 1) * l2))


def k_coherence(rho: DensityMatrix, obs: Observable) -> float:
    """Skew information of the state with a full observable.

    ``-1/2 Tr [sqrt(rho), K]^2``, evaluated in the matrix form
    ``Tr(rho K^2) - Tr(sqrt(rho) K sqrt(rho) K)`` so no eigenbasis of K is
    needed.  Unlike the projector-summed measure this weighs the basis by the
    eigenvalue gaps of K and is a faithful coherence measure only for qubits.
    """
    if rho.dim != obs.dim:
        raise DimensionMismatch(f"state dim {rho.dim} != observable dim {obs.dim}")
    return float(_k_of(rho.mat, rho.eigenvalues, rho.eigenvectors, obs.mat))


def _k_of(mat: np.ndarray, w: np.ndarray, v: np.ndarray, k: np.ndarray):
    """k_coherence from a state ``(mat, w, v)`` and an observable ``k``, or from stacks of them."""
    sk = _from_spectrum(np.sqrt(w), v) @ k
    return (np.trace(mat @ k @ k, axis1=-2, axis2=-1) - np.trace(sk @ sk, axis1=-2, axis2=-1)).real


@dataclass(frozen=True)
class CoherenceReport:
    """All measures and measurable bounds of one state in one basis."""

    c_skew: float
    c_rel: float
    c_l1: float
    c_l2: float
    purity: float
    skew_per_k: np.ndarray
    bounds: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "c_skew": self.c_skew,
            "c_rel": self.c_rel,
            "c_l1": self.c_l1,
            "c_l2": self.c_l2,
            "purity": self.purity,
            "skew_per_k": [float(x) for x in self.skew_per_k],
            "bounds": dict(self.bounds),
        }


def coherence_report(rho: DensityMatrix) -> CoherenceReport:
    d = rho.diag()
    s = rho.sqrt_diag()
    per_k = d - s**2
    per_k.setflags(write=False)
    lo, hi = skew_bounds(rho)
    l1lo, l1hi = l1_bounds(rho)
    return CoherenceReport(
        c_skew=c_skew(rho),
        c_rel=c_rel_entropy(rho),
        c_l1=c_l1(rho),
        c_l2=c_l2(rho),
        purity=rho.purity(),
        skew_per_k=per_k,
        bounds={"skew_lower": lo, "skew_upper": hi, "l1_lower": l1lo, "l1_upper": l1hi},
    )
