"""Dense complex Hermitian linear algebra for small quantum states.

Everything operates on validated density matrices at desk scale (dimensions
up to a few tens).  All stored arrays are read-only and all types are
immutable, so values can be shared freely across threads; every operation is
a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    NotFinite,
    NotHermitian,
    NotPSD,
    NotUnitTrace,
)

ATOL = 1e-9
RANK_TOL = 1e-10


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _require_finite(a: np.ndarray):
    """Raise ``NotFinite`` if any entry is NaN or infinite.

    Validators call this before their tolerance checks, since ``err > atol``
    is false when ``err`` is NaN.
    """
    if not np.isfinite(a).all():
        raise NotFinite("input has NaN or infinite entries")


def _clean_spectrum(w: np.ndarray) -> np.ndarray:
    """Roundoff rule for the eigenvalues of unit-trace PSD matrices.

    Clips negatives to zero, zeroes eigenvalues at roundoff scale relative to
    the largest (they would pollute sqrt(rho) at the sqrt scale) and
    renormalizes.  ``w`` is one spectrum or a stack of spectra along the last
    axis.
    """
    w = np.maximum(w, 0.0)
    w = np.where(w < w.max(axis=-1, keepdims=True) * 1e-14, 0.0, w)
    return w / w.sum(axis=-1, keepdims=True)


@dataclass(frozen=True)
class DensityMatrix:
    """Validated Hermitian, unit-trace, PSD matrix together with its spectrum.

    Construct through :func:`validate_density` or the state helpers below,
    never directly: the stored eigenvalues are clipped to [0, inf) and
    renormalized, and ``mat`` is the reconstruction from that spectrum.
    """

    mat: np.ndarray
    eigenvalues: np.ndarray  # descending, >= 0, sums to 1
    eigenvectors: np.ndarray  # unitary, column i matches eigenvalues[i]

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @property
    def rank(self) -> int:
        """Number of eigenvalues above the rank tolerance."""
        return int(np.count_nonzero(self.eigenvalues > RANK_TOL))

    def purity(self) -> float:
        return float(np.sum(self.eigenvalues**2))

    def min_nonzero_eigenvalue(self) -> float:
        w = self.eigenvalues[self.eigenvalues > RANK_TOL]
        return float(w[-1])

    def diag(self) -> np.ndarray:
        return self.mat.diagonal().real

    def sqrt_diag(self) -> np.ndarray:
        """Diagonal entries of the PSD square root of the state."""
        return _sqrt_diag(self.eigenvalues, self.eigenvectors)


def _bipartite_dims(rho: DensityMatrix, dims) -> tuple[int, int]:
    """``dims`` as ``(d_a, d_b)``: two positive integers whose product is ``rho.dim``."""
    dims = tuple(int(d) for d in dims)
    if len(dims) != 2 or min(dims) < 1 or dims[0] * dims[1] != rho.dim:
        raise DimensionMismatch(f"dims {dims} are not two positive factors of dimension {rho.dim}")
    return dims


def _sqrt_diag(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Diagonal of sqrt(rho) from ``(w, v)``; a stack gets each state's bits (einsum would not)."""
    return ((np.abs(v) ** 2) @ np.sqrt(w)[..., None])[..., 0]


def validate_density(entries, atol: float = ATOL) -> DensityMatrix:
    """Validate and canonicalize a density matrix.

    Symmetrizes roundoff-level Hermiticity drift, clips eigenvalues in
    [-atol, 0) to zero, zeroes roundoff-scale ones, renormalizes the spectrum
    and rebuilds the matrix.  Non-finite entries raise ``NotFinite``;
    violations beyond ``atol`` raise ``NotHermitian``, ``NotUnitTrace`` or
    ``NotPSD``.
    """
    a = np.asarray(entries, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    return DensityMatrix(*map(_frozen, _validated(a, atol)))


def _validated(a: np.ndarray, atol: float = ATOL):
    """(mat, w, v) of a complex matrix or stack of matrices; validate_density's body.

    Checks reduce over the whole stack (by ufunc, cheaper than ``.max()`` on scalars).
    """
    _require_finite(a)
    ah = a.conj().swapaxes(-1, -2)
    herm_err = float(np.maximum.reduce(np.abs(a - ah), axis=None))
    if herm_err > atol:
        raise NotHermitian(f"max |A - A^dag| = {herm_err:.3e} exceeds {atol:.1e}")
    h = (a + ah) / 2.0
    _require_finite(h)  # entries near the float maximum overflow in a + ah
    tr = h.trace(axis1=-2, axis2=-1).real
    tr_err = np.abs(tr - 1.0)
    if np.maximum.reduce(tr_err, axis=None) > atol:
        raise NotUnitTrace(f"trace = {float(np.ravel(tr)[tr_err.argmax()])!r}")
    try:
        w, v = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigendecomposition did not converge: {exc}") from exc
    w, v = w[..., ::-1], np.ascontiguousarray(v[..., ::-1])  # descending
    w_min = np.minimum.reduce(w[..., -1], axis=None)
    if w_min < -atol:
        raise NotPSD(f"min eigenvalue = {w_min:.3e}")
    w = _clean_spectrum(w)
    mat = (v * w[..., None, :]) @ v.conj().swapaxes(-1, -2)
    mat = (mat + mat.conj().swapaxes(-1, -2)) / 2.0
    return mat, w, v


def sqrtm(rho: DensityMatrix) -> np.ndarray:
    """Hermitian PSD square root, computed from the stored spectrum."""
    v = rho.eigenvectors
    s = (v * np.sqrt(rho.eigenvalues)) @ v.conj().T
    return (s + s.conj().T) / 2.0


def tensor(a: DensityMatrix, b: DensityMatrix) -> DensityMatrix:
    """Kronecker product; the first factor is the most significant index."""
    return validate_density(np.kron(a.mat, b.mat))


def partial_trace(rho: DensityMatrix, dims, keep) -> DensityMatrix:
    """Reduced state over the subsystems listed in ``keep``.

    ``dims`` lists the subsystem dimensions in big-endian order (first factor
    most significant); ``keep`` is a subsystem index or a set of indices.
    Kept subsystems stay in their original order.
    """
    dims = [int(d) for d in dims]
    if int(np.prod(dims)) != rho.dim:
        raise DimensionMismatch(f"prod({dims}) != state dimension {rho.dim}")
    if isinstance(keep, (int, np.integer)):
        keep = [int(keep)]
    keep = sorted(set(int(k) for k in keep))
    n = len(dims)
    if not keep or any(k < 0 or k >= n for k in keep):
        raise DimensionMismatch(f"keep={keep} out of range for {n} subsystems")
    t = rho.mat.reshape(dims + dims)
    remaining = list(dims)
    for idx in sorted(set(range(n)) - set(keep), reverse=True):
        t = np.trace(t, axis1=idx, axis2=idx + len(remaining))
        del remaining[idx]
    d_keep = int(np.prod(remaining))
    return validate_density(t.reshape(d_keep, d_keep))


def pure_state(vec) -> DensityMatrix:
    """Rank-one state from a (not necessarily normalized) state vector."""
    v = np.asarray(vec, dtype=complex).ravel()
    nrm = float(np.linalg.norm(v))
    if nrm == 0.0:
        raise DimensionMismatch("zero vector has no associated state")
    v = v / nrm
    return validate_density(np.outer(v, v.conj()))


def basis_state(dim: int, k: int) -> DensityMatrix:
    """Computational basis state |k><k|."""
    v = np.zeros(dim)
    v[k] = 1.0
    return pure_state(v)


def maximally_coherent(dim: int) -> DensityMatrix:
    """Uniform-superposition pure state, entries all 1/dim."""
    return pure_state(np.ones(dim))
