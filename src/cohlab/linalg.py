"""Dense complex Hermitian linear algebra for small quantum states.

Everything operates on validated density matrices at desk scale (dimensions
up to a few tens).  All stored arrays are read-only and all types are
immutable, so values can be shared freely across threads; every operation is
a pure function.
"""

from __future__ import annotations

import math
import operator
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

ATOL = 1e-9  # the one tolerance of the input gate: Hermiticity, unit trace, PSD, unitarity
RANK_TOL = 1e-10
CHUNK_ENTRIES = 8192  # matrix entries in the largest stack a sweep builds; bounds its memory


def _chunks(n: int, entries_per_item: int):
    """Consecutive ranges covering ``range(n)``; a chunk holds as many items as fit into
    ``CHUNK_ENTRIES`` matrix entries at ``entries_per_item`` each, and at least one."""
    size = max(1, CHUNK_ENTRIES // entries_per_item)
    return (range(start, min(start + size, n)) for start in range(0, n, size))


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _require_finite(a: np.ndarray):
    """Raise ``NotFinite`` if any entry is NaN or infinite.

    Validators call this before their tolerance checks, since ``err > ATOL``
    is false when ``err`` is NaN.
    """
    if not np.isfinite(a).all():
        raise NotFinite("input has NaN or infinite entries")


def _numeric(entries, dtype, what: str) -> np.ndarray:
    """``np.asarray(entries, dtype)``; entries numpy cannot convert (strings, objects, ragged
    nesting) raise ``DimensionMismatch`` with the message ``what``."""
    try:
        return np.asarray(entries, dtype=dtype)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DimensionMismatch(f"{what}: {exc}") from exc


def _square(entries) -> np.ndarray:
    """First check of the input gate: ``entries`` as a non-empty square complex matrix."""
    a = _numeric(entries, complex, "expected a square matrix")
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    return a


def _hermitian(a: np.ndarray) -> np.ndarray:
    """Second check of the input gate: the Hermitian part (A + A^dag)/2 of a matrix or stack.

    Raises ``NotFinite`` for non-finite entries, also where finite entries
    overflow in the sum, and ``NotHermitian`` beyond ``ATOL``.  The check
    reduces over the whole stack (by ufunc, cheaper than ``.max()`` on scalars).
    """
    _require_finite(a)
    ah = a.conj().swapaxes(-1, -2)
    herm_err = float(np.maximum.reduce(np.abs(a - ah), axis=None))
    if herm_err > ATOL:
        raise NotHermitian(f"max |A - A^dag| = {herm_err:.3e} exceeds {ATOL:.1e}")
    with np.errstate(over="ignore", invalid="ignore"):
        h = (a + ah) / 2.0
    _require_finite(h)  # entries near the float maximum overflow in a + ah
    return h


def _hermitian_part(a: np.ndarray) -> np.ndarray:
    """(A + A^dag)/2 of a matrix or of each in a stack."""
    return (a + a.conj().swapaxes(-1, -2)) / 2.0


def _from_spectrum(f: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Hermitized v diag(f) v^dag of one spectrum or a stack of them."""
    return _hermitian_part((v * f[..., None, :]) @ v.conj().swapaxes(-1, -2))


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

    def diag(self) -> np.ndarray:
        return self.mat.diagonal().real

    def sqrt_diag(self) -> np.ndarray:
        """Diagonal entries of the PSD square root of the state."""
        return _sqrt_diag(self.eigenvalues, self.eigenvectors)


def _index(k, stop: int | None = None) -> int:
    """``k`` as a Python int, in ``range(stop)`` if given; the one rule for indices and dims.

    Anything ``operator.index`` refuses (floats, strings, arrays) and bools
    raise ``DimensionMismatch``, as does an index outside the range.
    """
    try:
        if isinstance(k, bool):
            raise TypeError("a bool is not an index")
        k = operator.index(k)
    except TypeError as exc:
        raise DimensionMismatch(f"expected an integer, got {k!r}: {exc}") from exc
    if stop is not None and not 0 <= k < stop:
        raise DimensionMismatch(f"index {k} is outside range({stop})")
    return k


def _dim(dim) -> int:
    """``dim`` as a positive Python int by the ``_index`` rule, else ``DimensionMismatch``."""
    dim = _index(dim)
    if dim < 1:
        raise DimensionMismatch(f"dimension {dim} is not positive")
    return dim


def _dims(dims, n: int | None = None) -> tuple:
    """``dims`` as a non-empty tuple of positive integers by the ``_index`` rule, ``n`` of them
    if given, else ``DimensionMismatch``."""
    try:
        dims = tuple(map(_index, dims))
    except TypeError as exc:  # dims is not iterable
        raise DimensionMismatch(f"dims must be a sequence of integers: {exc}") from exc
    if (n is not None and len(dims) != n) or min(dims, default=0) < 1:
        raise DimensionMismatch(f"dims {dims} are not {n or 'one or more'} positive integers")
    return dims


def _subsystem_dims(rho: DensityMatrix, dims, n: int | None = None) -> tuple:
    """``_dims(dims, n)`` whose product is ``rho.dim``, else ``DimensionMismatch``."""
    dims = _dims(dims, n)
    if math.prod(dims) != rho.dim:
        raise DimensionMismatch(f"dims {dims} are not factors of dimension {rho.dim}")
    return dims


def _sqrt_diag(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Diagonal of sqrt(rho) from ``(w, v)``; a stack gets each state's bits (einsum would not)."""
    return ((np.abs(v) ** 2) @ np.sqrt(w)[..., None])[..., 0]


def validate_density(entries) -> DensityMatrix:
    """Validate and canonicalize a density matrix.

    Symmetrizes roundoff-level Hermiticity drift, clips eigenvalues in
    [-ATOL, 0) to zero, zeroes roundoff-scale ones, renormalizes the spectrum
    and rebuilds the matrix.  Anything but a non-empty square matrix raises
    ``DimensionMismatch`` and non-finite entries raise ``NotFinite``;
    violations beyond ``ATOL`` raise ``NotHermitian``, ``NotUnitTrace`` or
    ``NotPSD``.
    """
    return DensityMatrix(*map(_frozen, _validated(_square(entries))))


def _validated(a: np.ndarray):
    """(mat, w, v) of a complex matrix or stack of matrices; validate_density's body."""
    w, v = _spectrum(a)
    return _from_spectrum(w, v), w, v


def _spectrum(a: np.ndarray):
    """(w, v) of ``_validated`` without the rebuilt matrix, which ``_from_spectrum(w, v)`` gives
    bit for bit on the same stack."""
    h = _hermitian(a)
    tr = h.trace(axis1=-2, axis2=-1).real
    tr_err = np.abs(tr - 1.0)
    if np.maximum.reduce(tr_err, axis=None) > ATOL:
        raise NotUnitTrace(f"trace = {float(np.ravel(tr)[tr_err.argmax()])!r}")
    try:
        w, v = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigendecomposition did not converge: {exc}") from exc
    w, v = w[..., ::-1], np.ascontiguousarray(v[..., ::-1])  # descending
    w_min = np.minimum.reduce(w[..., -1], axis=None)
    if w_min < -ATOL:
        raise NotPSD(f"min eigenvalue = {w_min:.3e}")
    return _clean_spectrum(w), v


def sqrtm(rho: DensityMatrix) -> np.ndarray:
    """Hermitian PSD square root, computed from the stored spectrum."""
    return _from_spectrum(np.sqrt(rho.eigenvalues), rho.eigenvectors)


def tensor(a: DensityMatrix, b: DensityMatrix) -> DensityMatrix:
    """Kronecker product; the first factor is the most significant index."""
    return validate_density(np.kron(a.mat, b.mat))


def partial_trace(rho: DensityMatrix, dims, keep) -> DensityMatrix:
    """Reduced state over the subsystems listed in ``keep``.

    ``dims`` lists the subsystem dimensions in big-endian order (first factor
    most significant); ``keep`` is a subsystem index or a set of indices.
    Kept subsystems stay in their original order.
    """
    dims = _subsystem_dims(rho, dims)
    n = len(dims)
    keep = sorted({_index(k, n) for k in (keep if np.iterable(keep) else [keep])})
    if not keep:
        raise DimensionMismatch("keep names no subsystem")
    return validate_density(_partial_trace(rho.mat, dims, keep))


def _partial_trace(mat: np.ndarray, dims: tuple, keep) -> np.ndarray:
    """Unvalidated ``partial_trace`` of a matrix or each in a stack onto the sorted ``keep``."""
    t = mat.reshape(-1, *dims, *dims)
    for idx in sorted(set(range(len(dims))) - set(keep), reverse=True):  # highest index first
        t = np.trace(t, axis1=1 + idx, axis2=(t.ndim + 1) // 2 + idx)
    d_keep = math.prod(dims[k] for k in keep)
    return t.reshape(mat.shape[:-2] + (d_keep, d_keep))


def pure_state(vec) -> DensityMatrix:
    """Rank-one state from a (not necessarily normalized) state vector."""
    v = _numeric(vec, complex, "expected a state vector").ravel()
    nrm = float(np.linalg.norm(v))
    if nrm == 0.0:
        raise DimensionMismatch("zero vector has no associated state")
    v = v / nrm
    return validate_density(np.outer(v, v.conj()))


def basis_state(dim: int, k: int) -> DensityMatrix:
    """Computational basis state |k><k|; ``k`` must be an integer in ``range(dim)``."""
    k = _index(k, _index(dim))
    v = np.zeros(dim)
    v[k] = 1.0
    return pure_state(v)


def maximally_coherent(dim: int) -> DensityMatrix:
    """Uniform-superposition pure state, entries all 1/dim."""
    return pure_state(np.ones(_dim(dim)))
