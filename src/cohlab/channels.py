"""Kraus channels, incoherence detection and the monotonicity harness."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coherence import Observable, _c_skew_of, _k_of
from .errors import DimensionMismatch, IncompleteChannel
from .linalg import ATOL, ZERO_TOL, DensityMatrix, _chunks, _count, _dim, _frozen, _from_spectrum
from .linalg import _hermitian_part, _numeric, _require_finite, _seed, _spectrum
from .linalg import _validated, validate_density
from .rand import _child_rngs, _normalized_gram, as_rng

@dataclass(frozen=True)
class KrausChannel:
    """Read-only ``(n, dim_out, dim_in)`` stack of Kraus operators with verified completeness."""

    operators: np.ndarray

    @property
    def dim_in(self) -> int:
        return self.operators.shape[2]

    @property
    def dim_out(self) -> int:
        return self.operators.shape[1]


@dataclass(frozen=True)
class SelectiveOutcome:
    probability: float
    state: DensityMatrix


def completeness_residual(ops) -> float:
    """Max-norm distance of sum_n M_n^dag M_n from the identity, ``ops`` checked as in
    ``validate_channel``."""
    return float(_residuals(_kraus_stack(ops)))


def _residuals(ops: np.ndarray) -> np.ndarray:
    """``completeness_residual`` of the Kraus stack ``ops``, or of each in a stack of them."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing set gives inf or NaN
        gram = (ops.conj().swapaxes(-1, -2) @ ops).sum(axis=-3)
        return np.abs(gram - np.eye(ops.shape[-1])).max(axis=(-2, -1))


def _require_complete(ops: np.ndarray):
    res = float(_residuals(ops).max())
    if not res <= ATOL:  # a NaN residual fails too
        raise IncompleteChannel(f"completeness residual {res:.3e} exceeds {ATOL:.1e}")


def _kraus_stack(ops) -> np.ndarray:
    """``ops`` as a finite complex ``(n, d_out, d_in)`` stack; operators that are not numeric
    and 2-D of one shape raise ``DimensionMismatch``, an empty set ``IncompleteChannel``."""
    ops = _numeric(ops, complex, "expected numeric Kraus operators of one shape")
    if ops.shape[:1] == (0,):
        raise IncompleteChannel("channel needs at least one Kraus operator")
    if ops.ndim != 3 or 0 in ops.shape:
        raise DimensionMismatch(f"expected a stack of 2-D Kraus operators, got shape {ops.shape}")
    _require_finite(ops)
    return ops


def validate_channel(ops) -> KrausChannel:
    """Copy ``ops``, checked by ``_kraus_stack``, into one frozen stack; a set incomplete
    beyond ``ATOL`` raises ``IncompleteChannel``."""
    ops = _kraus_stack(ops).copy()
    _require_complete(ops)
    return KrausChannel(_frozen(ops))


def is_incoherent(ch: KrausChannel) -> bool:
    """True iff every Kraus operator maps each basis column into a single ray.

    At most one entry per column may exceed ``ZERO_TOL`` in modulus; this is
    the exact condition for the operator to keep every diagonal state diagonal.
    """
    return not np.any((np.abs(ch.operators) > ZERO_TOL).sum(axis=1) > 1)


def _terms(ops: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """Stack of the unnormalized outcomes M_n rho M_n^dag; broadcasts over stacks of both."""
    if ops.shape[-1] != mat.shape[-1]:
        raise DimensionMismatch(f"channel input dim {ops.shape[-1]} != state dim {mat.shape[-1]}")
    return ops @ mat @ ops.conj().swapaxes(-1, -2)


def apply(ch: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    """Deterministic channel action sum_n M_n rho M_n^dag."""
    return validate_density(_terms(ch.operators, rho.mat).sum(axis=0))


def apply_selective(ch: KrausChannel, rho: DensityMatrix) -> list:
    """Selective action: normalized outcome per Kraus operator.

    Outcomes with probability below ``ZERO_TOL`` are dropped (the normalized state
    is undefined at zero probability).
    """
    terms = _terms(ch.operators, rho.mat)
    probs = terms.trace(axis1=1, axis2=2).real.tolist()
    return [SelectiveOutcome(p, validate_density(t / p))
            for p, t in zip(probs, terms) if p >= ZERO_TOL]


@dataclass(frozen=True)
class MonotonicityVerdict:
    c_before: float
    c_avg_after: float
    c_after: float
    strong_ok: bool
    weak_ok: bool


def monotonicity_check(
    ch: KrausChannel,
    rho: DensityMatrix,
    measure: str = "skew",
    observable: Observable | None = None,
) -> MonotonicityVerdict:
    """Evaluate strong and weak monotonicity of a measure under one channel.

    ``measure`` selects the projector-summed skew measure (``"skew"``) or the
    full-observable variant (``"k"``, requires ``observable``).  The check
    runs for any channel and records the verdict; incoherence of the channel
    is the caller's claim to assert.  Both verdicts allow ``ATOL``.
    """
    ks = None
    if _require_measure(measure) == "k":
        if observable is None:
            raise DimensionMismatch("measure 'k' needs an observable")
        if not observable.dim == ch.dim_out == rho.dim:
            raise DimensionMismatch(f"observable dim {observable.dim} != state dim {rho.dim}")
        ks = observable.mat[None]
    state = (rho.mat[None], rho.eigenvalues[None], rho.eigenvectors[None])
    return _verdicts(ch.operators[None], *state, ks)[0]


def _require_measure(measure: str) -> str:
    """``measure`` if it is ``"skew"`` or ``"k"``, else ``DimensionMismatch``."""
    if measure not in ("skew", "k"):
        raise DimensionMismatch(f"unknown measure {measure!r}")
    return measure


def _coherence(w, v, ks, mat=None) -> np.ndarray:
    """c_skew of each validated state ``(w[j], v[j])``, or with observables its k_coherence under
    ``ks[j]``, the matrices ``mat`` rebuilt from the spectra when not given."""
    if ks is None:
        return _c_skew_of(w, v)
    return _k_of(_from_spectrum(w, v) if mat is None else mat, w, v, ks)


def _verdicts(ops, mat, w, v, ks) -> list:
    """Verdict of each validated state ``(mat[j], w[j], v[j])`` under its channel ``ops[j]``.

    ``ops`` is one ``(m, K, d, d)`` stack, ``K = d + 1`` for a sweep chunk; a
    channel with fewer than ``K`` operators ends in zero operators, whose
    outcomes fall below ``ZERO_TOL`` and whose terms add zeros after the
    real ones, so each verdict keeps the bits of its channel alone.  ``ks[j]``
    is the observable of state ``j`` for the ``"k"`` measure, and ``ks`` None
    selects c_skew.  The channel outputs of all states and their kept outcomes
    are validated as one stack, and one coherence call scores it; the average
    over outcomes is a Python sum in outcome order.
    """
    m = len(ops)
    terms = _terms(ops, mat[:, None])
    probs = terms.trace(axis1=-2, axis2=-1).real
    kept = probs >= ZERO_TOL
    stack = np.concatenate([terms.sum(axis=1), terms[kept] / probs[kept, None, None]])
    owners = np.concatenate([np.arange(m), np.nonzero(kept)[0]])  # the state of each entry
    c_out = _coherence(*_spectrum(stack), ks if ks is None else ks[owners])
    c_before = _coherence(w, v, ks, mat).tolist()
    weighted = np.zeros(probs.shape)  # p C of each kept outcome, 0.0 (adds nothing) elsewhere
    weighted[kept] = probs[kept] * c_out[m:]
    c_avg = [sum(row) for row in weighted.tolist()]
    return [
        MonotonicityVerdict(b, a, f, strong_ok=a <= b + ATOL, weak_ok=f <= b + ATOL)
        for b, a, f in zip(c_before, c_avg, c_out[:m].tolist())
    ]


def random_incoherent_channel(dim: int, n_kraus: int, rng) -> KrausChannel:
    """Random incoherent channel with ``n_kraus`` operators.

    Each operator gets an independent permutation support pattern, the values
    of one ``rng.permutation(dim)``, and one call then draws the real, then
    the imaginary parts of the complex amplitudes.  ``_incoherent_ops``, which
    builds each ``monotonicity_sweep`` chunk's ``(m, dim + 1, dim, dim)``
    stack, builds the channel from a stack of this one draw: it normalizes
    each column across operators, which enforces completeness exactly while
    preserving the single-entry columns.
    """
    dim, n_kraus = _dim(dim), _count(n_kraus, 1, "Kraus count")
    rng = as_rng(rng)
    rows = rng.permuted(np.tile(np.arange(dim), (n_kraus, 1)), axis=1)
    z = rng.standard_normal((2, n_kraus, dim))
    return KrausChannel(_frozen(_incoherent_ops(rows[None], (z[0] + 1j * z[1])[None])[0]))


def _incoherent_ops(rows: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """``(m, K, dim, dim)`` Kraus stack of the incoherent channels drawn as ``(rows, amps)``.

    Operator ``n`` of channel ``j`` maps column ``c`` to row ``rows[j, n, c]``
    with amplitude ``amps[j, n, c]`` over the norm of column ``c`` across the
    channel's operators; zero amplitudes give the zero operators that pad a
    channel to ``K``.  As in ``validate_channel``, non-finite entries raise
    ``NotFinite`` and a completeness residual beyond ``ATOL``
    raises ``IncompleteChannel``.
    """
    m, k, dim = amps.shape
    ops = np.zeros((m, k, dim, dim), dtype=complex)
    norms = np.sqrt((np.abs(amps) ** 2).sum(axis=1))[:, None]
    ops[np.arange(m)[:, None, None], np.arange(k)[:, None], rows, np.arange(dim)] = amps / norms
    _require_finite(ops)
    _require_complete(ops)
    return ops


def random_channel(dim: int, n_kraus: int, rng) -> KrausChannel:
    """Random general (not necessarily incoherent) channel.

    Ginibre blocks normalized jointly by (sum_n A_n^dag A_n)^(-1/2).
    """
    dim, n_kraus = _dim(dim), _count(n_kraus, 1, "Kraus count")
    # block n draws its real then its imaginary part, as _complex_normal does
    g = as_rng(rng).standard_normal((n_kraus, 2, dim, dim))
    return validate_channel(normalize_kraus(g[:, 0] + 1j * g[:, 1]))


def normalize_kraus(ops) -> np.ndarray:
    """Right-multiply every operator by (sum_n A_n^dag A_n)^(-1/2).

    Returns the ``(n, d_out, d_in)`` stack of results, which satisfy
    completeness; where the correction is diagonal, each operator keeps its
    support pattern.  ``ops`` is checked as in ``validate_channel``, and a sum
    whose smallest eigenvalue is not positive raises ``IncompleteChannel``.
    """
    a = _kraus_stack(ops)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing set gives NaN eigenvalues
        w, v = np.linalg.eigh((a.conj().swapaxes(-1, -2) @ a).sum(axis=0))
    if not w[0] > 0:  # a NaN eigenvalue fails too
        raise IncompleteChannel(f"sum of A_n^dag A_n has smallest eigenvalue {w[0]:.3e}")
    return a @ ((v / np.sqrt(w)) @ v.conj().T)


def monotonicity_sweep(measure: str, samples: int, dim: int, seed: int) -> list:
    """Seeded sweep of monotonicity checks over random incoherent channels, in chunks.

    Sample ``i`` draws everything from its own child generator: a Kraus count
    in ``1..dim+1``, the channel's supports and amplitudes, a Ginibre factor
    and (for the ``"k"`` measure) the Hermitian part of a complex normal
    matrix as its observable, in the order of ``random_incoherent_channel``
    and ``ginibre_mixed``.
    Each draw is written straight into its chunk's arrays, and the channels,
    states and observables are then built, validated and evaluated once per
    chunk; the chunk's channels form one ``(m, dim + 1, d, d)`` Kraus stack,
    in which a channel with fewer operators ends in zero operators.
    ``_child_rngs`` seeds each chunk's generators at once.  Returns one
    ``MonotonicityVerdict`` per sample, in sample order, each equal to
    ``monotonicity_check`` of that sample.  The seed and the measure are
    checked before anything is drawn.
    """
    seed = _seed(seed)
    _require_measure(measure)
    samples, dim = _count(samples, 0, "sample count"), _dim(dim)
    tiles = [np.tile(np.arange(dim), (nk, 1)) for nk in range(dim + 2)]  # nk rows of arange(dim)
    factors = 2 if measure == "k" else 1  # the Ginibre factor, then the observable's
    tail = factors * 2 * dim * dim  # their complex normals, real parts before imaginary parts
    verdicts = []
    # the outcome stack, up to (dim + 1) * dim^2 entries per sample, is the largest
    for chunk in _chunks(samples, (dim + 1) * dim * dim):
        m = len(chunk)
        rows = np.zeros((m, dim + 1, dim), dtype=int)  # slots past a sample's count stay zero
        normals = np.zeros((m, 2, dim + 1, dim))  # real, then imaginary parts of the amplitudes
        tails = np.empty((m, factors, 2, dim, dim))
        # each sample's Kraus count, its supports, then its channel and tail normals in one call
        for j, rng in enumerate(_child_rngs(seed, chunk)):
            nk = int(rng.integers(1, dim + 2))
            rows[j, :nk] = rng.permuted(tiles[nk], axis=1)
            z = rng.standard_normal(2 * nk * dim + tail)
            normals[j, :, :nk] = z[:-tail].reshape(2, nk, dim)
            tails[j] = z[-tail:].reshape(factors, 2, dim, dim)
        g = tails[:, :, 0] + 1j * tails[:, :, 1]
        states = _validated(_normalized_gram(g[:, 0]))
        ks = _hermitian_part(g[:, 1]) if factors == 2 else None
        ops = _incoherent_ops(rows, normals[:, 0] + 1j * normals[:, 1])
        verdicts += _verdicts(ops, *states, ks)
    return verdicts
