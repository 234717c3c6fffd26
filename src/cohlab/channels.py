"""Kraus channels, incoherence detection and the monotonicity harness."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coherence import Observable, _c_skew_of, _k_of, validate_observable
from .errors import (
    DimensionMismatch,
    IncompleteChannel,
    InfeasiblePattern,
    NegativeCount,
)
from .linalg import CHUNK_ENTRIES, DensityMatrix, _frozen, _index, _require_finite, _validated
from .linalg import validate_density
from .rand import _complex_normal, _ginibre, as_rng, child_rng, random_hermitian

COMPLETENESS_ATOL = 1e-9
SUPPORT_TOL = 1e-12
OUTCOME_TOL = 1e-12
MONOTONE_TOL = 1e-9
MAX_TRIES = 20  # amplitude draws random_incoherent_channel makes before giving up


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
    """Max-norm distance of sum_n M_n^dag M_n from the identity."""
    ops = np.asarray(ops, dtype=complex)
    acc = (ops.conj().swapaxes(-1, -2) @ ops).sum(axis=0)
    return float(np.abs(acc - np.eye(ops.shape[-1])).max())


def validate_channel(ops) -> KrausChannel:
    """Copy ``ops`` into one frozen stack; operators that are not 2-D of one shape raise
    ``DimensionMismatch``, an empty set or one incomplete beyond ``COMPLETENESS_ATOL``
    ``IncompleteChannel``."""
    try:
        ops = np.array(ops, dtype=complex)
    except ValueError as exc:  # ragged shapes
        raise DimensionMismatch(f"Kraus operators must share one shape: {exc}") from exc
    if ops.shape[:1] == (0,):
        raise IncompleteChannel("channel needs at least one Kraus operator")
    if ops.ndim != 3 or 0 in ops.shape:
        raise DimensionMismatch(f"expected a stack of 2-D Kraus operators, got shape {ops.shape}")
    _require_finite(ops)
    res = completeness_residual(ops)
    if res > COMPLETENESS_ATOL:
        raise IncompleteChannel(f"completeness residual {res:.3e} exceeds {COMPLETENESS_ATOL:.1e}")
    return KrausChannel(_frozen(ops))


def is_incoherent(ch: KrausChannel) -> bool:
    """True iff every Kraus operator maps each basis column into a single ray.

    At most one entry per column may exceed ``SUPPORT_TOL`` in modulus; this is
    the exact condition for the operator to keep every diagonal state diagonal.
    """
    return not np.any((np.abs(ch.operators) > SUPPORT_TOL).sum(axis=1) > 1)


def _terms(ch: KrausChannel, rho: DensityMatrix) -> np.ndarray:
    """Stack of the unnormalized outcomes M_n rho M_n^dag."""
    if ch.dim_in != rho.dim:
        raise DimensionMismatch(f"channel input dim {ch.dim_in} != state dim {rho.dim}")
    return ch.operators @ rho.mat @ ch.operators.conj().swapaxes(-1, -2)


def apply(ch: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    """Deterministic channel action sum_n M_n rho M_n^dag."""
    return validate_density(_terms(ch, rho).sum(axis=0))


def apply_selective(ch: KrausChannel, rho: DensityMatrix) -> list:
    """Selective action: normalized outcome per Kraus operator.

    Outcomes with probability below 1e-12 are dropped (the normalized state
    is undefined at zero probability).
    """
    terms = _terms(ch, rho)
    probs = terms.trace(axis1=1, axis2=2).real.tolist()
    return [SelectiveOutcome(p, validate_density(t / p))
            for p, t in zip(probs, terms) if p >= OUTCOME_TOL]


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
    is the caller's claim to assert.  Both verdicts allow ``MONOTONE_TOL``.
    """
    if ch.dim_in != rho.dim:
        raise DimensionMismatch(f"channel input dim {ch.dim_in} != state dim {rho.dim}")
    ks = None
    if measure == "k":
        if observable is None:
            raise DimensionMismatch("measure 'k' needs an observable")
        if not observable.dim == ch.dim_out == rho.dim:
            raise DimensionMismatch(f"observable dim {observable.dim} != state dim {rho.dim}")
        ks = observable.mat[None]
    state = (rho.mat[None], rho.eigenvalues[None], rho.eigenvectors[None])
    return _verdicts([ch.operators], *state, measure, ks)[0]


def _verdicts(ops_list, mat, w, v, measure: str, ks) -> list:
    """Verdict of each validated state ``(mat[j], w[j], v[j])`` under the Kraus stack ``ops_list[j]``.

    ``ks[j]`` is the observable of state ``j`` for the ``"k"`` measure.  The
    outcomes of all states are validated as one stack, and so are the channel
    outputs; the average over outcomes is a Python sum in outcome order.
    """
    if measure == "skew":
        coherence = lambda mat, w, v, owners: _c_skew_of(w, v)
    elif measure == "k":
        coherence = lambda mat, w, v, owners: _k_of(mat, w, v, ks[owners])
    else:
        raise DimensionMismatch(f"unknown measure {measure!r}")
    counts = [len(ops) for ops in ops_list]
    owner = np.repeat(np.arange(len(counts)), counts)
    ops = np.concatenate(ops_list)
    terms = ops @ mat[owner] @ ops.conj().swapaxes(-1, -2)
    probs = terms.trace(axis1=-2, axis2=-1).real
    kept = probs >= OUTCOME_TOL
    outcomes = _validated(terms[kept] / probs[kept, None, None])
    # sum(axis=0) per sample: np.add.reduceat sums in another order and changes the bits
    after = _validated(np.stack([t.sum(axis=0) for t in np.split(terms, np.cumsum(counts[:-1]))]))
    samples = np.arange(len(counts))
    c_before = coherence(mat, w, v, samples).tolist()
    c_after = coherence(*after, samples).tolist()
    kept_owner = owner[kept]
    weighted = [[] for _ in counts]
    for j, pc in zip(kept_owner.tolist(), (probs[kept] * coherence(*outcomes, kept_owner)).tolist()):
        weighted[j].append(pc)
    c_avg = [float(sum(pcs)) for pcs in weighted]
    return [
        MonotonicityVerdict(b, a, f, strong_ok=a <= b + MONOTONE_TOL, weak_ok=f <= b + MONOTONE_TOL)
        for b, a, f in zip(c_before, c_avg, c_after)
    ]


def random_incoherent_channel(dim: int, n_kraus: int, rng) -> KrausChannel:
    """Random incoherent channel with ``n_kraus`` operators.

    Each operator gets an independent permutation support pattern with random
    complex amplitudes; per-column normalization across operators enforces
    completeness exactly while preserving the single-entry columns.
    """
    dim, n_kraus = _index(dim), _index(n_kraus)
    if n_kraus < 1:
        raise InfeasiblePattern("need at least one Kraus operator")
    rng = as_rng(rng)
    for _ in range(MAX_TRIES):
        # row n draws the same values as the n-th rng.permutation(dim) call
        rows = rng.permuted(np.tile(np.arange(dim), (n_kraus, 1)), axis=1)
        amps = _complex_normal(rng, (n_kraus, dim))
        norms = np.sqrt((np.abs(amps) ** 2).sum(axis=0))
        if norms.min() < 1e-6:
            continue
        ops = np.zeros((n_kraus, dim, dim), dtype=complex)
        ops[np.arange(n_kraus)[:, None], rows, np.arange(dim)] = amps / norms
        return validate_channel(ops)
    raise InfeasiblePattern(f"no valid amplitude pattern after {MAX_TRIES} tries")


def random_channel(dim: int, n_kraus: int, rng) -> KrausChannel:
    """Random general (not necessarily incoherent) channel.

    Ginibre blocks normalized jointly by (sum_n A_n^dag A_n)^(-1/2).
    """
    dim, n_kraus = _index(dim), _index(n_kraus)
    if n_kraus < 1:  # before normalize_kraus divides by the empty sum
        raise IncompleteChannel("channel needs at least one Kraus operator")
    # block n draws its real then its imaginary part, as _complex_normal does
    g = as_rng(rng).standard_normal((n_kraus, 2, dim, dim))
    return validate_channel(normalize_kraus(g[:, 0] + 1j * g[:, 1]))


def normalize_kraus(ops) -> np.ndarray:
    """Right-multiply every operator by (sum_n A_n^dag A_n)^(-1/2).

    Returns the ``(n, d_out, d_in)`` stack of results, which satisfy
    completeness; where the correction is diagonal, each operator keeps its
    support pattern.
    """
    a = np.asarray(ops)
    w, v = np.linalg.eigh((a.conj().swapaxes(-1, -2) @ a).sum(axis=0))
    return a @ ((v / np.sqrt(w)) @ v.conj().T)


def monotonicity_sweep(
    measure: str,
    samples: int,
    dim: int,
    seed: int,
    n_kraus: int | None = None,
) -> list:
    """Seeded sweep of monotonicity checks over random incoherent channels, in chunks.

    Sample ``i`` draws everything from its own child generator: the channel,
    a Ginibre state and (for the ``"k"`` measure) a random observable.
    Returns one ``MonotonicityVerdict`` per sample, in sample order, each
    equal to ``monotonicity_check`` of that sample.
    """
    samples, dim = _index(samples), _index(dim)
    if samples < 0:
        raise NegativeCount(f"sample count {samples} is negative")
    if dim < 1:
        raise DimensionMismatch(f"dimension {dim} is not positive")
    # the outcome stack, up to max_kraus * dim^2 entries per sample, is the largest
    chunk = max(1, CHUNK_ENTRIES // ((n_kraus or dim + 1) * dim * dim))
    verdicts = []
    for start in range(0, samples, chunk):
        ops, states, ks = [], [], []
        for i in range(start, min(start + chunk, samples)):
            rng = child_rng(seed, i)
            nk = n_kraus if n_kraus is not None else int(rng.integers(1, dim + 2))
            ops.append(random_incoherent_channel(dim, nk, rng).operators)
            states.append(_ginibre(dim, rng))
            if measure == "k":
                ks.append(validate_observable(random_hermitian(dim, rng)).mat)
        verdicts += _verdicts(ops, *_validated(np.stack(states)), measure, np.array(ks))
    return verdicts
