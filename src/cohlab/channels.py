"""Kraus channels, incoherence detection and the monotonicity harness."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coherence import Observable, c_skew, k_coherence, validate_observable
from .errors import (
    DimensionMismatch,
    IncompleteChannel,
    InfeasiblePattern,
    NegativeCount,
)
from .linalg import DensityMatrix, _frozen, _require_finite, validate_density
from .rand import as_rng, child_rng, ginibre_mixed, random_hermitian, _complex_normal

COMPLETENESS_ATOL = 1e-9
SUPPORT_TOL = 1e-12
OUTCOME_TOL = 1e-12
MONOTONE_TOL = 1e-9


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


def validate_channel(ops, atol: float = COMPLETENESS_ATOL) -> KrausChannel:
    """Copy ``ops`` into one frozen stack; operators that are not 2-D of one shape raise
    ``DimensionMismatch``, an empty or incomplete set ``IncompleteChannel``."""
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
    if res > atol:
        raise IncompleteChannel(f"completeness residual {res:.3e} exceeds {atol:.1e}")
    return KrausChannel(_frozen(ops))


def is_incoherent(ch: KrausChannel, tol: float = SUPPORT_TOL) -> bool:
    """True iff every Kraus operator maps each basis column into a single ray.

    At most one entry per column may exceed ``tol`` in modulus; this is the
    exact condition for the operator to keep every diagonal state diagonal.
    """
    return not np.any((np.abs(ch.operators) > tol).sum(axis=1) > 1)


def _terms(ch: KrausChannel, rho: DensityMatrix) -> np.ndarray:
    """Stack of the unnormalized outcomes M_n rho M_n^dag."""
    if ch.dim_in != rho.dim:
        raise DimensionMismatch(f"channel input dim {ch.dim_in} != state dim {rho.dim}")
    return ch.operators @ rho.mat @ ch.operators.conj().swapaxes(-1, -2)


def _outcomes(terms: np.ndarray) -> list:
    """Normalized outcomes of a term stack, dropping those below ``OUTCOME_TOL``."""
    probs = terms.trace(axis1=1, axis2=2).real.tolist()
    return [SelectiveOutcome(p, validate_density(t / p))
            for p, t in zip(probs, terms) if p >= OUTCOME_TOL]


def apply(ch: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    """Deterministic channel action sum_n M_n rho M_n^dag."""
    return validate_density(_terms(ch, rho).sum(axis=0))


def apply_selective(ch: KrausChannel, rho: DensityMatrix) -> list:
    """Selective action: normalized outcome per Kraus operator.

    Outcomes with probability below 1e-12 are dropped (the normalized state
    is undefined at zero probability).
    """
    return _outcomes(_terms(ch, rho))


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
    tol: float = MONOTONE_TOL,
) -> MonotonicityVerdict:
    """Evaluate strong and weak monotonicity of a measure under one channel.

    ``measure`` selects the projector-summed skew measure (``"skew"``) or the
    full-observable variant (``"k"``, requires ``observable``).  The check
    runs for any channel and records the verdict; incoherence of the channel
    is the caller's claim to assert.
    """
    if measure == "skew":
        f = c_skew
    elif measure == "k":
        if observable is None:
            raise DimensionMismatch("measure 'k' needs an observable")
        f = lambda r: k_coherence(r, observable)
    else:
        raise DimensionMismatch(f"unknown measure {measure!r}")
    c_before = f(rho)
    terms = _terms(ch, rho)
    c_avg = float(sum(o.probability * f(o.state) for o in _outcomes(terms)))
    c_after = f(validate_density(terms.sum(axis=0)))
    return MonotonicityVerdict(
        c_before=c_before,
        c_avg_after=c_avg,
        c_after=c_after,
        strong_ok=c_avg <= c_before + tol,
        weak_ok=c_after <= c_before + tol,
    )


def random_incoherent_channel(dim: int, n_kraus: int, rng, max_tries: int = 20) -> KrausChannel:
    """Random incoherent channel with ``n_kraus`` operators.

    Each operator gets an independent permutation support pattern with random
    complex amplitudes; per-column normalization across operators enforces
    completeness exactly while preserving the single-entry columns.
    """
    if n_kraus < 1:
        raise InfeasiblePattern("need at least one Kraus operator")
    rng = as_rng(rng)
    for _ in range(max_tries):
        # row n draws the same values as the n-th rng.permutation(dim) call
        rows = rng.permuted(np.tile(np.arange(dim), (n_kraus, 1)), axis=1)
        amps = _complex_normal(rng, (n_kraus, dim))
        norms = np.sqrt((np.abs(amps) ** 2).sum(axis=0))
        if norms.min() < 1e-6:
            continue
        ops = np.zeros((n_kraus, dim, dim), dtype=complex)
        ops[np.arange(n_kraus)[:, None], rows, np.arange(dim)] = amps / norms
        return validate_channel(ops)
    raise InfeasiblePattern(f"no valid amplitude pattern after {max_tries} tries")


def random_channel(dim: int, n_kraus: int, rng) -> KrausChannel:
    """Random general (not necessarily incoherent) channel.

    Ginibre blocks normalized jointly by (sum_n A_n^dag A_n)^(-1/2).
    """
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
    """Seeded sweep of monotonicity checks over random incoherent channels.

    Sample ``i`` draws everything from its own child generator: the channel,
    a Ginibre state and (for the ``"k"`` measure) a random observable.
    Returns one ``MonotonicityVerdict`` per sample, in sample order.
    """
    if samples < 0:
        raise NegativeCount(f"sample count {samples} is negative")

    def one(i: int) -> MonotonicityVerdict:
        rng = child_rng(seed, i)
        nk = n_kraus if n_kraus is not None else int(rng.integers(1, dim + 2))
        ch = random_incoherent_channel(dim, nk, rng)
        rho = ginibre_mixed(dim, rng)
        obs = None
        if measure == "k":
            obs = validate_observable(random_hermitian(dim, rng))
        return monotonicity_check(ch, rho, measure=measure, observable=obs)

    return [one(i) for i in range(samples)]
