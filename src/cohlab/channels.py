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
from .linalg import DensityMatrix, _require_finite, validate_density
from .parallel import indexed_map
from .rand import as_rng, child_rng, ginibre_mixed, random_hermitian, _complex_normal

COMPLETENESS_ATOL = 1e-9
SUPPORT_TOL = 1e-12
OUTCOME_TOL = 1e-12
MONOTONE_TOL = 1e-9


@dataclass(frozen=True)
class KrausChannel:
    """Ordered Kraus operators with verified completeness."""

    operators: tuple
    dim_in: int
    dim_out: int


@dataclass(frozen=True)
class SelectiveOutcome:
    probability: float
    state: DensityMatrix


def completeness_residual(ops) -> float:
    """Max-norm distance of sum_n M_n^dag M_n from the identity."""
    ops = [np.asarray(m, dtype=complex) for m in ops]
    acc = sum(m.conj().T @ m for m in ops)
    return float(np.abs(acc - np.eye(ops[0].shape[1])).max())


def validate_channel(ops, atol: float = COMPLETENESS_ATOL) -> KrausChannel:
    ops = tuple(np.asarray(m, dtype=complex) for m in ops)
    if not ops:
        raise IncompleteChannel("channel needs at least one Kraus operator")
    dim_out, dim_in = ops[0].shape
    for m in ops:
        if m.ndim != 2 or m.shape != (dim_out, dim_in):
            raise DimensionMismatch(f"inconsistent Kraus shapes: {[m.shape for m in ops]}")
        _require_finite(m)
    res = completeness_residual(ops)
    if res > atol:
        raise IncompleteChannel(f"completeness residual {res:.3e} exceeds {atol:.1e}")
    frozen = []
    for m in ops:
        m = m.copy()
        m.setflags(write=False)
        frozen.append(m)
    return KrausChannel(tuple(frozen), dim_in, dim_out)


def is_incoherent(ch: KrausChannel, tol: float = SUPPORT_TOL) -> bool:
    """True iff every Kraus operator maps each basis column into a single ray.

    At most one entry per column may exceed ``tol`` in modulus; this is the
    exact condition for the operator to keep every diagonal state diagonal.
    """
    for m in ch.operators:
        if np.any((np.abs(m) > tol).sum(axis=0) > 1):
            return False
    return True


def apply(ch: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    """Deterministic channel action sum_n M_n rho M_n^dag."""
    if ch.dim_in != rho.dim:
        raise DimensionMismatch(f"channel input dim {ch.dim_in} != state dim {rho.dim}")
    out = sum(m @ rho.mat @ m.conj().T for m in ch.operators)
    return validate_density(out)


def apply_selective(ch: KrausChannel, rho: DensityMatrix) -> list:
    """Selective action: normalized outcome per Kraus operator.

    Outcomes with probability below 1e-12 are dropped (the normalized state
    is undefined at zero probability).
    """
    if ch.dim_in != rho.dim:
        raise DimensionMismatch(f"channel input dim {ch.dim_in} != state dim {rho.dim}")
    outcomes = []
    for m in ch.operators:
        t = m @ rho.mat @ m.conj().T
        p = float(t.trace().real)
        if p < OUTCOME_TOL:
            continue
        outcomes.append(SelectiveOutcome(p, validate_density(t / p)))
    return outcomes


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
    outcomes = apply_selective(ch, rho)
    c_avg = float(sum(o.probability * f(o.state) for o in outcomes))
    c_after = f(apply(ch, rho))
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
        rows = [rng.permutation(dim) for _ in range(n_kraus)]
        amps = _complex_normal(rng, (n_kraus, dim))
        norms = np.sqrt((np.abs(amps) ** 2).sum(axis=0))
        if norms.min() < 1e-6:
            continue
        amps = amps / norms
        ops = []
        for n in range(n_kraus):
            m = np.zeros((dim, dim), dtype=complex)
            m[rows[n], np.arange(dim)] = amps[n]
            ops.append(m)
        return validate_channel(ops)
    raise InfeasiblePattern(f"no valid amplitude pattern after {max_tries} tries")


def random_channel(dim: int, n_kraus: int, rng) -> KrausChannel:
    """Random general (not necessarily incoherent) channel.

    Ginibre blocks normalized jointly by (sum_n A_n^dag A_n)^(-1/2).
    """
    rng = as_rng(rng)
    blocks = [_complex_normal(rng, (dim, dim)) for _ in range(n_kraus)]
    return validate_channel(normalize_kraus(blocks))


def normalize_kraus(ops) -> list:
    """Right-multiply every operator by (sum_n A_n^dag A_n)^(-1/2).

    The results satisfy completeness; where the correction is diagonal, each
    operator keeps its support pattern.
    """
    g = sum(a.conj().T @ a for a in ops)
    w, v = np.linalg.eigh(g)
    g_isqrt = (v / np.sqrt(w)) @ v.conj().T
    return [a @ g_isqrt for a in ops]


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

    return indexed_map(one, samples)
