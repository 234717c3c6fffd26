"""Simulated measurement of the spectrum and the measurable coherence bounds.

The spectrum of a state is accessible without tomography: an interference
probe over n state copies measures Tr rho^n, and the power sums for
n = 1..N determine the eigenvalues through Newton's identities.  This module
samples the probe outcomes at finite shots (the outcome distribution is
exact, so no gate-level simulation is needed), recovers the spectrum, and
rebuilds the spectrum-plus-diagonal coherence quantities from the estimates,
the skew bounds through the same sandwich formula as ``skew_bounds``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coherence import _entropy_bits, _skew_sandwich, c_l2, c_rel_entropy
from .errors import DimensionMismatch
from .linalg import DensityMatrix, _count, _frozen, _numeric, _require_finite, _seed
from .rand import as_rng, child_rng

IMAG_TOL = 1e-6
WELL_CONDITIONED_DIM = 6


def exact_trace_powers(rho: DensityMatrix, max_n: int) -> np.ndarray:
    """[Tr rho, Tr rho^2, ..., Tr rho^max_n] from the stored spectrum."""
    w = rho.eigenvalues
    return np.array([float(np.sum(w**n)) for n in range(1, _count(max_n, 1, "max_n") + 1)])


@dataclass(frozen=True)
class ShotRecord:
    """Outcome counts of one finite-shot probe at power ``n``."""

    power: int
    shots: int
    plus_count: int

    @property
    def p_plus_hat(self) -> float:
        return self.plus_count / self.shots

    @property
    def trace_power_hat(self) -> float:
        return 2.0 * self.p_plus_hat - 1.0


def simulate_shots(rho: DensityMatrix, n: int, shots: int, rng) -> ShotRecord:
    """Sample the probe's +1 count: Binomial(shots, (1 + Tr rho^n)/2)."""
    n, shots = _count(n, 2, "probe power"), _count(shots, 1, "shot count")
    p_plus = float(np.clip((1.0 + np.sum(rho.eigenvalues**n)) / 2.0, 0.0, 1.0))
    plus = int(as_rng(rng).binomial(shots, p_plus))
    return ShotRecord(power=n, shots=shots, plus_count=plus)


@dataclass(frozen=True)
class SpectrumEstimate:
    """Eigenvalue estimates with the power-sum residuals of the recovery."""

    eigenvalues: np.ndarray  # descending, clipped to [0, 1], renormalized
    residuals: np.ndarray  # |sum lam_hat^n - p_n| for n = 1..N
    ill_conditioned: bool


def recover_spectrum(trace_powers) -> SpectrumEstimate:
    """Eigenvalues from the power sums p_n = Tr rho^n, n = 1..N (p_1 = 1).

    Newton's identities give the elementary symmetric polynomials, whose
    alternating sequence is the characteristic polynomial; its roots are the
    eigenvalue estimates.  Roots are projected to the real axis, clipped to
    [0, 1] and renormalized.  The conditioning flag is set when any root
    keeps an imaginary part above 1e-6 or when the dimension exceeds 6,
    where root finding from power sums degrades quickly.
    """
    p = _numeric(trace_powers, float, "power sums must be real numbers")
    n = p.size
    if p.ndim != 1 or n < 1:
        raise DimensionMismatch("need a list of power sums for n = 1..N")
    _require_finite(p)
    e, pf = [1.0], p.tolist()  # Python floats: numpy scalars cost more than the arithmetic
    for k in range(1, n + 1):
        acc = 0.0
        for m in range(1, k + 1):
            acc += (-1.0) ** (m - 1) * e[k - m] * pf[m - 1]
        e.append(acc / k)
    coeffs = [(-1.0) ** k * e[k] for k in range(n + 1)]
    roots = np.roots(coeffs)
    flagged = bool(n > WELL_CONDITIONED_DIM or np.any(np.abs(roots.imag) > IMAG_TOL))
    lam = np.clip(roots.real, 0.0, 1.0)
    total = lam.sum()
    if total > 0.0:
        lam = lam / total
    lam = np.sort(lam)[::-1]
    residuals = np.array([abs(float(np.sum(lam ** (m + 1))) - p[m]) for m in range(n)])
    return SpectrumEstimate(_frozen(lam), _frozen(residuals), flagged)


@dataclass(frozen=True)
class MeasurementEstimate:
    """Coherence quantities rebuilt from probe estimates.

    The diagonal entries are taken exact (ideal projective probes).  The
    cost counters record the probe budget: N-1 interference settings plus
    N-1 independent projector probabilities.
    """

    spectrum: SpectrumEstimate
    shot_records: tuple
    c_rel_hat: float
    c_l2_hat: float
    skew_bounds_hat: tuple
    swap_settings: int
    projector_probes: int

    def to_dict(self) -> dict:
        return {
            "eigenvalues_hat": [float(x) for x in self.spectrum.eigenvalues],
            "ill_conditioned": self.spectrum.ill_conditioned,
            "c_rel_hat": self.c_rel_hat,
            "c_l2_hat": self.c_l2_hat,
            "skew_bounds_hat": list(self.skew_bounds_hat),
            "swap_settings": self.swap_settings,
            "projector_probes": self.projector_probes,
            "shots": [
                {"power": r.power, "shots": r.shots, "plus_count": r.plus_count}
                for r in self.shot_records
            ],
        }


def estimate_measures(
    rho: DensityMatrix,
    shots_per_power: int,
    seed: int,
    exact_powers: bool = False,
) -> MeasurementEstimate:
    """Estimate the relative-entropy coherence and the measurable bounds.

    Powers n = 2..N come from seeded probe sampling (or exactly from the
    spectrum with ``exact_powers``); p_1 = 1 always.  Each power draws from
    its own child generator so estimates are reproducible per power.
    """
    seed = _seed(seed)
    # checked even when no power is sampled, as the seed is
    shots_per_power = _count(shots_per_power, 1, "shot count")
    nd = rho.dim
    if exact_powers:
        records, est = [], exact_trace_powers(rho, nd)
    else:
        records = [simulate_shots(rho, n, shots_per_power, child_rng(seed, n)) for n in range(2, nd + 1)]
        est = [1.0] + [r.trace_power_hat for r in records]
    spectrum = recover_spectrum(est)
    diag = rho.diag().copy()  # contiguous: diag @ diag of the strided view rounds otherwise
    lam = spectrum.eigenvalues
    purity_hat = float(np.sum(lam**2))
    c_l2_hat = purity_hat - float(diag @ diag)
    c_rel_hat = _entropy_bits(diag) - _entropy_bits(lam)
    return MeasurementEstimate(
        spectrum=spectrum,
        shot_records=tuple(records),
        c_rel_hat=c_rel_hat,
        c_l2_hat=c_l2_hat,
        skew_bounds_hat=_skew_sandwich(c_l2_hat, purity_hat),
        swap_settings=nd - 1,
        projector_probes=nd - 1,
    )


def true_measures(rho: DensityMatrix) -> dict:
    """Exact counterparts of the estimated quantities, for side-by-side output."""
    l2 = c_l2(rho)
    return {
        "eigenvalues": [float(x) for x in rho.eigenvalues],
        "c_rel": c_rel_entropy(rho),
        "c_l2": l2,
        "skew_bounds": list(_skew_sandwich(l2, rho.purity())),
    }
