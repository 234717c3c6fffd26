"""Fisher information of projector-generated phases and its coherence bounds.

For the phase family exp(-i phi |k><k|) rho exp(i phi |k><k|), the quantum
Fisher information per basis index is sandwiched between 4x and 8x the skew
information, so the summed inverse optimal phase variances of a full scan of
the basis are controlled by the coherence alone.  A report builds the
spectral ratio matrix and the per-index skew vector once for all indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coherence import _skew_per_k, c_skew, skew_info
from .errors import CountTooLarge
from .linalg import ATOL, ZERO_TOL, DensityMatrix, _count, _index


def qfi_projector(rho: DensityMatrix, k: int) -> float:
    """Quantum Fisher information for the phase generated by |k><k|.

    Spectral closed form ``2 sum_{ij} (l_i - l_j)^2 / (l_i + l_j) |<i|k>|^2
    |<j|k>|^2``; pairs with ``l_i + l_j`` below the cutoff contribute nothing
    (the generator cannot connect a doubly-dark pair).
    """
    a = np.abs(rho.eigenvectors[_index(k, rho.dim), :]) ** 2
    return float(2.0 * a @ _qfi_ratio(rho.eigenvalues) @ a)


def _qfi_ratio(w: np.ndarray) -> np.ndarray:
    """``(l_i - l_j)^2 / (l_i + l_j)``, zero where ``l_i + l_j`` is below the cutoff."""
    s = w[:, None] + w[None, :]
    num = (w[:, None] - w[None, :]) ** 2
    return np.divide(num, s, out=np.zeros_like(s), where=s > ZERO_TOL)


def skew_qfi_sandwich(rho: DensityMatrix, k: int) -> dict:
    """Check I <= F_Q/4 <= 2I for one basis index, each side within ``ATOL``."""
    i = skew_info(rho, k)
    fq = qfi_projector(rho, k)
    ok = (i <= fq / 4.0 + ATOL) and (fq / 4.0 <= 2.0 * i + ATOL)
    return {"skew": i, "qfi": fq, "ok": ok}


@dataclass(frozen=True)
class MetrologyReport:
    """Per-index Fisher data and the aggregated inverse-variance bounds."""

    n_runs: int
    per_k: tuple
    aggregate: dict

    def to_dict(self) -> dict:
        def no_inf(entry: dict) -> dict:
            return {k: None if isinstance(v, float) and math.isinf(v) else v
                    for k, v in entry.items()}

        return {
            "n_runs": self.n_runs,
            "per_k": [no_inf(e) for e in self.per_k],
            "aggregate": no_inf(self.aggregate),
        }


def metrology_report(rho: DensityMatrix, n_runs: int) -> MetrologyReport:
    """Cramer-Rao optima per index and the coherence-bounded aggregate.

    The optimal variance for index k is ``1/(N F_Qk)``; indices with zero
    Fisher information carry infinite variance, are flagged, and drop out of
    the inverse-variance sum (their contribution is genuinely zero).
    """
    n_runs = _count(n_runs, 1, "run count")
    try:
        n = float(n_runs)
    except OverflowError as exc:
        raise CountTooLarge(f"run count {n_runs} is above the largest float") from exc
    coh = c_skew(rho)
    ratio = _qfi_ratio(rho.eigenvalues)
    per_k = []
    excluded = []
    sum_inv = 0.0
    # qfi_projector per row of |V|^2: a batched (A @ ratio * A).sum(1) or einsum changes the bits
    for k, (i, a) in enumerate(zip(_skew_per_k(rho).tolist(), np.abs(rho.eigenvectors) ** 2)):
        fq = float(2.0 * a @ ratio @ a)
        finite = fq > ZERO_TOL
        if finite:
            sum_inv += n * fq
        else:
            excluded.append(k)
        per_k.append(
            {
                "skew": i,
                "qfi": fq,
                "var_opt": 1.0 / (n * fq) if finite else math.inf,
                "var_lower": 1.0 / (8.0 * n * i) if i > ZERO_TOL else math.inf,
                "var_upper": 1.0 / (4.0 * n * i) if i > ZERO_TOL else math.inf,
                "finite": finite,
            }
        )
    lower = 4.0 * n * coh
    upper = 8.0 * n * coh
    aggregate = {
        "sum_inv_var": sum_inv,
        "lower": lower,
        "upper": upper,
        "avg_var_lower": 1.0 / upper if upper > 0.0 else math.inf,
        "avg_var_upper": 1.0 / lower if lower > 0.0 else math.inf,
        "excluded_k": excluded,
        "ok": lower - ATOL <= sum_inv <= upper + ATOL,
    }
    return MetrologyReport(n_runs=n_runs, per_k=tuple(per_k), aggregate=aggregate)
