"""Bundled reference scenarios with externally established expected values.

The matrices are stored exactly as printed in their source (four decimals),
so some of them need numerical care: the 3x3 channel's operators satisfy
completeness only to ~7e-5 and are repaired jointly, and the two-qubit
component vectors are renormalized with the orthogonality residual recorded
rather than assumed.  ``fixture_report`` recomputes every quantity of
interest and compares it to the expected value at the stated tolerance;
rows that cannot be reproduced from the printed inputs report ok=False.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import KrausChannel, apply, monotonicity_check, normalize_kraus, validate_channel
from .coherence import Observable, c_skew, validate_observable
from .discord import discord_sym, generalized_cnot
from .errors import UnknownFixture
from .linalg import (
    DensityMatrix,
    basis_state,
    maximally_coherent,
    partial_trace,
    tensor,
    validate_density,
)

# 3x3 state, incoherent two-operator channel and diagonal observable for which
# the observable-weighted measure violates both monotonicity criteria.
COUNTEREXAMPLE_RHO = np.array(
    [
        [0.6309, 0.0359, 0.0858],
        [0.0359, 0.0441, 0.1189],
        [0.0858, 0.1189, 0.3250],
    ]
)
COUNTEREXAMPLE_M1 = np.array(
    [
        [0.0, 0.3, 0.0],
        [0.0, 0.0, 0.5],
        [0.7, 0.0, 0.0],
    ]
)
COUNTEREXAMPLE_M2 = np.array(
    [
        [0.0, 0.0, 0.8660],
        [0.0, 0.9539, 0.0],
        [0.7141, 0.0, 0.0],
    ]
)
COUNTEREXAMPLE_K = np.diag([1.0, 7.0, 5.0])

# Two-qubit mixture violating the pure-state product form.  The first vector
# is stored with second amplitude -0.0982: the rendering -0.982 seen in some
# transcriptions breaks unit norm (1.398) and orthogonality (-0.116) and
# reproduces none of the reference coherences; this reading restores all.
QUBIT_MIX_P = 0.0443
QUBIT_MIX_PSI1 = np.array([-0.5612, -0.0982, 0.8119, 0.1272])
QUBIT_MIX_PSI2 = np.array([0.8006, 0.1842, 0.5556, 0.1283])


def printed_counterexample_ops() -> tuple[np.ndarray, np.ndarray]:
    """The channel operators exactly as printed, before repair."""
    return COUNTEREXAMPLE_M1.copy(), COUNTEREXAMPLE_M2.copy()


def k_coherence_counterexample() -> tuple[DensityMatrix, KrausChannel, Observable]:
    """3x3 state, repaired incoherent channel and diagonal observable.

    The printed operators are repaired by right-multiplying all of them with
    (sum_n M_n^dag M_n)^(-1/2); the correction matrix is diagonal here, so
    the single-entry column pattern (hence incoherence) is untouched.
    """
    channel = validate_channel(normalize_kraus(printed_counterexample_ops()))
    return (
        validate_density(COUNTEREXAMPLE_RHO),
        channel,
        validate_observable(COUNTEREXAMPLE_K),
    )


def qubit_mixture_counterexample() -> dict:
    """Two-qubit mixture whose marginal product undercuts 1 - C(joint)."""
    v1 = QUBIT_MIX_PSI1 / np.linalg.norm(QUBIT_MIX_PSI1)
    v2 = QUBIT_MIX_PSI2 / np.linalg.norm(QUBIT_MIX_PSI2)
    p = QUBIT_MIX_P
    rho = validate_density(p * np.outer(v1, v1) + (1.0 - p) * np.outer(v2, v2))
    return {
        "p": p,
        "psi1": v1,
        "psi2": v2,
        "overlap_residual": float(abs(v1 @ v2)),
        "rho": rho,
    }


def cnot_attainment() -> dict:
    """Coherent qubit times a basis state through the copying permutation.

    The output is maximally correlated and its symmetric discord equals the
    coherence of the first factor exactly.
    """
    sigma_a = maximally_coherent(2)
    sigma_b = basis_state(2, 0)
    channel = generalized_cnot(2)
    joint = tensor(sigma_a, sigma_b)
    return {
        "sigma_a": sigma_a,
        "sigma_b": sigma_b,
        "channel": channel,
        "rho_f": apply(channel, joint),
        "expected_discord": 0.5,
        "bound": 0.5,
    }


def block_unitary_example() -> dict:
    """Two coherent qubits through the block unitary diag(I2, i*sigma_y).

    The discord created (1/2) stays strictly below the coherence budget 3/4.
    """
    u = np.zeros((4, 4), dtype=complex)
    u[0, 0] = u[1, 1] = 1.0
    u[2, 3] = 1.0
    u[3, 2] = -1.0
    sigma = maximally_coherent(2)
    channel = validate_channel([u])
    return {
        "sigma_a": sigma,
        "sigma_b": sigma,
        "channel": channel,
        "rho_f": apply(channel, tensor(sigma, sigma)),
        "expected_discord": 0.5,
        "bound": 0.75,
    }


def max_coherent_pair() -> dict:
    """Two maximally coherent qutrits; marginals of the joint pure state."""
    psi = tensor(maximally_coherent(3), maximally_coherent(3))
    return {
        "psi": psi,
        "rho_a": partial_trace(psi, [3, 3], [0]),
        "rho_b": partial_trace(psi, [3, 3], [1]),
    }


@dataclass(frozen=True)
class FixtureRow:
    label: str
    computed: float | bool
    expected: float | bool
    tol: float | None
    ok: bool


def _row(label, computed, expected, tol=None) -> FixtureRow:
    if tol is None:
        ok = computed == expected
    else:
        ok = abs(float(computed) - float(expected)) <= tol
    return FixtureRow(label, computed, expected, tol, ok)


def _report_counterexample() -> list:
    rho, channel, obs = k_coherence_counterexample()
    verdict = monotonicity_check(channel, rho, measure="k", observable=obs)
    return [
        _row("c_k_initial", verdict.c_before, 0.2277, 5e-4),
        _row("c_k_average_after", verdict.c_avg_after, 1.2928, 5e-3),
        _row("c_k_final", verdict.c_after, 0.3350, 5e-4),
        _row("strong_ok", verdict.strong_ok, False),
        _row("weak_ok", verdict.weak_ok, False),
    ]


def _report_qubit_mixture() -> list:
    from .polygamy import bipartite_record

    fx = qubit_mixture_counterexample()
    rec = bipartite_record(fx["rho"], (2, 2))
    product = (1.0 - rec.c_a) * (1.0 - rec.c_b)
    return [
        _row("c_marginal_a", rec.c_a, 0.2582, 5e-4),
        _row("c_marginal_b", rec.c_b, 0.0909, 5e-4),
        _row("c_joint", rec.c_joint, 0.3242, 5e-4),
        _row("marginal_product", product, 0.6744, 5e-4),
        _row("one_minus_joint", 1.0 - rec.c_joint, 0.6758, 5e-4),
        _row("pure_form_violated", rec.gap_pure_form < 0.0, True),
    ]


def _report_cnot(seed: int = 0) -> list:
    fx = cnot_attainment()
    result = discord_sym(fx["rho_f"], (2, 2), seed=seed)
    return [
        _row("discord_sym", result.value, fx["expected_discord"], 1e-6),
        _row("bound", fx["bound"], 0.5, 1e-10),
        _row("attained", abs(result.value - fx["bound"]) <= 1e-5, True),
    ]


def _report_block(seed: int = 0) -> list:
    fx = block_unitary_example()
    result = discord_sym(fx["rho_f"], (2, 2), seed=seed)
    return [
        _row("discord_sym", result.value, fx["expected_discord"], 1e-6),
        _row("bound", fx["bound"], 0.75, 1e-10),
        _row("below_budget", result.value < fx["bound"], True),
    ]


def _report_max_coherent() -> list:
    from .polygamy import pure_polygamy_gap

    fx = max_coherent_pair()
    return [
        _row("c_joint", c_skew(fx["psi"]), 8.0 / 9.0, 1e-12),
        _row("c_marginal_a", c_skew(fx["rho_a"]), 2.0 / 3.0, 1e-12),
        _row("c_marginal_b", c_skew(fx["rho_b"]), 2.0 / 3.0, 1e-12),
        _row("pure_form_gap", pure_polygamy_gap(fx["psi"], (3, 3)), 0.0, 1e-12),
    ]


_REPORTS = {
    "appendix-a": lambda seed: _report_counterexample(),
    "appendix-d": lambda seed: _report_qubit_mixture(),
    "theorem3-cnot": _report_cnot,
    "theorem3-block": _report_block,
    "max-coherent-3x3": lambda seed: _report_max_coherent(),
}
FIXTURE_NAMES = tuple(_REPORTS)


def fixture_report(name: str, seed: int = 0) -> list:
    """Computed-vs-expected rows for a bundled fixture."""
    if name not in _REPORTS:
        raise UnknownFixture(f"unknown fixture {name!r}; choose from {FIXTURE_NAMES}")
    return _REPORTS[name](seed)
