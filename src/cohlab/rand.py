"""Seeded random states, unitaries and observables.

Sweeps derive a child generator per sample with a spawn key, so sample ``i``
is reproducible on its own and results do not depend on scheduling or on the
order samples are drawn in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .linalg import DensityMatrix, pure_state, validate_density

MIXED_GINIBRE = "mixed-ginibre"
PURE_HAAR = "pure-haar"


@dataclass(frozen=True)
class RandomStateSpec:
    """Recipe for one reproducible random state."""

    dims: tuple
    seed: int
    kind: str = MIXED_GINIBRE

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        if int(np.prod(dims)) < 2:
            raise DimensionMismatch(f"total dimension {np.prod(dims)} < 2")
        if self.kind not in (MIXED_GINIBRE, PURE_HAAR):
            raise DimensionMismatch(f"unknown kind {self.kind!r}")

    @property
    def dim(self) -> int:
        return int(np.prod(self.dims))


def as_rng(seed_or_rng) -> np.random.Generator:
    """Pass through a Generator, or build one from an integer seed."""
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(np.random.SeedSequence(seed_or_rng))


def child_rng(master_seed: int, index: int) -> np.random.Generator:
    """Generator for sample ``index`` of a sweep keyed by ``master_seed``."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(index,)))


def _complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _ginibre(dim: int, rng) -> np.ndarray:
    """G G^dag / Tr(G G^dag) for a complex normal G, not yet validated."""
    g = _complex_normal(as_rng(rng), (dim, dim))
    m = g @ g.conj().T
    return m / m.trace().real


def ginibre_mixed(dim: int, rng) -> DensityMatrix:
    """Full-support random mixed state G G^dag / Tr(G G^dag)."""
    return validate_density(_ginibre(dim, rng))


def haar_pure(dim: int, rng) -> DensityMatrix:
    """Haar-random pure state (normalized complex normal vector)."""
    return pure_state(_complex_normal(as_rng(rng), dim))


def random_state(spec: RandomStateSpec) -> DensityMatrix:
    """Deterministic state for a spec; identical specs give identical states."""
    rng = as_rng(spec.seed)
    if spec.kind == MIXED_GINIBRE:
        return ginibre_mixed(spec.dim, rng)
    return haar_pure(spec.dim, rng)


def random_unitary(dim: int, rng) -> np.ndarray:
    """Haar-distributed unitary via phase-fixed QR of a Ginibre matrix."""
    q, r = np.linalg.qr(_complex_normal(as_rng(rng), (dim, dim)))
    phases = np.diagonal(r).copy()
    phases /= np.abs(phases)
    return q * phases


def random_hermitian(dim: int, rng, scale: float = 1.0) -> np.ndarray:
    a = _complex_normal(as_rng(rng), (dim, dim)) * scale
    return (a + a.conj().T) / 2.0


def random_diagonal_state(dim: int, rng) -> DensityMatrix:
    """Random incoherent state with Dirichlet(1) diagonal."""
    return validate_density(np.diag(as_rng(rng).dirichlet(np.ones(dim))))
