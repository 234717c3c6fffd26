"""Seeded random states, unitaries and observables.

Sweeps derive a child generator per sample with a spawn key, so sample ``i``
is reproducible on its own and results do not depend on scheduling or on the
order samples are drawn in.
"""

from __future__ import annotations

import numpy as np

from .errors import NegativeCount
from .linalg import DensityMatrix, _dim, _index, pure_state, validate_density


def _seed(seed) -> int:
    """``seed`` as a non-negative Python int, the one seed rule: what ``_index`` refuses raises
    ``DimensionMismatch``, a negative seed ``NegativeCount``."""
    seed = _index(seed)
    if seed < 0:
        raise NegativeCount(f"seed {seed} is negative")
    return seed


def as_rng(seed_or_rng) -> np.random.Generator:
    """Pass through a Generator, or build one from an integer seed by the ``_seed`` rule."""
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(np.random.SeedSequence(_seed(seed_or_rng)))


def child_rng(master_seed: int, index: int) -> np.random.Generator:
    """Generator for sample ``index`` of a sweep keyed by ``master_seed`` (the ``_seed`` rule)."""
    return np.random.default_rng(np.random.SeedSequence(_seed(master_seed), spawn_key=(index,)))


def _complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _normalized_gram(g: np.ndarray) -> np.ndarray:
    """G G^dag / Tr(G G^dag) of a complex matrix or of each in a stack, not yet validated."""
    m = g @ g.conj().swapaxes(-1, -2)
    return m / m.trace(axis1=-2, axis2=-1).real[..., None, None]


def _hermitian_part(a: np.ndarray) -> np.ndarray:
    """(A + A^dag)/2 of a matrix or of each in a stack."""
    return (a + a.conj().swapaxes(-1, -2)) / 2.0


def ginibre_mixed(dim: int, rng) -> DensityMatrix:
    """Full-support random mixed state G G^dag / Tr(G G^dag)."""
    dim = _dim(dim)
    return validate_density(_normalized_gram(_complex_normal(as_rng(rng), (dim, dim))))


def haar_pure(dim: int, rng) -> DensityMatrix:
    """Haar-random pure state (normalized complex normal vector)."""
    return pure_state(_complex_normal(as_rng(rng), _dim(dim)))


def random_unitary(dim: int, rng) -> np.ndarray:
    """Haar-distributed unitary via phase-fixed QR of a Ginibre matrix."""
    dim = _dim(dim)
    q, r = np.linalg.qr(_complex_normal(as_rng(rng), (dim, dim)))
    phases = np.diagonal(r).copy()
    phases /= np.abs(phases)
    return q * phases


def random_hermitian(dim: int, rng) -> np.ndarray:
    """Hermitian part of a complex normal matrix."""
    dim = _dim(dim)
    return _hermitian_part(_complex_normal(as_rng(rng), (dim, dim)))

