"""Seeded random states.

Sweeps derive a child generator per sample with a spawn key, so sample ``i``
is reproducible on its own and results do not depend on scheduling or on the
order samples are drawn in.  ``child_rng`` is that generator; a sweep seeds
the generators of a whole chunk at once with ``_child_rngs``.  There numpy
hashes the seed into its ``SeedSequence`` pool and seeds PCG64, and cohlab
hashes only the index words, for the whole chunk as uint32 arrays, so each
sample gets the same generator bit for bit.
"""

from __future__ import annotations

import numpy as np

from .linalg import DensityMatrix, _dim, _seed, validate_density


def as_rng(seed_or_rng) -> np.random.Generator:
    """Pass through a Generator, or build one from an integer seed by the ``_seed`` rule."""
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(np.random.SeedSequence(_seed(seed_or_rng)))


def child_rng(master_seed: int, index: int) -> np.random.Generator:
    """Generator for sample ``index`` of a sweep keyed by ``master_seed`` (the ``_seed`` rule)."""
    return np.random.default_rng(np.random.SeedSequence(_seed(master_seed), spawn_key=(index,)))


_M32 = 0xFFFFFFFF
# numpy's SeedSequence hash constants (NEP 19 fixes its stream)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _consts(h: int, mult: int, skip: int) -> np.ndarray:
    """The uint32 constants (h, h_next), shape ``(2, 8, 1)``, of the 8 SeedSequence hashes that
    follow the first ``skip`` of the chain h, h mult, h mult^2, ... mod 2^32."""
    chain = [h]
    for _ in range(skip + 8):
        chain.append(chain[-1] * mult & _M32)
    return np.array([chain[-9:-1], chain[-8:]], dtype=np.uint32)[..., None]


def _hashed(value, h, h_next):
    """SeedSequence's hash of uint32 words with constants ``h`` (``h_next`` after it)."""
    value = (value ^ h) * h_next & _M32
    return value ^ value >> 16


def _mix(x, y):
    """SeedSequence's mix of pool words ``x`` with hashed words ``y``."""
    r = (_MIX_L * x - _MIX_R * y) & _M32
    return r ^ r >> 16


class _StateWords(np.random.bit_generator.ISeedSequence):
    """One index's four uint64 state words, handed to ``np.random.PCG64`` as its seed sequence;
    PCG64 reads them through a raw pointer, so they must be C-contiguous native uint64."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _child_rngs(seed, indices):
    """Yield ``child_rng(seed, i)`` for each ``i`` in ``indices`` (each below 2^64), in order.

    numpy hashes ``seed`` into the ``SeedSequence`` pool once.  Mixing in the
    spawn-key words and ``generate_state(4, uint64)`` run as ``(4, m)`` and
    ``(8, m)`` uint32 array operations over the chunk, and numpy seeds each
    index's PCG64 from its four state words.
    """
    seed = _seed(seed)
    pool = np.random.SeedSequence(seed).pool[:, None]
    # the pool took 4 * max(4, n) hashes for a seed of n 32-bit words; the spawn words take 8 more
    consts = _consts(_INIT_A, _MULT_A, 4 * max(4, (seed.bit_length() + 31) // 32))
    idx = np.asarray(indices, dtype=np.uint64)
    for k, word in enumerate([idx & _M32, idx >> 32]):  # an index below 2^32 has one word
        mixed = _mix(pool, _hashed(word.astype(np.uint32), *consts[:, 4 * k:4 * k + 4]))
        pool = np.where(word > 0, mixed, pool) if k else mixed
    state = _hashed(np.tile(pool, (2, 1)), *_consts(_INIT_B, _MULT_B, 0))  # generate_state's 8 words
    words = np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64, copy=False)
    for w in words:
        yield np.random.Generator(np.random.PCG64(_StateWords(w)))


def _complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _normalized_gram(g: np.ndarray) -> np.ndarray:
    """G G^dag / Tr(G G^dag) of a complex matrix or of each in a stack, not yet validated."""
    m = g @ g.conj().swapaxes(-1, -2)
    return m / m.trace(axis1=-2, axis2=-1).real[..., None, None]


def ginibre_mixed(dim: int, rng) -> DensityMatrix:
    """Full-support random mixed state G G^dag / Tr(G G^dag)."""
    dim = _dim(dim)
    return validate_density(_normalized_gram(_complex_normal(as_rng(rng), (dim, dim))))

