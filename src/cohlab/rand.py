"""Seeded random states, unitaries and observables.

Sweeps derive a child generator per sample with a spawn key, so sample ``i``
is reproducible on its own and results do not depend on scheduling or on the
order samples are drawn in.  ``child_rng`` is that generator; a sweep seeds
the generators of a whole chunk at once with ``_child_rngs``, which runs the
index-dependent end of numpy's ``SeedSequence`` hash over the chunk as uint32
arrays and gives each sample the same PCG64 state bit for bit.
"""

from __future__ import annotations

import numpy as np

from .errors import NegativeCount
from .linalg import DensityMatrix, _dim, _hermitian_part, _index, pure_state, validate_density


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


_M32 = 0xFFFFFFFF
# numpy's SeedSequence hash constants (NEP 19 fixes its stream) and PCG64's 128-bit multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _chain(h: int, mult: int, n: int) -> list:
    """The ``n + 1`` hash constants h, h mult, h mult^2, ... mod 2^32 that ``n`` hashes use."""
    chain = [h]
    for _ in range(n):
        chain.append(chain[-1] * mult & _M32)
    return chain


def _hashed(value, h, h_next):
    """SeedSequence's hash of a word with constant ``h`` (``h_next`` after it); the words and
    constants are Python ints or uint32 arrays alike."""
    value = (value ^ h) * h_next & _M32
    return value ^ value >> 16


def _mix(x, y):
    """SeedSequence's mix of a pool word ``x`` with a hashed word ``y``."""
    r = (_MIX_L * x - _MIX_R * y) & _M32
    return r ^ r >> 16


def _words(n: int) -> list:
    """The 32-bit words of ``n``, least significant first, as SeedSequence splits an int."""
    words = [n & _M32]
    while n := n >> 32:
        words.append(n & _M32)
    return words


def _child_rngs(seed, indices):
    """Yield ``child_rng(seed, i)`` for each ``i`` in ``indices`` (each below 2^64), in order.

    One Generator is reset in place to each sample's PCG64 state, so a yielded
    generator is valid until the next one is drawn.  The ``SeedSequence`` pool
    before the spawn key depends on ``seed`` alone and is hashed once in
    Python ints; mixing in the spawn-key words and ``generate_state(4,
    uint64)`` run as ``(4, m)`` and ``(8, m)`` uint32 array operations over
    the chunk, and the PCG64 ``srandom`` step in Python ints per index.
    """
    entropy = _words(_seed(seed))
    entropy += [0] * (4 - len(entropy))  # SeedSequence pads the seed to the pool before a spawn key
    # hashes: 4 pool words, 12 cross-mixes, then 4 per seed word past the 4th and per spawn word
    chain = _chain(_INIT_A, _MULT_A, 4 * len(entropy) + 8)
    consts = iter(zip(chain, chain[1:]))  # the constants of each hash in turn
    pool = [_hashed(w, *next(consts)) for w in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashed(pool[src], *next(consts)))
    for w in entropy[4:]:
        pool = [_mix(p, _hashed(w, *next(consts))) for p in pool]
    idx = np.asarray(indices, dtype=np.uint64)
    pool = np.array(pool, dtype=np.uint32)[:, None]
    for k, word in enumerate([idx & _M32, idx >> 32]):  # an index below 2^32 has one word
        h, h_next = np.array([next(consts) for _ in range(4)], dtype=np.uint32).T[..., None]
        mixed = _mix(pool, _hashed(word.astype(np.uint32), h, h_next))
        pool = np.where(word > 0, mixed, pool) if k else mixed
    chain = _chain(_INIT_B, _MULT_B, 8)
    h, h_next = np.array([chain[:8], chain[1:]], dtype=np.uint32)[..., None]
    state = _hashed(np.tile(pool, (2, 1)), h, h_next)  # generate_state's 8 words per index
    rng = np.random.default_rng(0)
    pcg = {"state": 0, "inc": 1}
    full = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    for s0, s1, q0, q1 in np.ascontiguousarray(state.T, dtype="<u4").view("<u8").tolist():
        inc = ((q0 << 64 | q1) << 1 | 1) & (1 << 128) - 1  # PCG64's srandom step
        pcg["state"], pcg["inc"] = ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & (1 << 128) - 1, inc
        rng.bit_generator.state = full
        yield rng


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

