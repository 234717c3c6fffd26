import numpy as np
import pytest

from cohlab.rand import _child_rngs

SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**96 + 5, 2**128 + 1]  # 1, 1, 1, 2, 3, 4 and 5 words


def numpy_child(seed, i):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))


def first_draws(rng):
    return (rng.integers(1, 9, size=4).tolist(), rng.permuted(np.arange(6)).tolist(),
            rng.standard_normal(5).tolist())


def assert_is_numpy_child(rng, seed, i):
    want = numpy_child(seed, i)
    assert rng.bit_generator.state == want.bit_generator.state, (seed, i)
    assert first_draws(rng) == first_draws(want), (seed, i)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("indices", [
    range(300), [2**32 - 1, 2**32], [0, 2**32, 5, 2**32 + 7], range(0), range(41, 42),
    range(1000, 1682),
], ids=["0-299", "word-boundary", "mixed-word-counts", "empty", "one", "682"])
def test_child_rngs_are_numpys_spawned_generators(seed, indices):
    count = 0
    for i, rng in zip(indices, _child_rngs(seed, indices), strict=True):
        assert_is_numpy_child(rng, seed, i)
        count += 1
    assert count == len(indices)


def test_interleaved_child_rngs_do_not_share_state():
    a, b = _child_rngs(7, range(20)), _child_rngs(2**64 + 3, range(20, 40))
    for i, (rng_a, rng_b) in enumerate(zip(a, b, strict=True)):
        assert rng_a is not rng_b
        assert_is_numpy_child(rng_b, 2**64 + 3, 20 + i)
        assert_is_numpy_child(rng_a, 7, i)


@pytest.mark.parametrize("seed", [3, 2**96 + 5])
def test_child_rngs_stay_valid_after_the_next_is_drawn(seed):
    rngs = list(_child_rngs(seed, range(50)))
    for i, rng in enumerate(rngs):
        assert_is_numpy_child(rng, seed, i)
