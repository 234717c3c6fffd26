"""Index-keyed map over sample indices."""

from __future__ import annotations


def indexed_map(fn, n: int) -> list:
    """Apply ``fn`` to 0..n-1 in order and return the results in a list.

    Sample functions derive all randomness from their index (child seeds).
    """
    return [fn(i) for i in range(n)]
