"""Index-keyed map over sample indices.

No cohlab module calls it; it stays because the benchmark's tracer
(``perfbench/tracer.py``) imports ``cohlab.parallel`` by name.
"""


def indexed_map(fn, n: int) -> list:
    """Apply ``fn`` to 0..n-1 in order and return the results in a list."""
    return [fn(i) for i in range(n)]
