"""Empty; stays while the benchmark's tracer (``perfbench/tracer.py``) imports it by name."""
