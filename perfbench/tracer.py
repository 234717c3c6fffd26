"""Span tracing of cohlab from outside the package.

``Tracer.install`` rebinds every public function that a cohlab module binds
(its own and the ones it imports) to a wrapper that records a span under the
binding name, e.g. ``cohlab.polygamy.partial_trace``.  ``numpy.linalg.eigh``
and the ``scipy.optimize.minimize`` bound in ``cohlab.discord`` are wrapped
too.  Of the functions defined in ``cohlab.cli`` only ``main`` is wrapped, so
its span keeps argument parsing and output formatting as self time.

A span is (id, parent, name, start, end, thread, extra).  Spans are kept in
per-thread arrays and only read when the run ends.  ``extra`` is the matrix
count of an eigh call and the ``nfev`` of a minimize call.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
import types
from array import array
from collections import defaultdict

import numpy as np

MODULES = (
    "linalg", "rand", "coherence", "channels", "polygamy", "discord",
    "metrology", "measurement", "serialize", "parallel", "fixtures", "cli",
)


class _Buffer:
    def __init__(self, thread: int):
        self.thread = thread
        self.ids = array("q")
        self.parents = array("q")
        self.names = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.extras = array("q")
        self.stack = [0]


class Tracer:
    def __init__(self):
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._buffers = []
        self._buffers_lock = threading.Lock()
        self.names = []  # code -> span name
        self.layers = []  # code -> layer key, e.g. "linalg.validate_density"
        self._codes = {}
        self._undo = []

    # -- recording -------------------------------------------------------------

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            with self._buffers_lock:
                buf = _Buffer(len(self._buffers))
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def _code(self, name: str, layer: str) -> int:
        code = self._codes.get(name)
        if code is None:
            code = self._codes[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return code

    def _open(self, parent_of=None):
        buf = self._buffer()
        sid = next(self._ids)
        parent = buf.stack[-1] if parent_of is None else parent_of
        buf.stack.append(sid)
        return buf, sid, parent, time.perf_counter()

    def _close(self, span, code: int, extra: int = 0):
        end = time.perf_counter()
        buf, sid, parent, start = span
        buf.stack.pop()
        buf.ids.append(sid)
        buf.parents.append(parent)
        buf.names.append(code)
        buf.starts.append(start)
        buf.ends.append(end)
        buf.extras.append(extra)

    def wrap(self, fn, name: str, layer: str, parent_of=None):
        """Wrapper recording one span per call of ``fn``.

        ``parent_of`` fixes the parent span id for calls that run on pool
        threads, whose own span stack is empty.
        """
        code = self._code(name, layer)
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._open(parent_of)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(span, code)

        return traced

    def _wrap_eigh(self, fn):
        code = self._code("numpy.linalg.eigh", "numpy.eigh")
        tracer = self

        def traced(a, *args, **kwargs):
            span = tracer._open()
            try:
                return fn(a, *args, **kwargs)
            finally:
                tracer._close(span, code, int(np.prod(np.shape(a)[:-2])))

        return traced

    def _wrap_minimize(self, fn, name):
        code = self._code(name, "discord.minimize")
        tracer = self

        def traced(fun, x0, *args, **kwargs):
            span = tracer._open()
            res = None
            try:
                res = fn(tracer.wrap(fun, name + ".fun", "discord.objective"), x0, *args, **kwargs)
                return res
            finally:
                tracer._close(span, code, 0 if res is None else int(res.nfev))

        return traced

    def _wrap_indexed_map(self, fn, name):
        code = self._code(name, "parallel.indexed_map")
        tracer = self

        def traced(sample_fn, n, *args, **kwargs):
            span = tracer._open()
            try:
                sample = tracer.wrap(sample_fn, name + ".fn", "parallel.sample", parent_of=span[1])
                return fn(sample, n, *args, **kwargs)
            finally:
                tracer._close(span, code)

        return traced

    # -- installation ----------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        for short in MODULES:
            mod = importlib.import_module(f"cohlab.{short}")
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not isinstance(fn, types.FunctionType):
                    continue
                origin = fn.__module__
                if not origin.startswith("cohlab.") or origin == "cohlab.cli":
                    continue
                name = f"{mod.__name__}.{attr}"
                layer = f"{origin[len('cohlab.'):]}.{fn.__name__}"
                if layer == "parallel.indexed_map":
                    self._patch(mod, attr, self._wrap_indexed_map(fn, name))
                else:
                    self._patch(mod, attr, self.wrap(fn, name, layer))
        discord = importlib.import_module("cohlab.discord")
        self._patch(discord, "minimize", self._wrap_minimize(discord.minimize,
                                                            "cohlab.discord.minimize"))
        self._patch(np.linalg, "eigh", self._wrap_eigh(np.linalg.eigh))
        cli = importlib.import_module("cohlab.cli")
        self._patch(cli, "main", self.wrap(cli.main, "cohlab.cli.main", "cli.main"))

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- reading ---------------------------------------------------------------

    def spans(self) -> list:
        out = []
        for buf in self._buffers:
            for i in range(len(buf.ids)):
                out.append((buf.ids[i], buf.parents[i], buf.names[i], buf.starts[i],
                            buf.ends[i], buf.thread, buf.extras[i]))
        out.sort(key=lambda s: s[0])
        return out

    def write(self, path: str):
        """JSON lines: a header naming the span codes, then one array per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names, "layers": self.layers,
                                 "span": ["id", "parent", "name", "start", "end", "thread",
                                          "extra"]}) + "\n")
            for span in self.spans():
                fh.write(json.dumps(span) + "\n")

    def layer_totals(self) -> dict:
        """Per layer key: calls, inclusive and self seconds, summed extra.

        Self time is the span's duration minus the union of the intervals of
        its child spans; children on pool threads can overlap each other.
        """
        spans = self.spans()
        children = defaultdict(list)
        for s in spans:
            children[s[1]].append((s[3], s[4]))
        totals = defaultdict(lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "extra": 0})
        for sid, parent, code, start, end, thread, extra in spans:
            covered = _union_length(children.get(sid, ()), start, end)
            t = totals[self.layers[code]]
            t["calls"] += 1
            t["incl_s"] += end - start
            t["self_s"] += end - start - covered
            t["extra"] += extra
        return dict(totals)


def _union_length(intervals, lo: float, hi: float) -> float:
    total = 0.0
    cur_start = cur_end = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
