"""Spans and call counters recorded around the program's public functions.

The traced run wraps functions of ``repro`` from the outside (nothing in
``src/`` knows about tracing).  Each wrapped call of a layer boundary
becomes a span ``[id, parent, name, start, end]``; the fitter's inner calls
(millions per MB) are aggregated instead, as one ``(parent, name) ->
[calls, seconds, calls that returned True]`` record per parent.  A layer's
self time is its time minus the time of its children, spans and aggregates
alike, so the self times of one item add up to the item's duration.

Spans stay in memory and are written once, at exit, by :meth:`dump`.
"""
from __future__ import annotations

import importlib
import json
import sys
import time
from contextlib import contextmanager

SPAN, COUNT = "span", "count"

#: Codec layers: (module, attribute path, layer name, record kind).
CODEC_LAYERS = [
    ("repro.core.neats", "NeaTS.compress", "neats.compress", SPAN),
    ("repro.core.neats", "NeaTS.__init__", "neats.encode", SPAN),
    ("repro.core.neats", "NeaTS.to_bytes", "neats.to_bytes", SPAN),
    ("repro.core.neats", "NeaTS.from_bytes", "neats.from_bytes", SPAN),
    ("repro.core.neats", "NeaTS.decompress", "neats.decompress", SPAN),
    ("repro.core.neats", "NeaTS.scan", "neats.scan", SPAN),
    ("repro.core.neats", "NeaTS.access", "neats.access", COUNT),
    ("repro.core.neats", "NeaTS.access_succinct", "neats.access_succinct", COUNT),
    ("repro.core.partition", "optimal_partition", "partition.optimal_partition", SPAN),
    ("repro.core.models", "FragmentFitter.try_extend", "models.try_extend", COUNT),
    ("repro.core.models", "FragmentFitter.params", "models.params", COUNT),
    ("repro.core.convex", "SegmentStabber.add", "convex.add", COUNT),
    ("repro.core.convex", "SegmentStabber.solve", "convex.solve", COUNT),
]

#: Driver-side Spark layers.  The functions the UDFs call inside Python
#: workers (``encode_block``/``decode_block``, ``NeaTS``) are never wrapped
#: while a Spark job runs: the closures would ship the wrappers to workers.
SPARK_LAYERS = [
    ("repro.sparkio.codec", "compress_to_blocks", "sparkio.compress_to_blocks", SPAN),
    ("repro.sparkio.codec", "decompress_blocks", "sparkio.decompress_blocks", SPAN),
    ("repro.sparkio.codec", "random_access", "sparkio.random_access", SPAN),
    ("repro.sparkio.codec", "range_query", "sparkio.range_query", SPAN),
    ("repro.sparkio.rowgroup_store", "write_store", "store.write_store", SPAN),
    ("repro.sparkio.rowgroup_store", "read_blocks", "store.read_blocks", SPAN),
    ("repro.sparkio.rowgroup_store", "scan_range", "store.scan_range", SPAN),
    ("repro.sparkio.rowgroup_store", "point_lookup", "store.point_lookup", SPAN),
]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.aggs: dict[tuple, list] = {}
        self.returns: dict[str, list] = {}  # layer name -> [(args, kwargs, result)]
        self._stack: list = [None]
        self._next_id = 0
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------
    @contextmanager
    def span(self, name: str):
        sid = self._next_id
        self._next_id += 1
        rec = [sid, self._stack[-1], name, time.perf_counter(), None]
        self._stack.append(sid)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec[4] = time.perf_counter()
            self.spans.append(rec)

    def _span_wrapper(self, fn, name: str, keep_return: bool):
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name):
                out = fn(*args, **kwargs)
            if keep_return:
                tracer.returns.setdefault(name, []).append((args, kwargs, out))
            return out

        return wrapper

    def _count_wrapper(self, fn, name: str):
        stack, aggs, clock = self._stack, self.aggs, time.perf_counter

        def wrapper(*args):
            key = (stack[-1], name)
            stack.append(key)
            t0 = clock()
            try:
                out = fn(*args)
            finally:
                dt = clock() - t0
                stack.pop()
                rec = aggs.get(key)
                if rec is None:
                    rec = aggs[key] = [0, 0.0, 0]
                rec[0] += 1
                rec[1] += dt
            if out is True:
                rec[2] += 1
            return out

        return wrapper

    # -- installing --------------------------------------------------------
    def install(self, layers, keep_returns=()) -> None:
        """Wrap every listed function; :meth:`uninstall` restores them."""
        for modname, path, name, kind in layers:
            mod = importlib.import_module(modname)
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(mod, cls_name)
                raw = owner.__dict__[attr]
                fn = raw.__func__ if isinstance(raw, classmethod) else raw
                new = (self._span_wrapper(fn, name, name in keep_returns) if kind == SPAN
                       else self._count_wrapper(fn, name))
                setattr(owner, attr, classmethod(new) if isinstance(raw, classmethod) else new)
                self._patches.append((owner, attr, raw))
                continue
            fn = getattr(mod, path)
            new = self._span_wrapper(fn, name, name in keep_returns)
            # callers may hold the function under their own module's name
            for m in list(sys.modules.values()):
                if getattr(m, "__name__", "").startswith("repro") and getattr(m, path, None) is fn:
                    setattr(m, path, new)
                    self._patches.append((m, path, fn))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    @contextmanager
    def installed(self, layers, keep_returns=()):
        self.install(layers, keep_returns)
        try:
            yield self
        finally:
            self.uninstall()

    # -- analysis ----------------------------------------------------------
    def layer_times(self) -> dict[str, dict]:
        """name -> {"calls", "total_s", "self_s", "true_calls"} over all records."""
        child: dict = {}
        for sid, parent, _, t0, t1 in self.spans:
            child[parent] = child.get(parent, 0.0) + (t1 - t0)
        for key, (_, total, _) in self.aggs.items():
            child[key[0]] = child.get(key[0], 0.0) + total
        out: dict[str, dict] = {}

        def add(name, calls, total, self_s, true_calls=0):
            rec = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "true_calls": 0})
            rec["calls"] += calls
            rec["total_s"] += total
            rec["self_s"] += self_s
            rec["true_calls"] += true_calls

        for sid, _, name, t0, t1 in self.spans:
            add(name, 1, t1 - t0, (t1 - t0) - child.get(sid, 0.0))
        for key, (calls, total, true_calls) in self.aggs.items():
            add(key[1], calls, total, total - child.get(key, 0.0), true_calls)
        return out

    def durations(self, name: str) -> list[float]:
        return [t1 - t0 for _, _, n, t0, t1 in self.spans if n == name]

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({
                "spans": [{"id": s, "parent": p, "name": n, "start": t0, "end": t1}
                          for s, p, n, t0, t1 in self.spans],
                "aggregates": [{"parent": k[0], "name": k[1], "calls": c, "seconds": t, "true_calls": tc}
                               for k, (c, t, tc) in self.aggs.items()],
            }, f, default=str)
