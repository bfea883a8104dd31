"""Per-layer tracing of compolab, installed from outside the package.

``Tracer.install()`` replaces the public functions of numtheory, closedform,
enumeration, graphs, bijection and cli with wrappers, in every compolab
namespace that holds them: ``cli`` calls ``closedform.X``, while
``closedform`` and ``bijection`` import their helpers by name, so each
module's own binding is replaced.  Entry points record spans (name, start,
end, parent, time covered by direct children); hot primitives such as
``binomial`` (called millions of times by the recursion) are only
aggregated, as a call count plus cumulative time per bucket.
"""

from __future__ import annotations

import functools
import importlib
import time
import tracemalloc

from oracle import bell_numbers

_BELL = bell_numbers(64)  # brute force is capped far below 64 vertices

# module -> {function name: (bucket, kind)}.  Kinds: "span" records a span and
# adds to the bucket; "call" only adds to the bucket; "leaf" does the same
# more cheaply, for hot functions that call no traced function; "stream"
# times next() on the returned iterator; "count" only counts calls; "built"
# counts the items an internal generator yields.  Names missing from a module
# are skipped, so the tracer keeps working when a later version drops one.
LAYERS = {
    "compolab.numtheory": {
        name: ("numtheory", "leaf")
        for name in ("binomial", "stirling2", "stirling_row", "bell")
    },
    "compolab.closedform": {
        "comp_count_recursive": ("closedform.recursive", "span"),
        "row_sum": ("closedform.recursive", "span"),
        "comp_count_explicit": ("closedform.explicit", "span"),
        "comp_count_paper_literal": ("closedform.explicit", "span"),
        "minimax_count_formula": ("closedform.formula", "span"),
        "maximin_count_formula": ("closedform.formula", "span"),
        "k1_count_formula": ("closedform.formula", "span"),
    },
    "compolab.enumeration": {
        "composition_count_brute": ("enumeration.count", "span"),
        "minimax_count_brute": ("enumeration.stat", "span"),
        "kj_count_brute": ("enumeration.stat", "span"),
        "set_partitions": ("enumeration.stream", "stream"),
        "partitions_of": ("enumeration.stream", "stream"),
        "compositions": ("enumeration.stream", "stream"),
        "_partition_stream": ("enumeration.partitions_built", "built"),
    },
    "compolab.graphs": {
        "is_connected_induced": ("graphs.connected", "leaf"),
        "parse_graph_file": ("graphs.build", "span"),
        **{
            name: ("graphs.build", "call")
            for name in (
                "complete",
                "complete_minus_clique",
                "delete_vertex",
                "from_edge_list",
                "from_vertices_and_edges",
            )
        },
    },
    "compolab.bijection": {
        "verify": ("bijection.verify", "span"),
        "forward": ("bijection.maps", "count"),
        "backward": ("bijection.maps", "count"),
        "target_graph": ("graphs.build", "call"),
    },
    "compolab.cli": {"main": ("cli", "span")},
}

NAMESPACES = ("compolab",) + tuple(LAYERS)

# Functions that grow the retained Stirling triangle on a cold call.
_TRIANGLE = ("bell", "stirling2", "stirling_row")

# Brute counters walk every restricted growth string of their vertex count,
# so each call visits exactly Bell(n) leaves.
_LEAVES = {
    "composition_count_brute": lambda args: args[0].n,
    "minimax_count_brute": lambda args: args[0],
    "kj_count_brute": lambda args: args[0],
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, child_s]
        self.totals: dict[str, list] = {}  # bucket -> [calls, seconds]
        self.counts: dict[str, int] = {}
        self._frames: list[list] = []  # [child_s, span index or None]
        self._depth: dict[str, int] = {}
        self._triangle_cold = True
        self.triangle_bytes = 0

    # -- bookkeeping -----------------------------------------------------

    def _add(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _total(self, bucket: str) -> list:
        return self.totals.setdefault(bucket, [0, 0.0])

    def _call(self, fn, args, kwargs, bucket: str, span: bool):
        """Run fn inside a frame; outermost calls of a bucket add to its total."""
        index = None
        if span:
            parent = next((f[1] for f in reversed(self._frames) if f[1] is not None), None)
            index = len(self.spans)
            self.spans.append([f"{fn.__module__}.{fn.__qualname__}", 0.0, 0.0, parent, 0.0])
        frame = [0.0, index]
        self._frames.append(frame)
        depth = self._depth.get(bucket, 0)
        self._depth[bucket] = depth + 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._frames.pop()
            self._depth[bucket] = depth
            elapsed = end - start
            if self._frames:
                self._frames[-1][0] += elapsed
            if depth == 0:
                total = self._total(bucket)
                total[0] += 1
                total[1] += elapsed
            if index is not None:
                record = self.spans[index]
                record[1], record[2], record[4] = start, end, frame[0]

    # -- wrappers --------------------------------------------------------

    def _wrap(self, fn, bucket: str, kind: str):
        tracer = self
        name = fn.__name__

        if kind == "count":
            def wrapper(*args, **kwargs):
                tracer._add(bucket)
                return fn(*args, **kwargs)

        elif kind == "built":
            def wrapper(*args, **kwargs):
                for item in fn(*args, **kwargs):
                    tracer._add(bucket)
                    yield item

        elif kind == "stream":
            def wrapper(*args, **kwargs):
                return tracer._timed_iter(fn(*args, **kwargs), bucket)

        elif kind == "leaf":
            total = self._total(bucket)
            frames = self._frames
            perf = time.perf_counter
            triangle = name in _TRIANGLE

            def wrapper(*args, **kwargs):
                if triangle and tracer._triangle_cold:
                    return tracer._cold_triangle(wrapper, args, kwargs)
                start = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = perf() - start
                    total[0] += 1
                    total[1] += elapsed
                    if frames:
                        frames[-1][0] += elapsed

        else:
            span = kind == "span"
            leaves = _LEAVES.get(name)

            def wrapper(*args, **kwargs):
                result = tracer._call(fn, args, kwargs, bucket, span)
                if leaves is not None:
                    tracer._add("enumeration.leaves", _BELL[leaves(args)])
                return result

        return functools.update_wrapper(wrapper, fn)

    def _cold_triangle(self, wrapper, args, kwargs):
        """First triangle call in this process: the bytes it leaves allocated
        are the part of the Stirling triangle it grew and keeps."""
        self._triangle_cold = False
        tracemalloc.start()
        try:
            return wrapper(*args, **kwargs)
        finally:
            self.triangle_bytes = tracemalloc.get_traced_memory()[0]
            tracemalloc.stop()

    def _timed_iter(self, iterator, bucket: str):
        nxt = iterator.__next__
        while True:
            try:
                item = self._call(nxt, (), {}, bucket, False)
            except StopIteration:
                return
            yield item

    def install(self) -> None:
        """Wrap every traced function in every compolab namespace binding it."""
        replace = {}
        for module_name, functions in LAYERS.items():
            module = importlib.import_module(module_name)
            for name, (bucket, kind) in functions.items():
                fn = getattr(module, name, None)
                if callable(fn):
                    replace[id(fn)] = self._wrap(fn, bucket, kind)
        for module_name in NAMESPACES:
            module = importlib.import_module(module_name)
            for name, value in list(vars(module).items()):
                wrapper = replace.get(id(value))
                if wrapper is not None:
                    setattr(module, name, wrapper)
        memo = getattr(importlib.import_module("compolab.closedform"), "MemoStore", None)
        put = getattr(memo, "put", None)
        if put is not None:
            memo.put = self._wrap(put, "closedform.memo_cells", "count")

    def record(self) -> dict:
        """Spans, bucket totals and counters, ready for JSON."""
        graphs = importlib.import_module("compolab.graphs")
        cache_info = getattr(getattr(graphs, "_connected", None), "cache_info", None)
        return {
            "spans": self.spans,
            "calls": {bucket: t[0] for bucket, t in self.totals.items()},
            "time": {bucket: t[1] for bucket, t in self.totals.items()},
            "counts": self.counts,
            "triangle_bytes": self.triangle_bytes,
            "connected_cache_entries": cache_info().currsize if cache_info else 0,
        }
