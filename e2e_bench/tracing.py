"""Per-layer tracing from the benchmark's own files.

A :class:`Recorder` keeps spans in memory: name, start, end, parent span
and the id of the operation they belong to.  Wrappers installed around
the program's layer entry points (module functions and class methods)
record one span per call; nothing inside the program changes.  The
benchmark process wraps the build path and the HTTP client, and a traced
server is started through ``launcher.py``, which wraps the server's
layers before it hands over to ``repro serve`` and writes its spans when
it exits.  The client sends each request's operation id in an
``X-Bench-Op`` header, so the spans of one operation share an id across
both processes.

:func:`layer_table` turns the spans of one phase into self times: a
span's self time is its duration minus the time its child spans cover,
the HTTP transport is the client's round trip minus the server's handler
time, and whatever no layer covers is the phase's ``unaccounted`` row, so
the rows sum to the traced end-to-end time.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from array import array
from collections import defaultdict
from pathlib import Path

OP_HEADER = "X-Bench-Op"

#: Span names that are the traced end-to-end operations of each phase.
ROOTS = {"op.build": "build", "op.read": "read", "op.refresh": "refresh",
         "op.ingest_read": "ingest_read"}


class _Span:
    __slots__ = ("recorder", "name", "index")

    def __init__(self, recorder: "Recorder", name: str) -> None:
        self.recorder = recorder
        self.name = name

    def __enter__(self) -> int:
        self.index = self.recorder.open(self.name)
        return self.index

    def __exit__(self, *exc) -> None:
        self.recorder.close(self.index)


class Recorder:
    """In-memory spans, one column per field.

    Flat ``array`` columns instead of one list per span: a long traced
    run records hundreds of thousands of spans, and container objects
    would make the interpreter's cyclic garbage collector walk all of
    them again and again inside the very calls being timed.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.ops = array("q")
        self.attrs: dict[int, dict] = {}
        #: Counts the build wrappers take from the last build.
        self.counts: dict = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- operation ids -----------------------------------------------------

    @property
    def op(self) -> int:
        return getattr(self._local, "op", 0)

    @op.setter
    def op(self, value: int) -> None:
        self._local.op = value

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, start: int, end: int, parent: int) -> int:
        op = self.op
        with self._lock:
            self.names.append(name)
            self.starts.append(start)
            self.ends.append(end)
            self.parents.append(parent)
            self.ops.append(op)
            return len(self.names) - 1

    def open(self, name: str) -> int:
        stack = self._stack()
        index = self.add(name, time.perf_counter_ns(), 0, stack[-1] if stack else -1)
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter_ns()
        self._stack().pop()

    def parent(self) -> int:
        stack = self._stack()
        return stack[-1] if stack else -1

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    @property
    def spans(self) -> list[list]:
        """``[name, start_ns, end_ns, parent, op, attrs]`` per span."""
        return [
            [name, start, end, parent, op, self.attrs.get(i)]
            for i, (name, start, end, parent, op) in enumerate(
                zip(self.names, self.starts, self.ends, self.parents, self.ops))
        ]

    def wrap(self, owner, attr: str, name: str, *, when=None, rename=None, after=None) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``when(args, kwargs)`` limits recording to some calls;
        ``rename(args, kwargs, result)`` names the span after the call;
        ``after(index, args, kwargs, result)`` runs once the span closed.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if kind else raw
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if when is not None and not when(args, kwargs):
                return fn(*args, **kwargs)
            index = recorder.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.close(index)
            if rename is not None:
                recorder.names[index] = rename(args, kwargs, result)
            if after is not None:
                after(index, args, kwargs, result)
            return result

        setattr(owner, attr, kind(wrapper) if kind else wrapper)

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans))


# ----------------------------------------------------------------------
# wrapper sets
# ----------------------------------------------------------------------


def install_build(recorder: Recorder) -> None:
    """The build path, in the process that runs ``repro snapshot save``.

    ``repro.cli`` binds ``read_table_csv`` at import and looks up
    ``write_snapshot`` on ``repro.store`` at call time, so those bindings
    are the ones wrapped.  The wrappers put the last build's counts in
    ``recorder.counts``: ``trie_nodes`` (from the stats
    ``range_cubing_detailed`` returns) and ``store_mb``
    (``ColumnarRangeStore.nbytes()`` of the frozen cube).
    """
    cli = importlib.import_module("repro.cli")
    range_cubing = importlib.import_module("repro.core.range_cubing")
    store = importlib.import_module("repro.store")
    from repro.approx.sketch import CubeSketch
    from repro.core.range_cube import RangeCube
    from repro.core.range_trie import RangeTrie
    from repro.tune import TuningPlan

    counts = recorder.counts
    recorder.wrap(cli, "read_table_csv", "data.io.read")
    recorder.wrap(range_cubing, "resolve_plan", "tune.plan")
    recorder.wrap(TuningPlan, "transform_table", "tune.plan")
    recorder.wrap(range_cubing, "_traverse", "core.range_cubing.traverse")
    recorder.wrap(TuningPlan, "restore_ranges", "tune.restore")
    recorder.wrap(range_cubing, "_remap_ranges", "tune.restore")
    recorder.wrap(RangeCube, "to_columnar", "core.columnar.freeze",
                  when=lambda args, kwargs: args[0]._columnar is None,
                  after=lambda index, a, k, frozen: counts.__setitem__("store_mb", frozen.nbytes() / 1e6))
    recorder.wrap(CubeSketch, "from_store", "approx.sketch")
    recorder.wrap(store, "write_snapshot", "store.snapshot.write")

    detailed = range_cubing.range_cubing_detailed

    @functools.wraps(detailed)
    def range_cubing_detailed(*args, **kwargs):
        cube, stats = detailed(*args, **kwargs)
        counts["trie_nodes"] = stats["trie_nodes"]
        return cube, stats

    range_cubing.range_cubing_detailed = range_cubing_detailed

    # The bulk builder reports its sort/group/aggregate split in the
    # ``timings`` dict it is handed; lay the three phases out back to
    # back from the call's start, as the program's own tracer does.
    bulk = RangeTrie.__dict__["bulk_build"].__func__

    @functools.wraps(bulk)
    def bulk_build(cls, *args, **kwargs):
        start = time.perf_counter_ns()
        kwargs.setdefault("timings", {})
        trie = bulk(cls, *args, **kwargs)
        parent = recorder.parent()
        for phase in ("sort", "group", "aggregate"):
            seconds = kwargs["timings"].get(f"{phase}_seconds", 0.0)
            end = start + int(seconds * 1e9)
            recorder.add(f"core.range_trie.{phase}", start, end, parent)
            start = end
        return trie

    RangeTrie.bulk_build = classmethod(bulk_build)


def install_client(recorder: Recorder) -> None:
    """The HTTP client: JSON encode/decode, round trips, the op header."""
    import http.client
    import types

    import repro.serve.client as client

    plain = client.json
    traced = types.SimpleNamespace(**{k: getattr(plain, k) for k in dir(plain) if not k.startswith("__")})
    client.json = traced
    recorder.wrap(traced, "dumps", "serve.client.encode")
    recorder.wrap(traced, "loads", "serve.client.decode")
    recorder.wrap(client.HTTPCubeClient, "_request", "serve.client.request")
    send = http.client.HTTPConnection.request

    @functools.wraps(send)
    def request(self, method, url, body=None, headers=None, **kwargs):
        headers = dict(headers or {})
        headers[OP_HEADER] = str(recorder.op)
        return send(self, method, url, body, headers, **kwargs)

    http.client.HTTPConnection.request = request


def install_server(recorder: Recorder, mode: str) -> None:
    """The server's layers; ``mode`` ``ingest`` adds the write path."""
    from repro.core.range_cube import RangeCube
    from repro.serve.engine import QueryEngine
    from repro.serve.http import _Handler
    from repro.serve.protocol import QueryRequest
    from repro.store.engine import SnapshotEngine

    handle = _Handler.do_POST

    @functools.wraps(handle)
    def do_post(self):
        recorder.op = int(self.headers.get(OP_HEADER) or 0)
        try:
            with recorder.span("serve.http.handler"):
                handle(self)
        finally:
            recorder.op = 0

    _Handler.do_POST = do_post
    recorder.wrap(QueryRequest, "from_json", "serve.protocol.decode")

    def engine_layer(args, kwargs, response):
        op = args[1]["op"] if isinstance(args[1], dict) else args[1].op
        return "serve.engine.hit" if response.get("cached") else f"serve.engine.{op}_miss"

    for engine in (QueryEngine, SnapshotEngine):
        recorder.wrap(engine, "execute", "serve.engine", rename=engine_layer)
    if mode != "ingest":
        return

    from repro.core.incremental import IncrementalRangeCuber
    from repro.serve.cache import LRUCache

    recorder.wrap(QueryEngine, "append", "serve.engine.append")
    recorder.wrap(IncrementalRangeCuber, "insert_batch", "core.incremental.absorb")
    recorder.wrap(IncrementalRangeCuber, "replan", "tune.replan")
    recorder.wrap(RangeCube, "to_columnar", "core.columnar.refreeze",
                  when=lambda args, kwargs: args[0]._columnar is None)
    recorder.wrap(LRUCache, "invalidate_all", "serve.cache.invalidate",
                  after=lambda index, a, k, dropped: recorder.attrs.__setitem__(index, {"dropped": dropped}))

    previous: list = [None]

    def changed_share(index, args, kwargs, cube):
        # Tracing work, not the program's: a span of its own, so it is
        # reported as such instead of inflating the append's self time.
        with recorder.span("trace.changed_share"):
            current = {(r.specific, r.mask, r.state) for r in cube.ranges}
            if previous[0] is not None and current:
                share = len(current - previous[0]) / len(current)
                recorder.attrs[index] = {"changed_share": share}
            previous[0] = current

    recorder.wrap(IncrementalRangeCuber, "cube", "core.incremental.emit", after=changed_share)


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------


def _self_times(spans: list[list]) -> list[int]:
    own = [end - start for _, start, end, _, _, _ in spans]
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def per_op(client_spans: list[list], server_spans: list[list[list]]) -> dict[int, dict]:
    """For each traced operation: its kind, end-to-end ns and layer self times.

    ``layers`` maps a layer name to ``[self_ns, calls]``; the client's
    round-trip self time becomes ``serve.http.transport`` once the
    server's handler time for the same operation is taken out of it.
    """
    ops: dict[int, dict] = {}
    for spans in (client_spans, *server_spans):
        own = _self_times(spans)
        for (name, start, end, parent, op, attrs), self_ns in zip(spans, own):
            if op <= 0:
                continue
            entry = ops.setdefault(op, {"kind": None, "e2e": 0, "layers": defaultdict(lambda: [0, 0]), "attrs": []})
            if name in ROOTS and parent < 0:
                entry["kind"] = ROOTS[name]
                entry["e2e"] = end - start
                name = "unaccounted"
            elif name == "serve.client.request":
                name = "serve.http.transport"
            if name == "serve.http.handler" and parent < 0:
                entry["layers"]["serve.http.transport"][0] -= end - start
            layer = entry["layers"][name]
            layer[0] += self_ns
            layer[1] += 1
            if attrs:
                entry["attrs"].append((name, attrs))
    return {op: entry for op, entry in ops.items() if entry["kind"] is not None}


def layer_table(ops: dict[int, dict], kinds: tuple[str, ...]) -> tuple[int, dict]:
    """Summed self time and calls per layer over the ops of ``kinds``."""
    total = 0
    rows: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    for entry in ops.values():
        if entry["kind"] not in kinds:
            continue
        total += entry["e2e"]
        for name, (self_ns, calls) in entry["layers"].items():
            rows[name][0] += self_ns
            rows[name][1] += calls
    return total, dict(rows)


def format_table(title: str, total_ns: int, rows: dict, unaccounted: str) -> str:
    lines = [f"{title}: traced end-to-end {total_ns / 1e9:.4f} s",
             f"  {'layer':36} {'self s':>10} {'calls':>8} {'ratio':>7}"]
    listed = sorted(rows.items(), key=lambda item: (item[0] == "unaccounted", -item[1][0]))
    summed = 0
    for name, (self_ns, calls) in listed:
        summed += self_ns
        label = unaccounted if name == "unaccounted" else name
        ratio = self_ns / total_ns if total_ns else 0.0
        lines.append(f"  {label:36} {self_ns / 1e9:10.4f} {calls:8d} {ratio:7.1%}")
    lines.append(f"  {'sum of rows':36} {summed / 1e9:10.4f}")
    return "\n".join(lines)
