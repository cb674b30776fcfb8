"""In-memory tracing of spansphere's public functions, for the traced run.

`Tracer.install` replaces each public function of the traced modules by a
wrapper, in the defining module and in every package module that imported
it by name, so calls between layers are seen whichever name they go
through.  A few methods are wrapped the same way; hot membership methods
only count calls.  Each call records a span (name, start, end, parent span,
instance id); the spans stay in memory until `write` dumps them.  The timed
runs never install the tracer.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

TRACED_MODULES = ("hypergraph", "complexes", "spheres", "matching", "allocation", "chain")
PACKAGE = "spansphere"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, instance]
        self.instance = None
        self.hosts: set[int] = set()  # ids of the host objects of the running instance
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._counters: list[Counter] = []  # one per thread, so no update is lost

    @property
    def counts(self) -> Counter:
        """This thread's counter."""
        counts = getattr(self._local, "counts", None)
        if counts is None:
            counts = self._local.counts = Counter()
            with self._lock:
                self._counters.append(counts)
        return counts

    def take_counts(self) -> Counter:
        """Sum of every thread's counts since the last call; call it while
        no traced work runs."""
        total: Counter = Counter()
        for c in self._counters:
            total.update(c)
            c.clear()
        return total

    # ------------------------------------------------------------ recording

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            main = threading.current_thread() is threading.main_thread()
            stack = self._main_stack if main else []
            self._local.stack = stack
        return stack

    def _wrap(self, name: str, fn, measure=None):
        spans, lock = self.spans, self._lock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            # A worker thread's first span was caused by whatever the main
            # thread is blocked in (the thread pool of `spanning_sphere`).
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
            with lock:
                idx = len(spans)
                spans.append([name, time.perf_counter(), None, parent, self.instance])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            self.counts[name] += 1
            if measure is not None:
                measure(self, args, result)
            return result

        return traced

    def _counter(self, key: str, fn, hosts_only: bool):
        @functools.wraps(fn)
        def counted(obj, *args, **kwargs):
            if not hosts_only or id(obj) in self.hosts:
                self.counts[key] += 1
            return fn(obj, *args, **kwargs)

        return counted

    # --------------------------------------------------------- installation

    def _patch(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = {m: sys.modules[f"{PACKAGE}.{m}"] for m in TRACED_MODULES}
        loaded = [mod for name, mod in sys.modules.items() if name.startswith(PACKAGE + ".") and mod]
        measures = {
            "hypergraph.covering_tight_walk": _add("hypergraph.walk_order", lambda a, r: r.order),
            "matching.perfect_matching": _add("matching.leftover_edges", lambda a, r: len(a[0].edges)),
            "complexes.glue": _add("complexes.glue_facets", lambda a, r: len(r.facets)),
            "chain.generate_chain_host": _register_host,
        }
        for short, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                wrapper = self._wrap(name, fn, measures.get(name))
                for other in loaded:
                    if vars(other).get(attr) is fn:
                        self._patch(other, attr, wrapper)

        hg, cx, ch = modules["hypergraph"], modules["complexes"], modules["chain"]
        for cls, meth, measure in (
            (hg.Hypergraph, "from_edges", _add("hypergraph.edges_built", lambda a, r: len(r.edges))),
            (hg.Hypergraph, "complete", None),
            (cx.SimplicialComplex, "from_facets", None),
            (cx.SimplicialComplex, "load", None),
        ):
            raw = cls.__dict__[meth].__func__
            name = f"{raw.__module__.rsplit('.', 1)[1]}.{cls.__name__}.{meth}"
            self._patch(cls, meth, classmethod(self._wrap(name, raw, measure)))
        self._patch(cx.SimplicialComplex, "link", self._counter("complexes.link_calls", cx.SimplicialComplex.link, False))
        for cls in (hg.Hypergraph, ch.LazyChainHost):
            self._patch(cls, "has_edge", self._counter("chain.host_has_edge_calls", cls.has_edge, True))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, old = self._restore.pop()
            setattr(owner, attr, old)

    def write(self, path: Path, rounds: int) -> None:
        """Dump the spans of the first `rounds` rounds, one JSON list per
        line after a header line; a span's parent is the position of the
        parent's line among the span lines, counted from zero."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "instance"]}) + "\n")
            for s in self.spans:
                if s[4][0] >= rounds:
                    break
                fh.write(json.dumps(s) + "\n")


def _add(key: str, amount):
    def measure(tracer: Tracer, args, result):
        tracer.counts[key] += amount(args, result)

    return measure


def _register_host(tracer: Tracer, args, result):
    tracer.hosts.add(id(result.host))


# ---------------------------------------------------------------- metrics


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


class SpanIndex:
    """Spans of one set of instances, with their children."""

    def __init__(self, spans: list[tuple[int, list]]):
        self.row = dict(spans)
        self.children: dict[int, list[int]] = defaultdict(list)
        self.by_name: dict[str, list[int]] = defaultdict(list)
        for id_, (name, _s, _e, parent, _inst) in spans:
            if parent in self.row:
                self.children[parent].append(id_)
            self.by_name[name].append(id_)

    def _has_ancestor_in(self, idx: int, names: set[str]) -> bool:
        parent = self.row[idx][3]
        while parent in self.row:
            if self.row[parent][0] in names:
                return True
            parent = self.row[parent][3]
        return False

    def self_time(self, names: set[str]) -> float:
        """Duration minus the part its direct child spans cover."""
        total = 0.0
        for name in names:
            for idx in self.by_name.get(name, ()):
                _, s, e, _, _ = self.row[idx]
                kids = [(self.row[c][1], self.row[c][2]) for c in self.children[idx]]
                total += (e - s) - _union_length(kids)
        return total

    def layer_time(self, names: set[str]) -> float:
        """Time of the outermost spans of `names`, less the time their
        descendants spend in other layers."""
        total = 0.0
        for name in names:
            for idx in self.by_name.get(name, ()):
                if self._has_ancestor_in(idx, names):
                    continue
                _, s, e, _, _ = self.row[idx]
                layer = _layer(name)
                foreign, todo = [], list(self.children[idx])
                while todo:
                    c = todo.pop()
                    if _layer(self.row[c][0]) == layer:
                        todo.extend(self.children[c])
                    else:
                        foreign.append((self.row[c][1], self.row[c][2]))
                total += (e - s) - _union_length(foreign)
        return total


# metric -> (kind, span names or counter key, unit); kinds: time in the layer,
# self time, and counters
PER_LAYER = {
    "hypergraph.from_edges_s": ("layer", {"hypergraph.Hypergraph.from_edges"}, "s"),
    "hypergraph.edges_built": ("counter", "hypergraph.edges_built", "edges"),
    "hypergraph.walk_s": ("layer", {"hypergraph.covering_tight_walk"}, "s"),
    "hypergraph.walk_order": ("counter", "hypergraph.walk_order", "vertices"),
    "spheres.ladder_s": ("layer", {"spheres.tight_path_blowup_sphere"}, "s"),
    "spheres.partite_s": ("layer", {"spheres.partite_sphere_a", "spheres.partite_sphere_b"}, "s"),
    "matching.hall_s": ("layer", {"matching.hall_matching"}, "s"),
    "matching.perfect_s": ("layer", {"matching.perfect_matching"}, "s"),
    "matching.leftover_edges": ("counter", "matching.leftover_edges", "edges"),
    "complexes.verify_s": ("layer", {"complexes.verify_sphere"}, "s"),
    "complexes.verify_calls": ("counter", "complexes.verify_sphere", "calls"),
    "complexes.link_calls": ("counter", "complexes.link_calls", "calls"),
    "complexes.glue_s": ("layer", {"complexes.glue"}, "s"),
    "complexes.glue_facets": ("counter", "complexes.glue_facets", "facets"),
    "complexes.load_s": ("layer", {"complexes.SimplicialComplex.load"}, "s"),
    "complexes.spanning_s": ("layer", {"complexes.is_spanning_copy"}, "s"),
    "allocation.allocate_self_s": ("self", {"allocation.allocate"}, "s"),
    "allocation.fill_self_s": ("self", {"allocation.fill_blowup"}, "s"),
    "chain.generate_s": ("layer", {"chain.generate_chain_host"}, "s"),
    "chain.verify_chain_s": ("layer", {"chain.verify_chain"}, "s"),
    "chain.verify_chain_calls": ("counter", "chain.verify_chain", "calls"),
    "chain.spanning_sphere_self_s": ("self", {"chain.spanning_sphere"}, "s"),
    "chain.host_has_edge_calls": ("counter", "chain.host_has_edge_calls", "calls"),
}
UNITS = {metric: unit for metric, (_, _, unit) in PER_LAYER.items()}


def per_layer(spans: list[tuple[int, list]], counts: Counter) -> dict[str, float]:
    """Per-layer metrics of one set of instances (spans given with ids)."""
    index = SpanIndex(spans)
    out = {}
    for metric, (kind, what, _) in PER_LAYER.items():
        if kind == "counter":
            out[metric] = counts[what]
        elif kind == "self":
            out[metric] = index.self_time(what)
        else:
            out[metric] = index.layer_time(what)
    return out
