"""Spans around calls into altchain's layers, recorded from outside.

`Tracer.installed()` rebinds, for its duration, the module-level names
through which altchain's modules call each other, and restores them
afterwards.  Each wrapped call becomes one span:

    (id, name, parent, thread, request, start, end, cpu, samples)

with start and end from `time.perf_counter`, cpu from
`time.thread_time`, the parent being the innermost open span of the
same thread (or, for an ordered_map item running on a pool thread, the
ordered_map call that scheduled it), and samples the number of time
points of a probability evaluation.  Spans stay in memory and are
written once, as JSON lines, by `write`.

A name that altchain no longer defines is skipped, so its metrics read
zero instead of failing the run.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, NamedTuple

import numpy as np

# (module, attribute, span name).  transfer_probability becomes
# "dynamics.scan" for an array of times and "dynamics.point" for a scalar.
TARGETS = (
    ("altchain.search", "eigensystem_for", "spectral.eigensystem_for"),
    ("altchain.search", "transfer_probability", "dynamics"),
    ("altchain.search", "first_peak", "search.first_peak"),
    ("altchain.search", "ordered_map", "util.ordered_map"),
    ("altchain.spectral", "eigensystem_even", "spectral.even"),
    ("altchain.spectral", "eigensystem_odd", "spectral.odd"),
    ("altchain.spectral", "eigensystem_numeric", "spectral.numeric"),
    ("altchain.spectral", "solve_even_roots", "spectral.solve_even_roots"),
    ("altchain.spectral", "bisect", "roots.bisect"),
)
ITEM = "util.ordered_map.item"
SOLVES = ("spectral.even", "spectral.odd", "spectral.numeric")


class Span(NamedTuple):
    id: int
    name: str
    parent: int
    thread: int
    request: int | None
    start: float
    end: float
    cpu: float
    samples: int

    @property
    def wall(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans while its wrappers are installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _run(self, name: str, body: Callable[[int], object], parent: int | None = None,
             samples: int = 0):
        stack = self._local.__dict__.setdefault("stack", [])
        if parent is None:
            parent = stack[-1] if stack else 0
        sid = next(self._ids)
        stack.append(sid)
        cpu0 = time.thread_time()
        start = time.perf_counter()
        try:
            return body(sid)
        finally:
            end = time.perf_counter()
            cpu = time.thread_time() - cpu0
            stack.pop()
            self.spans.append(Span(sid, name, parent, threading.get_ident(), self.request,
                                   start, end, cpu, samples))

    def _wrap(self, name: str, fn: Callable) -> Callable:
        if name == "dynamics":
            def traced(eig, t, *args, **kwargs):
                scan = np.ndim(t) > 0
                return self._run("dynamics.scan" if scan else "dynamics.point",
                                 lambda _: fn(eig, t, *args, **kwargs),
                                 samples=int(np.size(t)))
        elif name == "util.ordered_map":
            def traced(item_fn, items, *args, **kwargs):
                def body(sid):
                    def item(x):
                        return self._run(ITEM, lambda _: item_fn(x), parent=sid)
                    return fn(item, items, *args, **kwargs)
                return self._run(name, body)
        else:
            def traced(*args, **kwargs):
                return self._run(name, lambda _: fn(*args, **kwargs))
        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for module_name, attr, name in TARGETS:
                module = importlib.import_module(module_name)
                if hasattr(module, attr):
                    saved.append((module, attr, getattr(module, attr)))
                    setattr(module, attr, self._wrap(name, getattr(module, attr)))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span._asdict()) + "\n")


def read(path: str) -> list[Span]:
    with open(path, encoding="utf-8") as handle:
        return [Span(**json.loads(line)) for line in handle]


def self_time(span: Span, children: list[Span]) -> float:
    """Span wall time minus the part of it that its children cover."""
    covered, edge = 0.0, span.start
    for child in sorted(children, key=lambda c: c.start):
        lo, hi = max(child.start, edge), min(child.end, span.end)
        if hi > lo:
            covered += hi - lo
            edge = hi
    return span.wall - covered


def _under(by_id: dict[int, Span], span: Span, name: str) -> bool:
    """Whether some ancestor of span is named name."""
    parent = by_id.get(span.parent)
    while parent is not None:
        if parent.name == name:
            return True
        parent = by_id.get(parent.parent)
    return False


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and times of one traced run, by metric name.

    A probability evaluation is grid work when it runs inside an
    ordered_map item and polish work otherwise.
    """
    by_id = {s.id: s for s in spans}
    by_name: dict[str, list[Span]] = defaultdict(list)
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        children[s.parent].append(s)

    def busy(name: str) -> float:
        return sum(s.wall for s in by_name[name])

    m: dict[str, float] = {}
    for route in ("even", "odd", "numeric"):
        m[f"spectral.{route}.calls"] = len(by_name[f"spectral.{route}"])
        m[f"spectral.{route}.busy_s"] = busy(f"spectral.{route}")
    m["spectral.solve_even_roots.busy_s"] = busy("spectral.solve_even_roots")
    solves = sum(len(by_name[n]) for n in SOLVES)
    m["spectral.us_per_solve"] = (
        1e6 * sum(busy(n) for n in SOLVES) / solves if solves else 0.0
    )
    m["roots.bisect.calls"] = len(by_name["roots.bisect"])
    m["roots.bisect.busy_s"] = busy("roots.bisect")

    scans = by_name["dynamics.scan"]
    m["dynamics.scan.samples"] = sum(s.samples for s in scans)
    m["dynamics.scan.busy_s"] = busy("dynamics.scan")
    m["dynamics.scan.samples_per_s"] = (
        m["dynamics.scan.samples"] / m["dynamics.scan.busy_s"] if scans else 0.0
    )
    m["dynamics.point.calls"] = len(by_name["dynamics.point"])
    m["dynamics.point.busy_s"] = busy("dynamics.point")

    peaks = by_name["search.first_peak"]
    m["search.first_peak.calls"] = len(peaks)
    m["search.first_peak.busy_s"] = busy("search.first_peak")
    m["search.first_peak.self_s"] = sum(self_time(s, children[s.id]) for s in peaks)
    evals = scans + by_name["dynamics.point"]
    polish = [s for s in evals if not _under(by_id, s, ITEM)]
    grid_samples = sum(s.samples for s in evals) - sum(s.samples for s in polish)
    m["search.grid.evals"] = grid_samples
    m["search.polish.evals"] = sum(s.samples for s in polish)
    m["search.polish.busy_s"] = sum(s.wall for s in polish)

    maps, items = by_name["util.ordered_map"], by_name[ITEM]
    m["util.ordered_map.calls"] = len(maps)
    m["util.ordered_map.items"] = len(items)
    m["util.ordered_map.wall_s"] = busy("util.ordered_map")
    m["util.ordered_map.concurrency"] = (
        busy(ITEM) / m["util.ordered_map.wall_s"] if maps else 0.0
    )
    m["util.ordered_map.wait_s"] = sum(s.wall - s.cpu for s in items)
    return m


def design_shares(spans: list[Span]) -> dict[str, float]:
    """The shares that justify the workload design, from one traced run.

    spectral_share_of_items: eigensolve time (spectral + roots) inside
    ordered_map items over item time.  scan_share_of_first_peak: scan
    time inside first_peak over first_peak time, by wall time and by
    thread CPU time (the wall time of a pool thread includes its waits
    for the interpreter lock).
    """
    by_id = {s.id: s for s in spans}
    item_s = sum(s.wall for s in spans if s.name == ITEM)
    solve_s = sum(s.wall for s in spans
                  if s.name == "spectral.eigensystem_for" and _under(by_id, s, ITEM))
    peaks = [s for s in spans if s.name == "search.first_peak"]
    scans = [s for s in spans
             if s.name == "dynamics.scan" and _under(by_id, s, "search.first_peak")]
    peak_s, peak_cpu = sum(s.wall for s in peaks), sum(s.cpu for s in peaks)
    return {
        "spectral_share_of_items": solve_s / item_s if item_s else 0.0,
        "scan_share_of_first_peak": sum(s.wall for s in scans) / peak_s if peak_s else 0.0,
        "scan_cpu_share_of_first_peak": (
            sum(s.cpu for s in scans) / peak_cpu if peak_cpu else 0.0),
    }
