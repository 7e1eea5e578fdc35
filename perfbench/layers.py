"""Per-layer measurement for the traced run: spans plus package self time.

Spans are recorded from the benchmark's side, around calls into the
library's public entry points (the library itself is not instrumented):

================  ===========================================
span              wraps
================  ===========================================
workloads.build   ``chain_scenario`` (as the suite calls it)
optimizer         ``RandomizedOptimizer.optimize``
engine.execute    ``Scenario.execute``
workload.run      ``WorkloadRunner.run``
================  ===========================================

``RandomizedOptimizer.optimize`` is wrapped on the class, so the calls
``WorkloadRunner.run`` makes per submission (and recovery replans) are
spans nested inside ``workload.run``.  Spans stay in memory and are
written out with the metrics when the run ends.

Package self time comes from :mod:`cProfile`, run with ``builtins=False``
so that builtins count as their caller's own time (and cost less to
profile): a function's own time goes to the ``src/repro/<package>`` it is
defined in; time in other Python functions (the standard library) goes
to the package of the caller, using the per-caller split the profiler
records.
"""

from __future__ import annotations

import contextlib
import cProfile
import functools
import os
import pstats
import time
import typing
from dataclasses import dataclass

#: Packages whose self time is reported as a per-layer metric.
SELF_TIME_PACKAGES = (
    "costmodel",
    "plans",
    "optimizer",
    "sim",
    "hardware",
    "storage",
    "workload",
    "engine",
    "caching",
    "consistency",
    "faults",
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Recorder.spans
    #: ``evaluations`` of the returned ``OptimizationResult`` (optimizer spans).
    evaluations: int = 0


class Recorder:
    """Collects spans around wrapped callables; one instance per traced round."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, name: str, func: typing.Callable) -> typing.Callable:
        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, time.perf_counter(), 0.0, parent)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = func(*args, **kwargs)
                span.evaluations = getattr(result, "evaluations", 0)
                return result
            finally:
                span.end = time.perf_counter()
                self._stack.pop()

        return traced

    @contextlib.contextmanager
    def patched(self, targets: "list[tuple[object, str, str]]"):
        """Wrap ``owner.attr`` (a module or class attribute) as span ``name``."""
        saved = []
        try:
            for owner, attr, name in targets:
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _ancestors(self, span: Span) -> typing.Iterator[Span]:
        while span.parent is not None:
            span = self.spans[span.parent]
            yield span

    def outermost(self, name: str) -> list[Span]:
        """Spans called ``name`` that are not nested inside another one."""
        return [
            s
            for s in self.spans
            if s.name == name and all(a.name != name for a in self._ancestors(s))
        ]

    def total(self, name: str) -> float:
        return sum(s.end - s.start for s in self.outermost(name))

    def nested_total(self, outer: str, inner: str) -> float:
        """Time of outermost ``inner`` spans that run inside an ``outer`` span."""
        return sum(
            s.end - s.start
            for s in self.outermost(inner)
            if any(a.name == outer for a in self._ancestors(s))
        )

    def as_records(self) -> list[dict]:
        origin = min((s.start for s in self.spans), default=0.0)
        return [
            {
                "name": s.name,
                "start_s": s.start - origin,
                "end_s": s.end - origin,
                "parent": s.parent,
            }
            for s in self.spans
        ]


def package_self_times(profiler: cProfile.Profile, src: str) -> dict[str, float]:
    """Self seconds per ``src/repro`` package (top-level modules: ``repro``)."""
    prefix = os.path.join(os.path.realpath(src), "repro") + os.sep

    def package(func: tuple) -> str | None:
        path = func[0]
        if not path.startswith(prefix):
            path = os.path.realpath(path) if os.path.isabs(path) else path
            if not path.startswith(prefix):
                return None
        head = path[len(prefix):].split(os.sep, 1)
        return head[0] if len(head) == 2 else "repro"

    totals: dict[str, float] = {}
    for func, (_cc, _nc, own, _cum, callers) in pstats.Stats(profiler).stats.items():
        home = package(func)
        if home is not None:
            totals[home] = totals.get(home, 0.0) + own
            continue
        # Outside the library: charge each caller's share to its package.
        charged = 0.0
        for caller, (_ccc, _cnc, caller_own, _ccum) in callers.items():
            owner = package(caller) or "other"
            totals[owner] = totals.get(owner, 0.0) + caller_own
            charged += caller_own
        totals["other"] = totals.get("other", 0.0) + max(0.0, own - charged)
    return totals
