"""In-memory span recorder for the traced benchmark run.

A span is ``(name, start, end, parent)`` on one ``time.perf_counter`` clock;
``parent`` is the index of the enclosing span, or -1 for a root.  The
benchmark is single-threaded, so spans nest strictly: the open spans form a
stack, and a span's children never overlap each other.

Spans are recorded from outside the program: :func:`instrument` swaps a
tracing wrapper into each layer's public entry point, at the module or class
attribute the caller looks the name up from, and restores the original on
exit.  Nothing in ``src/`` is edited.

``distributed.setup`` is synthetic: it runs from ``Simulator.run`` entry to
the first program-layer call inside that run (a program's ``on_start`` /
``on_round``, or ``try_lower``), i.e. topology, contexts, programs and
metrics construction.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections.abc import Callable, Iterator
from pathlib import Path
from typing import Any

#: Span names whose first call inside a run ends that run's setup span.
PROGRAM_LAYER = frozenset({"core.step", "distributed.lowering"})
RUN = "distributed.run"
SETUP = "distributed.setup"


class Tracer:
    """Spans kept in parallel lists; written out once, when the run ends."""


    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self._awaiting_setup = -1  # run span whose setup span is still open

    def __len__(self) -> int:
        return len(self.names)

    def _record(self, name: str, start: float, parent: int) -> int:
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(start)
        self.parents.append(parent)
        return len(self.names) - 1

    def open(self, name: str) -> int:
        """Open a span as a child of the innermost open span; returns its id."""
        now = self.clock()
        parent = self._stack[-1] if self._stack else -1
        if self._awaiting_setup >= 0 and name in PROGRAM_LAYER:
            run = self._awaiting_setup
            self._awaiting_setup = -1
            setup = self._record(SETUP, self.starts[run], run)
            self.ends[setup] = now
        sid = self._record(name, now, parent)
        self._stack.append(sid)
        if name == RUN:
            self._awaiting_setup = sid
        return sid

    def close(self, sid: int) -> None:
        """Close span ``sid``, which must be the innermost open span."""
        self.ends[sid] = self.clock()
        popped = self._stack.pop()
        if popped != sid:
            raise RuntimeError(f"span {self.names[sid]!r} closed out of order")
        if self._awaiting_setup == sid:
            self._awaiting_setup = -1

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[int]:
        sid = self.open(name)
        try:
            yield sid
        finally:
            self.close(sid)

    def wrap(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        """``fn`` with every call recorded as a span named ``name``."""
        open_, close = self.open, self.close

        def traced(*args: Any, **kwargs: Any) -> Any:
            sid = open_(name)
            try:
                return fn(*args, **kwargs)
            finally:
                close(sid)

        return traced

    # ------------------------------------------------------------ analysis
    def self_times(self, first: int = 0) -> list[float]:
        """Self time of spans ``first..``: duration minus child coverage.

        Children are clipped to their parent's interval and merged, so the
        result is non-negative even if a clock read lands out of order.
        """
        children: dict[int, list[int]] = {}
        for sid in range(first, len(self.names)):
            parent = self.parents[sid]
            if parent >= first:
                children.setdefault(parent, []).append(sid)
        out = []
        for sid in range(first, len(self.names)):
            start, end = self.starts[sid], self.ends[sid]
            covered = 0.0
            cursor = start
            for child in children.get(sid, ()):
                lo = max(self.starts[child], cursor)
                hi = min(self.ends[child], end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out.append(max(0.0, (end - start) - covered))
        return out

    def totals(self, first: int = 0) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, summed ``total_s`` and summed ``self_s``."""
        out: dict[str, dict[str, float]] = {}
        for offset, self_s in enumerate(self.self_times(first)):
            sid = first + offset
            row = out.setdefault(
                self.names[sid], {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            row["calls"] += 1
            row["total_s"] += self.ends[sid] - self.starts[sid]
            row["self_s"] += self_s
        return out

    def child_sums(self, root: str, children: tuple[str, ...]) -> list[dict[str, float]]:
        """For each span named ``root``: summed durations of its direct
        children, per child name in ``children``."""
        rows = {sid: dict.fromkeys(children, 0.0)
                for sid, name in enumerate(self.names) if name == root}
        for sid, name in enumerate(self.names):
            row = rows.get(self.parents[sid])
            if row is not None and name in row:
                row[name] += self.ends[sid] - self.starts[sid]
        return list(rows.values())

    def dump(self, path: Path) -> None:
        """Write every span as JSON: a name table plus one row per span."""
        table = sorted(set(self.names))
        index = {name: i for i, name in enumerate(table)}
        origin = self.starts[0] if self.starts else 0.0
        rows = [
            [index[name], round(start - origin, 9), round(end - origin, 9), parent]
            for name, start, end, parent in zip(
                self.names, self.starts, self.ends, self.parents
            )
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            json.dump(
                {"fields": ["name", "start_s", "end_s", "parent"], "names": table,
                 "spans": rows},
                fh,
                separators=(",", ":"),
            )


class NullTracer:
    """The untraced run's tracer: call-site spans cost one no-op ``with``."""

    _null = contextlib.nullcontext()

    def __len__(self) -> int:
        return 0

    def span(self, name: str) -> contextlib.nullcontext:
        return self._null


# ----------------------------------------------------------- entry points
def _sites() -> list[tuple[object, str, str]]:
    """``(owner, attribute, span name)`` for every wrapped layer entry point.

    Each owner is the namespace the *caller* resolves the name in, so one
    function imported into several modules is wrapped at each of them.
    """
    import repro.core.directed_two_spanner as directed
    import repro.core.star_selection as star_selection
    import repro.core.two_spanner as two_spanner
    import repro.distributed.simulator as simulator
    import repro.spanner.stars as stars
    from repro.distributed.vectorize import MaxFloodKernel
    from repro.flow.dinic import MaxFlowNetwork

    return [
        (simulator.Simulator, "run", RUN),
        (simulator, "try_lower", "distributed.lowering"),
        (MaxFloodKernel, "vector_round", "vectorize.round"),
        (two_spanner, "choose_candidate_star", "core.star_select"),
        (directed, "choose_candidate_star", "core.star_select"),
        (two_spanner, "densest_star", "spanner.densest_star"),
        (star_selection, "densest_star", "spanner.densest_star"),
        (stars, "densest_star", "spanner.densest_star"),
        (stars, "densest_subgraph", "flow.densest"),
        (MaxFlowNetwork, "max_flow", "flow.maxflow"),
    ]


@contextlib.contextmanager
def patched(owner: object, attribute: str, replacement: Any) -> Iterator[None]:
    """Set ``owner.attribute`` to ``replacement``; restore the original on exit.

    An attribute a class inherits is shadowed, then deleted again on exit.
    """
    original = getattr(owner, attribute)
    inherited = isinstance(owner, type) and attribute not in vars(owner)
    setattr(owner, attribute, replacement)
    try:
        yield
    finally:
        if inherited:
            delattr(owner, attribute)
        else:
            setattr(owner, attribute, original)


@contextlib.contextmanager
def instrument(tracer: Tracer, program_classes: tuple[type, ...]) -> Iterator[None]:
    """Wrap every layer entry point, plus ``on_start``/``on_round`` of the
    workload's program classes (as ``core.step``), for the ``with`` body."""
    sites = _sites()
    for cls in program_classes:
        sites.append((cls, "on_start", "core.step"))
        sites.append((cls, "on_round", "core.step"))
    with contextlib.ExitStack() as stack:
        for owner, attribute, name in sites:
            stack.enter_context(
                patched(owner, attribute, tracer.wrap(getattr(owner, attribute), name))
            )
        yield
