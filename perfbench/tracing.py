"""In-memory spans and the wrappers that record them around cosched's layers.

A span records a name, start, end, parent span and group; spans of one
(scenario, solver, seed set) share a group. Wrappers are installed on the
module attribute each caller looks the function up through, and removed when
the pass ends, so the program itself is never edited.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from cosched import geometry, oracle, scenarios, sim, solvers


class Spans:
    """Append-only span log kept in flat arrays (about 30 bytes a span)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.groups: list[str] = ["-"]
        self._group = 0
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.group = array("i")
        self._stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def set_group(self, label: str) -> None:
        self._group = len(self.groups)
        self.groups.append(label)

    def open(self, nid: int) -> int:
        i = len(self.start)
        stack = self._stack
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.group.append(self._group)
        self.end.append(0.0)
        stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        i = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(i)

    def wrap(self, fn: Callable, name: str, on_result: Callable | None = None) -> Callable:
        nid = self.name_id(name)

        def wrapper(*args, **kwargs):
            i = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(i)
            if on_result is not None:
                on_result(self.counters, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- summaries -------------------------------------------------------

    def durations(self, name: str) -> np.ndarray:
        nid = self._name_ids.get(name)
        if nid is None:
            return np.zeros(0)
        names = np.frombuffer(self.name, dtype=np.int32)
        sel = names == nid
        return np.frombuffer(self.end)[sel] - np.frombuffer(self.start)[sel]

    def total(self, name: str) -> float:
        return float(self.durations(name).sum())

    def table(self) -> dict[str, tuple[int, float, float]]:
        """name -> (count, inclusive seconds, self seconds).

        Self time is a span's duration minus the durations of its children.
        """
        n = len(self.start)
        if n == 0:
            return {}
        names = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        own = dur - child
        k = len(self.names)
        counts = np.bincount(names, minlength=k)
        incl = np.bincount(names, weights=dur, minlength=k)
        selfs = np.bincount(names, weights=own, minlength=k)
        return {
            self.names[j]: (int(counts[j]), float(incl[j]), float(selfs[j]))
            for j in range(k)
            if counts[j]
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            groups=np.array(self.groups),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            group=np.frombuffer(self.group, dtype=np.int32),
        )


# -- wrapper tables --------------------------------------------------------


def _add(key: str, value: Callable):
    def hook(counters, args, kwargs, result):
        counters[key] += value(args, kwargs, result)

    return hook


def _windows(args, kwargs, result) -> int:
    return sum(len(v) for v in result.values())


def _points(args, kwargs, result) -> int:
    times = args[2] if len(args) > 2 else kwargs["times"]
    return int(np.size(times))


def _gnd(counters, args, kwargs, result) -> None:
    counters["decomposition.neighborhoods"] += len(result.neighborhoods)
    counters["decomposition.unallocatable"] += len(result.unallocatable)


def _on_event_wrapper(spans: Spans, make_solver: Callable) -> Callable:
    def timed_make_solver(name, ctx, cfg):
        solver = make_solver(name, ctx, cfg)
        solver.on_event = spans.wrap(solver.on_event, f"solvers.on_event.{solver.name}")
        return solver

    return timed_make_solver


# (owner, attribute, span name, counter hook); the phase timers every run keeps
PHASE_WRAPS = (
    (oracle, "collapse", "oracle.collapse", None),
    (oracle, "branch_and_bound", "oracle.bnb", None),
    (oracle, "swo", "oracle.swo", None),
)

# the layer boundaries only a traced run records
LAYER_WRAPS = (
    (geometry, "batch_access_windows", "geometry.access", _add("geometry.windows", _windows)),
    (geometry, "batch_downlink_windows", "geometry.downlink", _add("geometry.windows", _windows)),
    (geometry, "propagate", "geometry.propagate", _add("geometry.propagate.points", _points)),
    (scenarios, "generate_tasks", "scenarios.tasks", None),
    (solvers, "gnd", "decomposition.gnd", _gnd),
    (solvers, "repair", "solvers.repair", None),
    (solvers, "synchronous_search", "solvers.search", _add("solvers.search.rounds", lambda a, k, r: r)),
    (solvers, "schedule_insert", "solvers.insert", _add("solvers.insert.accepts", lambda a, k, r: bool(r))),
    (sim, "check_constraints", "sim.feasibility", None),
    (solvers.RunContext, "record_iteration", "sim.hook", None),
)


@contextmanager
def installed(spans: Spans, traced: bool) -> Iterator[None]:
    """Install the phase timers (and, when traced, every layer wrapper)."""
    table = PHASE_WRAPS + (LAYER_WRAPS if traced else ())
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in table]
    saved.append((sim, "make_solver", sim.make_solver))
    try:
        for owner, attr, name, hook in table:
            setattr(owner, attr, spans.wrap(getattr(owner, attr), name, hook))
        sim.make_solver = _on_event_wrapper(spans, sim.make_solver)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
