"""Observation-scheduling problem model.

A static snapshot pairs a set of active observation requests with the
candidate tasks, downlinks, and constraints of every satellite. A dynamic
problem is a time-ordered sequence of snapshots over one global horizon:
requests are added and removed at change times, and utility is only earned
by tasks that were scheduled during the interval in which they actually ran.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from operator import attrgetter, lt

from .geometry import SatelliteSpec, Target

TASK_DURATION_S = 63.0
MB = 1e6
# per-task data volume: a normal draw, resampled below the floor
TASK_MEAN_VOLUME_BYTES = 50 * MB
TASK_SD_VOLUME_BYTES = 10 * MB
TASK_MIN_VOLUME_BYTES = 1 * MB


class MalformedScheduleError(Exception):
    """Structural defect in a schedule (distinct from infeasibility)."""


class GenerationError(Exception):
    """A scenario cannot be generated from the given inputs."""


@dataclass(frozen=True)
class Request:
    request_id: int
    target_id: int
    start: float
    end: float


@dataclass(frozen=True)
class TimeInterval:
    """A task's [start, end] in seconds, as ``Task.interval`` returns it."""

    start: float
    end: float

    def overlaps(self, other: "TimeInterval") -> bool:
        """True iff the intervals share positive-length time.

        Abutting intervals ([0, 63] and [63, 126]) do not overlap; two tasks
        may be executed back to back.
        """
        return max(self.start, other.start) < min(self.end, other.end)


@dataclass(frozen=True, slots=True)
class Task:
    task_id: int
    request_id: int
    agent_id: int
    start: float
    end: float
    volume_bytes: float

    @property
    def interval(self) -> TimeInterval:
        return TimeInterval(self.start, self.end)


@dataclass(frozen=True)
class Downlink:
    downlink_id: int
    agent_id: int
    start: float
    end: float
    capacity_bytes: float


@dataclass(frozen=True)
class Snapshot:
    """One static problem instance: active requests from ``start`` onward."""

    start: float
    active: frozenset[int]


@dataclass
class DynamicProblem:
    horizon_s: float  # the horizon is [0, horizon_s] seconds
    agents: list[SatelliteSpec]
    requests: dict[int, Request]
    tasks_by_agent: dict[int, list[Task]]
    downlinks_by_agent: dict[int, list[Downlink]]
    snapshots: list[Snapshot]

    def __post_init__(self):
        starts = [s.start for s in self.snapshots]
        if starts and starts[0] != 0.0:
            raise ValueError("first snapshot must start at the horizon start, 0")
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ValueError("change times must be strictly increasing")

    # Views derived from the tasks alone: each is built on first use and then
    # shared, read-only, by every run over this problem.

    @cached_property
    def tasks(self) -> dict[int, Task]:
        """Task id -> task, in ascending task id."""
        listed = (t for tasks in self.tasks_by_agent.values() for t in tasks)
        return {t.task_id: t for t in sorted(listed, key=lambda t: t.task_id)}

    @cached_property
    def tasks_by_start(self) -> dict[int, list[Task]]:
        """Each agent's tasks in (start, task id) order."""
        return {
            aid: sorted(tasks, key=lambda t: (t.start, t.task_id))
            for aid, tasks in self.tasks_by_agent.items()
        }

    @cached_property
    def candidates(self) -> dict[tuple[int, int], list[Task]]:
        """(agent, request) -> the agent's tasks for the request, by start."""
        out: dict[tuple[int, int], list[Task]] = {}
        for aid, tasks in self.tasks_by_start.items():
            for task in tasks:
                out.setdefault((aid, task.request_id), []).append(task)
        return out

    @cached_property
    def agent_requests(self) -> dict[int, list[int]]:
        """Agent -> sorted ids of the requests it has tasks for."""
        out: dict[int, list[int]] = {}
        for aid, rid in sorted(self.candidates):
            out.setdefault(aid, []).append(rid)
        return out

    @cached_property
    def request_agents(self) -> dict[int, set[int]]:
        """Request -> agents with at least one task for it."""
        out: dict[int, set[int]] = {}
        for aid, rid in self.candidates:
            out.setdefault(rid, set()).add(aid)
        return out

    @property
    def num_changes(self) -> int:
        return len(self.snapshots) - 1

    @cached_property
    def ever_active(self) -> frozenset[int]:
        """All requests that were active in at least one snapshot."""
        return frozenset().union(*(s.active for s in self.snapshots))

    def static_window(self, t: int) -> tuple[float, float]:
        """(start, end) of the interval during which snapshot t is the live problem."""
        start = self.snapshots[t].start
        if t + 1 < len(self.snapshots):
            return start, self.snapshots[t + 1].start
        return start, self.horizon_s

    def validate(self) -> None:
        """Raise ValueError on any violated structural invariant."""
        removed_ever: set[int] = set()
        for prev, cur in zip(self.snapshots, self.snapshots[1:]):
            gone = prev.active - cur.active
            added = cur.active - prev.active
            if added & removed_ever:
                raise ValueError("a removed request reappeared")
            removed_ever |= gone
            for rid in added | gone:
                if self.requests[rid].start <= cur.start:
                    raise ValueError(
                        f"request {rid} changed after its window opened"
                    )
        listed: set[int] = set()
        for agent_id, tasks in self.tasks_by_agent.items():
            for task in tasks:
                if task.agent_id != agent_id:
                    raise ValueError(f"tasks_by_agent lists task {task.task_id} of agent {task.agent_id} under agent {agent_id}")
                if task.task_id in listed:
                    raise ValueError(f"tasks_by_agent lists task {task.task_id} twice")
                listed.add(task.task_id)
                if task.start > task.end:
                    raise ValueError(f"task {task.task_id} is inverted: start {task.start} > end {task.end}")
                if task.start == task.end:
                    raise ValueError(f"task {task.task_id} has zero length at {task.start}")
                req = self.requests[task.request_id]
                if not req.start <= task.start <= task.end <= req.end:
                    raise ValueError(f"task {task.task_id} outside its request window")
        for agent_id, dls in self.downlinks_by_agent.items():
            for d in dls:
                if d.agent_id != agent_id:
                    raise ValueError(f"downlinks_by_agent lists downlink {d.downlink_id} of agent {d.agent_id} under agent {agent_id}")
                if d.start > d.end:
                    raise ValueError(f"downlink {d.downlink_id} is inverted: start {d.start} > end {d.end}")
            # in start order, only neighbours can overlap
            for a, b in zip(dls, dls[1:]):
                if b.start < a.start:
                    raise ValueError(f"agent {agent_id} lists downlinks out of start order")
                if max(a.start, b.start) < min(a.end, b.end):
                    raise ValueError(f"agent {agent_id} has overlapping downlinks")


# ---------------------------------------------------------------------------
# constraint checking


@dataclass(frozen=True)
class Verdict:
    feasible: bool
    reason: str | None = None
    detail: str | None = None

    def __bool__(self) -> bool:
        return self.feasible


_BY_START = attrgetter("start")
_BY_START_ID = attrgetter("start", "task_id")


def downlink_bucket(task_end: float, downlink_starts: list[float]) -> int:
    """Index of the soonest downlink starting at or after the task's end.

    Returns len(downlink_starts) for tasks with no future downlink; their
    data is bounded by onboard memory only.
    """
    return bisect_left(downlink_starts, task_end)


def check_constraints(
    tasks: list[Task], memory_bytes: float, downlinks: list[Downlink]
) -> Verdict:
    """Full feasibility check of one agent's schedule, from first principles.

    Verifies: no duplicate tasks and a single agent (structural, raised as
    ``MalformedScheduleError``), no two tasks overlap, no task overlaps a
    downlink, and per-downlink data volume within min(memory, downlink
    capacity). The verdict names the first violation, by priority:
    processing-conflict, then downlink-conflict, then capacity.

    After the structural checks, one walk over the tasks in (start, task id)
    order does the rest; a list whose starts strictly increase, as a
    ``ScheduleState``'s tasks do, is already in that order and is not
    re-sorted. Each step tests the task against its predecessor and
    returns a processing conflict at once; advances a merge sweep over the
    start-sorted downlinks, in which a pointer skips every downlink that ends
    at or before the task's start (task starts never decrease, so no later
    task can overlap it either) and only downlinks starting before the task's
    end are tested; and adds the task's volume to its bucket's load. The
    sweep stops at the first (task, downlink) overlap, which is reported
    after the walk; the bucket loads are checked last, in bucket order. This
    names the same first pair as testing every pair would, for overlapping
    downlink lists too.
    """
    if len({t.task_id for t in tasks}) != len(tasks):
        seen: set[int] = set()
        for t in tasks:
            if t.task_id in seen:
                raise MalformedScheduleError(f"duplicate task id {t.task_id}")
            seen.add(t.task_id)
    agent_ids = {t.agent_id for t in tasks}
    if len(agent_ids) > 1:
        raise MalformedScheduleError(f"schedule mixes agents {sorted(agent_ids)}")

    dls = sorted(downlinks, key=_BY_START)
    n = len(dls)
    dl_starts = [d.start for d in dls]
    dl_ends = [d.end for d in dls]
    loads: dict[int, float] = {}
    conflict: tuple[Task, Downlink] | None = None
    k = 0  # the sweep's pointer; set to n once a conflict is kept
    prev, prev_end = None, -math.inf
    # the running load of bucket b, whose tasks end in (lo, hi]: in start
    # order a bucket's tasks mostly come together, and a bucket met again
    # resumes from its stored load, so each sum still adds in task order
    b, lo, hi, load = None, math.inf, -math.inf, 0.0
    starts = list(map(_BY_START, tasks))
    ordered = tasks if all(map(lt, starts, islice(starts, 1, None))) else sorted(tasks, key=_BY_START_ID)
    for t in ordered:
        start, end = t.start, t.end
        # prev.start <= start, so max(prev.start, start) < min(prev.end, end)
        # reduces to these two comparisons
        if start < prev_end and start < end:
            return Verdict(
                False, "processing-conflict", f"tasks {prev.task_id} and {t.task_id} overlap"
            )
        prev, prev_end = t, end
        while k < n and dl_ends[k] <= start:
            k += 1
        j = k
        while j < n and dl_starts[j] < end:
            if max(start, dl_starts[j]) < min(end, dl_ends[j]):
                conflict, k = (t, dls[j]), n
                break
            j += 1
        if not lo < end <= hi:
            if b is not None:
                loads[b] = load
            b = downlink_bucket(end, dl_starts)
            lo = dl_starts[b - 1] if b > 0 else -math.inf
            hi = dl_starts[b] if b < n else math.inf
            load = loads.get(b, 0.0)
        load += t.volume_bytes
    if b is not None:
        loads[b] = load

    if conflict is not None:
        t, d = conflict
        return Verdict(
            False, "downlink-conflict", f"task {t.task_id} overlaps downlink {d.downlink_id}"
        )
    for b, load in sorted(loads.items()):
        cap = memory_bytes if b == n else min(memory_bytes, dls[b].capacity_bytes)
        if load > cap:
            where = "end of horizon" if b == n else f"downlink {dls[b].downlink_id}"
            return Verdict(
                False, "capacity", f"{load:.0f} B before {where} exceeds {cap:.0f} B"
            )
    return Verdict(True)


# ---------------------------------------------------------------------------
# utilities


def static_utility(
    task_ids: set[int], tasks: dict[int, Task], request_ids: frozenset[int]
) -> int:
    """Number of requests with at least one scheduled task.

    A request is satisfied once; extra tasks for the same request add nothing.
    """
    satisfied = {
        tasks[tid].request_id
        for tid in task_ids
        if tasks[tid].request_id in request_ids
    }
    return len(satisfied)


def executed_task_ids(
    trace: list[set[int]], problem: DynamicProblem
) -> set[int]:
    """Tasks that actually ran: scheduled in a snapshot whose static window
    overlaps the task's interval."""
    if len(trace) != len(problem.snapshots):
        raise ValueError(
            f"trace length {len(trace)} != snapshot count {len(problem.snapshots)}"
        )
    executed: set[int] = set()
    for t, scheduled in enumerate(trace):
        lo, hi = problem.static_window(t)
        active = problem.snapshots[t].active
        for tid in scheduled:
            task = problem.tasks.get(tid)
            if task is None:
                raise ValueError(f"snapshot {t} schedules unknown task {tid}")
            if task.request_id not in active:
                raise ValueError(
                    f"snapshot {t} schedules task {tid} of inactive request "
                    f"{task.request_id}"
                )
            if max(task.start, lo) < min(task.end, hi):
                executed.add(tid)
    return executed


def dynamic_utility(trace: list[set[int]], problem: DynamicProblem) -> int:
    """Number of requests with at least one executed task over the whole run."""
    executed = executed_task_ids(trace, problem)
    satisfied = {problem.tasks[tid].request_id for tid in executed}
    return len(satisfied & problem.ever_active)


def satisfaction_pct(satisfied: int, total: int) -> float:
    """Percentage of ``total`` requests satisfied; 100.0 when there are none."""
    return 100.0 * satisfied / total if total else 100.0


# ---------------------------------------------------------------------------
# generators


def generate_tasks(
    agent_id: int,
    requests: list[Request],
    windows_by_target: dict[int, list[tuple[float, float]]],
    rng,
    *,
    id_start: int = 0,
) -> list[Task]:
    """Candidate tasks for one agent: tile each access window overlapping a
    request window from its start with back-to-back ``TASK_DURATION_S`` tasks.

    Each target's windows are (start, end) pairs that must be sorted by start
    and pairwise disjoint, as ``geometry.batch_windows`` returns them, so
    their ends are sorted too: a bisection skips the windows that end by the
    request's start, and the walk stops at the first window that starts at or
    after its end.

    Data volumes are drawn from a truncated normal (resampled below the
    floor). ``requests`` must come in request id order; tasks follow it, then
    window order, so task ids and volumes are deterministic for a given RNG
    state.
    """
    ends = {tid: [end for _, end in ws] for tid, ws in windows_by_target.items()}
    tasks: list[Task] = []
    next_id = id_start
    for req in requests:
        windows = windows_by_target.get(req.target_id, [])
        k = bisect_right(ends.get(req.target_id, []), req.start)
        while k < len(windows) and windows[k][0] < req.end:
            t0 = max(windows[k][0], req.start)
            end = min(windows[k][1], req.end)
            k += 1
            # tolerance absorbs float noise from window refinement
            while t0 + TASK_DURATION_S <= end + 1e-9:
                vol = rng.gauss(TASK_MEAN_VOLUME_BYTES, TASK_SD_VOLUME_BYTES)
                while vol < TASK_MIN_VOLUME_BYTES:
                    vol = rng.gauss(TASK_MEAN_VOLUME_BYTES, TASK_SD_VOLUME_BYTES)
                tasks.append(
                    Task(
                        task_id=next_id,
                        request_id=req.request_id,
                        agent_id=agent_id,
                        start=t0,
                        end=t0 + TASK_DURATION_S,
                        volume_bytes=vol,
                    )
                )
                next_id += 1
                t0 += TASK_DURATION_S
    return tasks


def generate_campaign(
    targets: list[Target],
    horizon_s: float,
    periodicity_range: tuple[int, int],
    rng,
) -> list[Request]:
    """Periodic observation requests: each target is sampled a periodicity p
    and asked to be observed once within each of p evenly spaced intervals."""
    lo, hi = periodicity_range
    if lo < 1 or hi < lo:
        raise GenerationError(f"empty periodicity range [{lo}, {hi}]")
    requests: list[Request] = []
    for target in sorted(targets, key=lambda t: t.target_id):
        p = rng.randint(lo, hi)
        width = horizon_s / p
        for k in range(p):
            start = k * width
            end = (k + 1) * width if k < p - 1 else horizon_s
            requests.append(Request(len(requests), target.target_id, start, end))
    return requests


def generate_dynamics(
    campaign: list[Request],
    volatility: int,
    horizon_s: float,
    rng,
) -> list[Snapshot]:
    """The active-request timeline: the initial snapshot at time 0, then one
    snapshot per unit of volatility.

    One third of the campaign starts active. Each of the v change events,
    placed uniformly over the final 1 - 2/(3v) of the horizon, adds a 2/(3v)
    fraction of the campaign from the never-activated pool and removes a
    1/(3v) fraction of the currently active set. Removed requests never
    return, and a request is never touched once its window has opened;
    ineligible requests are skipped, which can shrink an event below its
    nominal fraction.
    """
    if volatility < 1:
        raise GenerationError(f"volatility must be >= 1, got {volatility}")
    n = len(campaign)
    if n < 3:
        raise GenerationError(
            f"campaign of {n} requests is too small to seed a one-third active set"
        )
    by_id = {r.request_id: r for r in campaign}
    ids = sorted(by_id)

    init_count = math.ceil(n / 3)
    active = set(rng.sample(ids, init_count))
    pool = set(ids) - active  # never activated yet

    earliest = (2.0 / (3.0 * volatility)) * horizon_s
    times = sorted(rng.uniform(earliest, horizon_s) for _ in range(volatility))

    add_count = math.ceil(n * 2.0 / (3.0 * volatility))
    snapshots = [Snapshot(0.0, frozenset(active))]
    for c in times:
        eligible_add = sorted(rid for rid in pool if by_id[rid].start > c)
        adds = rng.sample(eligible_add, min(add_count, len(eligible_add)))

        remove_count = math.ceil(len(active) / (3.0 * volatility))
        eligible_rem = sorted(rid for rid in active if by_id[rid].start > c)
        removes = rng.sample(eligible_rem, min(remove_count, len(eligible_rem)))

        active |= set(adds)
        active -= set(removes)
        pool -= set(adds)
        snapshots.append(Snapshot(c, frozenset(active)))
    return snapshots
