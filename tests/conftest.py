"""Shared builders for fast synthetic problem instances.

These builders skip orbital geometry entirely: agents, tasks, downlinks and
change events are drawn directly, which keeps property tests and the
equivalence suite fast while still exercising every data-model invariant.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from cosched.geometry import SatelliteSpec, Target
from cosched.problem import (
    MB,
    Downlink,
    DynamicProblem,
    Request,
    Snapshot,
    Task,
)
from cosched.solvers import fresh_schedules


def pinned_digests(key: str):
    """One section of ``pinned_digests.json``, which holds every pinned
    digest of the suite, keyed by what it pins: a change that means to move
    records edits that one file."""
    return json.loads(Path(__file__).with_name("pinned_digests.json").read_text())[key]


def make_problem(
    rng: random.Random,
    *,
    n_agents: int = 4,
    n_requests: int = 12,
    n_events: int = 3,
    horizon_len: float = 1000.0,
    with_downlinks: bool = True,
    memory_bytes: float = 120 * MB,
) -> tuple[DynamicProblem, list[Target]]:
    """A small synthetic instance with randomized windows, tasks and dynamics."""
    agents = [
        SatelliteSpec(
            agent_id=a,
            plane_index=a % 2,
            slot=a,
            max_off_nadir_deg=45.0,
            memory_bytes=memory_bytes,
        )
        for a in range(n_agents)
    ]
    targets = [
        Target(i, round(rng.uniform(-60, 72), 6), round(rng.uniform(-180, 180), 6))
        for i in range(n_requests)
    ]

    requests: dict[int, Request] = {}
    for i in range(n_requests):
        start = rng.uniform(0.0, 0.6 * horizon_len)
        end = min(horizon_len, start + rng.uniform(0.15 * horizon_len, 0.4 * horizon_len))
        requests[i] = Request(i, i, start, end)

    tasks: dict[int, Task] = {}
    tid = 0
    for req in requests.values():
        for _ in range(rng.randint(1, 4)):
            dur = rng.uniform(10.0, min(60.0, req.end - req.start))
            t0 = rng.uniform(req.start, req.end - dur)
            tasks[tid] = Task(
                task_id=tid,
                request_id=req.request_id,
                agent_id=rng.randrange(n_agents),
                start=t0,
                end=t0 + dur,
                volume_bytes=rng.uniform(1 * MB, 80 * MB),
            )
            tid += 1

    downlinks_by_agent: dict[int, list[Downlink]] = {a: [] for a in range(n_agents)}
    if with_downlinks:
        did = 0
        for a in range(n_agents):
            t0 = rng.uniform(0.3, 0.7) * horizon_len
            for _ in range(rng.randint(1, 2)):
                dur = rng.uniform(20.0, 80.0)
                downlinks_by_agent[a].append(
                    Downlink(did, a, t0, t0 + dur, rng.uniform(60 * MB, 250 * MB))
                )
                did += 1
                t0 += dur + rng.uniform(50.0, 200.0)

    ids = sorted(requests)
    active = set(rng.sample(ids, max(1, len(ids) // 3)))
    pool = set(ids) - active
    snapshots = [Snapshot(0.0, frozenset(active))]
    times = sorted(rng.uniform(0.05 * horizon_len, 0.95 * horizon_len) for _ in range(n_events))
    for c in times:
        addable = sorted(r for r in pool if requests[r].start > c)
        removable = sorted(r for r in active if requests[r].start > c)
        adds = rng.sample(addable, min(len(addable), rng.randint(0, 3)))
        rems = rng.sample(removable, min(len(removable), rng.randint(0, 2)))
        active |= set(adds)
        active -= set(rems)
        pool -= set(adds)
        snapshots.append(Snapshot(c, frozenset(active)))

    problem = DynamicProblem(
        horizon_s=horizon_len,
        agents=agents,
        requests=requests,
        tasks_by_agent=_group_tasks(tasks, n_agents),
        downlinks_by_agent=downlinks_by_agent,
        snapshots=snapshots,
    )
    problem.validate()
    return problem, targets


def _group_tasks(tasks: dict[int, Task], n_agents: int) -> dict[int, list[Task]]:
    grouped: dict[int, list[Task]] = {a: [] for a in range(n_agents)}
    for t in tasks.values():
        grouped[t.agent_id].append(t)
    for lst in grouped.values():
        lst.sort(key=lambda t: (t.start, t.task_id))
    return grouped


def random_trace(problem: DynamicProblem, rng: random.Random) -> list[set[int]]:
    """One feasible assignment per snapshot, built by randomized insertion.

    Each snapshot gets a fresh per-agent schedule; tasks of active requests
    are attempted in shuffled order and kept only if per-agent constraints
    hold, so every snapshot individually satisfies check_constraints.
    """
    trace: list[set[int]] = []
    for snap in problem.snapshots:
        states = fresh_schedules(problem)
        pool = [t for t in problem.tasks.values() if t.request_id in snap.active]
        rng.shuffle(pool)
        scheduled: set[int] = set()
        for task in pool:
            if rng.random() < 0.3:
                continue
            st = states[task.agent_id]
            if not st.has_request(task.request_id) and st.can_insert(task):
                st.insert(task)
                scheduled.add(task.task_id)
        trace.append(scheduled)
    return trace


@pytest.fixture
def rng() -> random.Random:
    return random.Random(12345)
