"""Omniscient offline references: problem collapse, exact search, SWO bound.

The collapse keeps only tasks whose interval overlaps some static window of
an instance in which their request was active; under the executed-task
utility, assignments over the full timeline and assignments over the
collapsed static problem score identically, so solving the collapsed problem
exactly bounds every online solver. These constructions see all change times
up front and are benchmarking tools only.
"""

from __future__ import annotations

import math
import sys
import time
from bisect import bisect_left
from dataclasses import dataclass

from .problem import DynamicProblem, Task, check_constraints, satisfaction_pct
from .solvers import ScheduleState, fresh_schedules

ORACLE_MODES = ("bnb", "swo")  # run_oracle's modes; a config may also say "none"


@dataclass
class CollapsedInstance:
    problem: DynamicProblem
    candidates: dict[int, list[Task]]  # request -> surviving tasks, by start


def collapse(problem: DynamicProblem) -> CollapsedInstance:
    """Restrict to tasks that could ever be executed.

    A task survives iff some snapshot both had its request active and stayed
    the live problem for an interval overlapping the task's own interval.
    """
    windows = [problem.static_window(t) for t in range(len(problem.snapshots))]
    actives = [snap.active for snap in problem.snapshots]
    candidates: dict[int, list[Task]] = {}
    for task in problem.tasks.values():
        for (lo, hi), active in zip(windows, actives):
            if task.request_id in active and max(task.start, lo) < min(task.end, hi):
                candidates.setdefault(task.request_id, []).append(task)
                break
    for lst in candidates.values():
        lst.sort(key=lambda t: (t.start, t.task_id))
    return CollapsedInstance(problem=problem, candidates=candidates)


def _schedules(states: dict[int, ScheduleState]) -> dict[int, list[Task]]:
    return {aid: st.tasks() for aid, st in states.items() if len(st) > 0}


def verify_schedules(inst: CollapsedInstance, schedules: dict[int, list[Task]]) -> None:
    problem = inst.problem
    memory = {a.agent_id: a.memory_bytes for a in problem.agents}
    for aid, tasks in schedules.items():
        verdict = check_constraints(tasks, memory[aid], problem.downlinks_by_agent.get(aid, []))
        if not verdict:
            raise AssertionError(f"agent {aid}: {verdict.reason} ({verdict.detail})")


@dataclass
class OracleResult:
    satisfied: int
    proven_optimal: bool
    schedules: dict[int, list[Task]]
    nodes: int = 0
    rounds: int = 0

    def satisfaction_pct(self, total_requests: int) -> float:
        return satisfaction_pct(self.satisfied, total_requests)


class BudgetExhausted(Exception):
    pass


class _Bucket:
    """One (agent, downlink bucket)'s candidate tasks in start order and in
    descending volume, for ``branch_and_bound``'s re-checks."""

    MARGIN_S = 1.0  # far above the rounding of any task's start or length

    def __init__(self, tasks: list[Task]):
        self.by_start = sorted(tasks, key=lambda t: (t.start, t.task_id))
        self.starts = [t.start for t in self.by_start]
        self.reach = max(t.end - t.start for t in tasks) + self.MARGIN_S
        self.by_volume = sorted(tasks, key=lambda t: (-t.volume_bytes, t.task_id))

    def may_overlap(self, task: Task) -> list[Task]:
        """A superset of the tasks that overlap ``task``: those that start in
        [task.start - reach, task.end). A validated problem has no task of
        zero length, and none could overlap one anyway."""
        lo = bisect_left(self.starts, task.start - self.reach)
        return self.by_start[lo:bisect_left(self.starts, task.end)]


def branch_and_bound(
    inst: CollapsedInstance,
    *,
    node_budget: int = 2_000_000,
    time_budget_s: float = 120.0,
) -> OracleResult:
    """Exact maximum of satisfied requests, depth-first with pruning.

    Requests are expanded in ascending candidate-count order; the bound at a
    node is the satisfied count plus the number of remaining requests that
    still have an individually insertable task. If the node or time budget
    runs out, the best solution found is returned flagged unproven, never
    silently claimed optimal.

    The bound is maintained, not recomputed. Before the search, every
    candidate task gets a flag, its ``can_insert`` verdict on the empty
    schedules, and every request a count of its flagged tasks. Inserting
    task c can only clear flags, and only in c's own downlink bucket on c's
    agent: a task in another bucket shares no capacity with c, and if it
    overlapped c it would also overlap a downlink (the downlink that
    separates the two buckets starts inside one of the two tasks, and c was
    insertable), so its flag is already clear. c's own flag clears without a
    re-check, since c is now held. Within the bucket, any other flag clears
    for one of two reasons, and only those tasks are re-checked with
    ``can_insert``:

    - overlap: the task overlaps c. Every such task starts in
      [c.start - reach, c.end), where reach is the bucket's longest task
      plus a margin far above float rounding, so bisecting the bucket's
      start order over that range finds a superset of them;
    - capacity: the bucket's load rose by c's volume. The bucket's flagged
      tasks are re-checked in descending volume down to the first that
      passes, or that is no larger than a task that passed its overlap
      re-check: ``fl(load + v) > cap`` is monotone in v, so every smaller
      task still fits.

    Any other flagged task neither overlaps c nor lacks room, so its verdict
    stands. The flags that cleared are logged and set again when c is
    removed, which restores the state exactly as it was before the insert.
    The number of remaining requests with a flagged task is kept the same
    way: a count that crosses zero moves it, and so does stepping past a
    request.
    """
    order = sorted(
        (rid for rid in inst.problem.ever_active if inst.candidates.get(rid)),
        key=lambda rid: (len(inst.candidates[rid]), rid),
    )
    states = fresh_schedules(inst.problem)
    best_count = -1
    best_schedules: dict[int, list[Task]] = {}
    nodes = 0
    deadline = time.monotonic() + time_budget_s
    exhausted = False

    insertable: dict[int, bool] = {}  # task id -> can_insert on the current schedules
    count: dict[int, int] = {}  # request id -> number of its insertable tasks
    grouped: dict[tuple[int, int], list[Task]] = {}  # (agent, downlink bucket) -> tasks
    for rid in order:
        for t in inst.candidates[rid]:
            st = states[t.agent_id]
            insertable[t.task_id] = st.can_insert(t)
            grouped.setdefault((t.agent_id, st.bucket(t)), []).append(t)
        count[rid] = sum(insertable[t.task_id] for t in inst.candidates[rid])
    buckets = {key: _Bucket(tasks) for key, tasks in grouped.items()}
    position = {rid: i for i, rid in enumerate(order)}
    depth = 0  # the current node's index into ``order``
    live = sum(1 for rid in order if count[rid])  # requests in order[depth:] with a positive count

    def insert(task: Task) -> list[Task]:
        """Insert task; return the tasks whose flag the insert cleared."""
        nonlocal live
        st = states[task.agent_id]
        st.insert(task)
        bucket = buckets[(task.agent_id, st.bucket(task))]
        insertable[task.task_id] = False
        cleared = [task]
        fits = -math.inf  # the largest volume that passed a re-check
        for t in bucket.may_overlap(task):
            if insertable[t.task_id]:
                if st.can_insert(t):
                    fits = max(fits, t.volume_bytes)
                else:
                    insertable[t.task_id] = False
                    cleared.append(t)
        for t in bucket.by_volume:
            if insertable[t.task_id]:
                if t.volume_bytes <= fits or st.can_insert(t):
                    break
                insertable[t.task_id] = False
                cleared.append(t)
        for t in cleared:
            count[t.request_id] -= 1
            if not count[t.request_id] and position[t.request_id] >= depth:
                live -= 1
        return cleared

    def remove(task: Task, cleared: list[Task]) -> None:
        nonlocal live
        states[task.agent_id].remove(task)
        for t in cleared:
            insertable[t.task_id] = True
            count[t.request_id] += 1
            if count[t.request_id] == 1 and position[t.request_id] >= depth:
                live += 1

    def descend(i: int, satisfied: int) -> None:
        """Search below order[i], with ``live`` stepped past it and back."""
        nonlocal depth, live
        head = count[order[i]] > 0
        depth, live = i + 1, live - head
        dfs(i + 1, satisfied)
        depth, live = i, live + head

    def dfs(i: int, satisfied: int):
        nonlocal nodes, best_count, best_schedules, exhausted
        nodes += 1
        if nodes > node_budget or (nodes % 1024 == 0 and time.monotonic() > deadline):
            exhausted = True
            raise BudgetExhausted
        if satisfied > best_count:
            best_count = satisfied
            best_schedules = _schedules(states)
        if i == len(order):
            return
        if satisfied + live <= best_count:
            return
        for task in inst.candidates[order[i]]:
            if insertable[task.task_id]:
                cleared = insert(task)
                descend(i, satisfied + 1)
                remove(task, cleared)
        descend(i, satisfied)  # skip branch

    # the search recurses twice per request; the caller's limit comes back after
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 2 * len(order) + 100))
    try:
        dfs(0, 0)
    except BudgetExhausted:
        pass
    finally:
        sys.setrecursionlimit(limit)
        # dfs and descend refer to each other; break that cycle so the tables go now
        del dfs, descend
    result = OracleResult(
        satisfied=best_count,
        proven_optimal=not exhausted,
        schedules=best_schedules,
        nodes=nodes,
    )
    verify_schedules(inst, result.schedules)
    return result


def _construct(inst: CollapsedInstance, priority: list[int]) -> tuple[int, dict[int, ScheduleState], set[int]]:
    """Centralized greedy build: earliest feasible task per request, in order."""
    states = fresh_schedules(inst.problem)
    satisfied: set[int] = set()
    for rid in priority:
        for task in inst.candidates.get(rid, []):
            st = states[task.agent_id]
            if st.can_insert(task):
                st.insert(task)
                satisfied.add(rid)
                break
    return len(satisfied), states, satisfied


def greedy_priority(inst: CollapsedInstance) -> list[int]:
    """The start-time greedy order: requests by their earliest candidate task."""
    with_tasks = [rid for rid in inst.problem.ever_active if inst.candidates.get(rid)]
    return sorted(
        with_tasks, key=lambda rid: (inst.candidates[rid][0].start, rid)
    )


def swo(inst: CollapsedInstance, *, rounds: int = 50) -> OracleResult:
    """Squeaky wheel optimization: iterated greedy with priority promotion.

    Starts from the greedy order (so the result never falls below the greedy
    baseline); after each round every unsatisfied request jumps forward
    ceil(requests / 10) positions. Returns the best round, a valid lower
    bound on the optimum.
    """
    priority = greedy_priority(inst)
    jump = max(1, math.ceil(len(inst.problem.ever_active) / 10))
    best_count = -1
    best_schedules: dict[int, list[Task]] = {}
    done = 0
    for rnd in range(max(1, rounds)):
        count, states, satisfied = _construct(inst, priority)
        done = rnd + 1
        if count > best_count:
            best_count = count
            best_schedules = _schedules(states)
        if best_count == len(priority):
            break
        pos = {rid: k for k, rid in enumerate(priority)}
        keys = {
            rid: (pos[rid] - jump if rid not in satisfied else pos[rid], pos[rid])
            for rid in priority
        }
        priority = sorted(priority, key=lambda rid: keys[rid])
    result = OracleResult(best_count, False, best_schedules, rounds=done)
    verify_schedules(inst, result.schedules)
    return result


def run_oracle(problem: DynamicProblem, mode: str) -> OracleResult:
    inst = collapse(problem)
    if mode == "bnb":
        return branch_and_bound(inst)
    if mode == "swo":
        return swo(inst)
    raise ValueError(f"unknown oracle mode {mode!r}; choose from {list(ORACLE_MODES)}")
