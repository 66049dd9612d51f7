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
from dataclasses import dataclass
from itertools import islice

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
    ever_active = problem.ever_active
    candidates: dict[int, list[Task]] = {}
    for task in problem.tasks.values():
        if task.request_id not in ever_active:
            continue  # no snapshot has its request active
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

    The bound is maintained from a conflict table, not recomputed. Before
    the search, every candidate task gets a flag, its ``can_insert`` verdict
    on the empty schedules, and every request a count of its flagged tasks.
    Each candidate also gets its (agent, downlink bucket), whose capacity
    (``ScheduleState.capacity``) and running load the search keeps, and its
    overlap list: the candidates on its agent whose interval overlaps its
    own. Inserting task c adds c's volume to its bucket's load and clears,
    without any ``can_insert`` call:

    - c's own flag, since c is now held;
    - the flag of every task on c's overlap list;
    - in c's bucket, walked in descending volume, each flagged task for which
      ``load + v > cap``, down to the first flagged task that fits. This is
      ``can_insert``'s own capacity test, and it is monotone in v, so every
      smaller task still fits.

    Every flag then equals ``can_insert``'s verdict on the node's schedules.
    A flagged task was insertable before the insert, and the insert changes
    only two of the facts its verdict reads: whether it overlaps a held task
    (now also c) and the load of c's bucket. Its downlink conflicts do not
    depend on which tasks are held. Validated tasks have positive length, so
    two tasks conflict exactly when their intervals overlap, as the overlap
    list records. The flags that cleared are logged and set again when c is
    removed, and the load loses c's volume, which restores the state exactly
    as it was before the insert. The number of remaining requests with a
    flagged task is kept the same way: a count that crosses zero moves it,
    and so does stepping past a request.

    The search holds its path of inserted tasks; the best solution is a copy
    of that path, laid out as schedules once, at the end.
    """
    problem = inst.problem
    order = sorted(
        (rid for rid in problem.ever_active if inst.candidates.get(rid)),
        key=lambda rid: (len(inst.candidates[rid]), rid),
    )
    empty = fresh_schedules(problem)
    best_count = -1
    best_path: list[Task] = []
    nodes = 0
    deadline = time.monotonic() + time_budget_s
    exhausted = False

    insertable: dict[int, bool] = {}  # task id -> can_insert on the current schedules
    count: dict[int, int] = {}  # request id -> number of its insertable tasks
    bucket_of: dict[int, tuple[int, int]] = {}  # task id -> (agent, downlink bucket)
    by_volume: dict[tuple[int, int], list[Task]] = {}  # (agent, downlink bucket) -> tasks
    by_agent: dict[int, list[Task]] = {}
    for rid in order:
        for t in inst.candidates[rid]:
            st = empty[t.agent_id]
            insertable[t.task_id] = st.can_insert(t)
            key = bucket_of[t.task_id] = (t.agent_id, st.bucket(t))
            by_volume.setdefault(key, []).append(t)
            by_agent.setdefault(t.agent_id, []).append(t)
        count[rid] = sum(insertable[t.task_id] for t in inst.candidates[rid])
    for tasks in by_volume.values():
        tasks.sort(key=lambda t: (-t.volume_bytes, t.task_id))
    cap = {key: empty[key[0]].capacity(key[1]) for key in by_volume}
    load = dict.fromkeys(by_volume, 0.0)
    overlaps: dict[int, list[Task]] = {t: [] for t in insertable}  # task id -> the candidates it overlaps
    for tasks in by_agent.values():
        tasks.sort(key=lambda t: (t.start, t.task_id))
        for i, a in enumerate(tasks):
            for b in islice(tasks, i + 1, None):
                if b.start >= a.end:
                    break
                if a.start < b.end and b.start < a.end:
                    overlaps[a.task_id].append(b)
                    overlaps[b.task_id].append(a)
    position = {rid: i for i, rid in enumerate(order)}
    depth = 0  # the current node's index into ``order``
    live = sum(1 for rid in order if count[rid])  # requests in order[depth:] with a positive count
    path: list[Task] = []  # the inserted tasks, root first

    def insert(task: Task) -> list[Task]:
        """Insert task; return the tasks whose flag the insert cleared."""
        nonlocal live
        path.append(task)
        key = bucket_of[task.task_id]
        load[key] += task.volume_bytes
        insertable[task.task_id] = False
        cleared = [task]
        for t in overlaps[task.task_id]:
            if insertable[t.task_id]:
                insertable[t.task_id] = False
                cleared.append(t)
        filled, room = load[key], cap[key]
        for t in by_volume[key]:
            if insertable[t.task_id]:
                if not filled + t.volume_bytes > room:
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
        path.pop()
        load[bucket_of[task.task_id]] -= task.volume_bytes
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
        nonlocal nodes, best_count, best_path, exhausted
        nodes += 1
        if nodes > node_budget or (nodes % 1024 == 0 and time.monotonic() > deadline):
            exhausted = True
            raise BudgetExhausted
        if satisfied > best_count:
            best_count = satisfied
            best_path = path.copy()
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
    held: dict[int, list[Task]] = {}
    for t in best_path:
        held.setdefault(t.agent_id, []).append(t)
    result = OracleResult(
        satisfied=best_count,
        proven_optimal=not exhausted,
        schedules={
            a.agent_id: sorted(held[a.agent_id], key=lambda t: (t.start, t.task_id))
            for a in problem.agents
            if a.agent_id in held
        },
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

    The next order depends on the current order alone, so once a round's
    promotion leaves the order unchanged every later round would build the
    same schedules, and the search stops there. ``rounds`` in the result
    counts the rounds the loop would have run: the round that satisfied
    every request, or else all of them (at least one), whether built or not.
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
        promoted = sorted(priority, key=lambda rid: keys[rid])
        if promoted == priority:  # a fixed point: no later round differs
            done = max(1, rounds)
            break
        priority = promoted
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
