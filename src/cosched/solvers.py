"""Online solvers: four iterative searches, greedy, random.

The iterative solvers form a 2x2 grid served by one class. One axis is how
agents are grouped: NSS (neighborhood stochastic search) searches the
neighborhoods the geometric decomposition ``gnd`` allocates, DSA (the
distributed stochastic algorithm, the DDCOP baseline) one group of every
agent and every active request. The other axis is what survives an event:
the ``d`` variants (dnss, ddsa) repair their schedules incrementally, the
``0`` variants (0nss, 0dsa) rebuild from the frozen (started) tasks.

All solvers share one event-driven interface: ``on_event(active)`` is invoked
with the active request set once at the start of the run and once per problem
change, after the simulation has set ``ctx.event_index`` and ``ctx.now``, and
must leave every agent's schedule feasible. The simulation's commit pass after
each event froze the held tasks that start before the next change time, so at
every call the frozen tasks are exactly the held ones that started before
``now``; no solver inserts a task that starts before ``now``. The
iterative solvers advance in synchronous rounds; messages sent in round i are
readable in round i+1, and every message is charged to its sender with its
exact byte size. A search group stops after the first round that changes no
member's scheduled request set, since the next round would re-send the same
payloads (``run_all_iterations`` runs all ``max_iters`` rounds instead).
Per-agent RNG streams are derived from the solver seed so parallel and
sequential execution of a round produce identical results.

Each fact of a run has one owner: a ``ScheduleState`` holds what its agent
scheduled and what already ran, and counts its constraint checks; an
``AgentState`` holds the executed requests its search groups reported
(``repair`` reads them with the agent's own) and counts the agent's RNG draws
and sent messages and bytes; a search keeps its round state to itself; and
the ``RunContext`` sums the counters and appends a ``TraceRow`` at every
``record_iteration``.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, insort
from collections.abc import Callable
from dataclasses import dataclass, field

from .decomposition import SearchGroup, gnd
from .geometry import SatelliteSpec
from .problem import Downlink, DynamicProblem, Task, satisfaction_pct

SOLVER_NAMES = ("random", "greedy", "dnss", "0nss", "ddsa", "0dsa")

MESSAGE_HEADER_BYTES = 16
PER_REQUEST_BYTES = 9  # 8-byte request id + 1 flag byte


def message_bytes(num_carried_requests: int) -> int:
    return MESSAGE_HEADER_BYTES + PER_REQUEST_BYTES * num_carried_requests


class SolverInvariantError(Exception):
    """A solver produced an infeasible schedule; always a bug, never recoverable."""


_KIND_NAMES = {float: "a number", int: "an integer", bool: "true or false",
               str: "a string", list: "a list"}


def check_kind(name: str, value, kind: type, *, optional: bool = False) -> None:
    """Raise ValueError naming the setting unless its value is of ``kind``
    (or None, if ``optional``). A ``float`` setting admits ints but not NaN
    or infinity; a bool is never a number, although Python counts it as an
    int."""
    if optional and value is None:
        return
    kinds = (int, float) if kind is float else kind
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, kinds):
        expected = _KIND_NAMES[kind] + (" or null" if optional else "")
        raise ValueError(f"{name}: expected {expected}, got {value!r}")
    if kind is float and not math.isfinite(value):
        raise ValueError(f"{name}: expected a finite number, got {value!r}")


@dataclass
class SolverConfig:
    p_u: float = 0.7
    max_iters: int = 20
    solver_seed: int = 1234
    repair_seed: int = 1
    random_solver_seed: int = 2023
    gnd_n: int = 2
    neighborhood_size: int = 10
    run_all_iterations: bool = False  # run all max_iters rounds, never stop early

    def validate(self) -> None:
        """Raise ValueError naming the first setting of the wrong kind or
        out of range."""
        check_kind("p_u", self.p_u, float)
        for name in ("max_iters", "solver_seed", "repair_seed", "random_solver_seed",
                     "gnd_n", "neighborhood_size"):
            check_kind(name, getattr(self, name), int)
        check_kind("run_all_iterations", self.run_all_iterations, bool)
        if not 0.0 <= self.p_u <= 1.0:
            raise ValueError(f"p_u: must lie in [0, 1], got {self.p_u}")
        for name in ("max_iters", "gnd_n", "neighborhood_size"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name}: must be >= 1, got {value}")


class ScheduleState:
    """One agent's committed schedule with incremental feasibility checks.

    Holds each task once, in a list sorted by (start, task id) and indexed
    by request in ``by_request``, plus per-downlink capacity loads and what
    already ran: ``frozen`` holds the started tasks, which may never be
    removed, ``executed`` their requests, and ``freeze`` alone writes both.
    Every feasibility query adds one to ``checks``.
    """

    def __init__(self, agent: SatelliteSpec, downlinks: list[Downlink]):
        self.agent_id = agent.agent_id
        self.memory = agent.memory_bytes
        self.downlinks = sorted(downlinks, key=lambda d: d.start)
        self._dl_starts = [d.start for d in self.downlinks]
        self.checks = 0  # can_insert calls
        self._starts: list[tuple[float, int, Task]] = []  # (start, task_id, task), sorted
        self.by_request: dict[int, Task] = {}
        self._loads: dict[int, float] = {}
        self.frozen: set[int] = set()  # task ids
        self.executed: set[int] = set()  # request ids of the frozen tasks

    def tasks(self) -> list[Task]:
        return [t for _, _, t in self._starts]

    def __len__(self) -> int:
        return len(self._starts)

    def _holds(self, task: Task) -> bool:
        held = self.by_request.get(task.request_id)
        return held is not None and held.task_id == task.task_id

    def has_request(self, request_id: int) -> bool:
        return request_id in self.by_request

    def bucket(self, task: Task) -> int:
        """Index of the soonest downlink starting at or after the task's end."""
        return bisect_left(self._dl_starts, task.end)

    def _bucket_cap(self, b: int) -> float:
        if b == len(self.downlinks):
            return self.memory
        return min(self.memory, self.downlinks[b].capacity_bytes)

    def can_insert(self, task: Task) -> bool:
        self.checks += 1
        if task.agent_id != self.agent_id or self._holds(task):
            return False
        # processing conflicts: schedule is disjoint, so only the immediate
        # neighbors in start order can overlap
        i = bisect_left(self._starts, (task.start, task.task_id))
        if i > 0 and self._starts[i - 1][2].end > task.start:
            return False
        if i < len(self._starts) and self._starts[i][0] < task.end:
            return False
        # downlink overlap: same argument over the disjoint downlink list,
        # where the last downlink starting before the task ends precedes its bucket
        b = self.bucket(task)
        if b > 0 and self.downlinks[b - 1].end > task.start:
            return False
        # capacity before the soonest future downlink
        if self._loads.get(b, 0.0) + task.volume_bytes > self._bucket_cap(b):
            return False
        return True

    def insert(self, task: Task) -> None:
        if task.request_id in self.by_request:
            raise SolverInvariantError(
                f"agent {self.agent_id} already holds a task for request {task.request_id}"
            )
        insort(self._starts, (task.start, task.task_id, task))
        self.by_request[task.request_id] = task
        b = self.bucket(task)
        self._loads[b] = self._loads.get(b, 0.0) + task.volume_bytes

    def remove(self, task: Task) -> None:
        if task.task_id in self.frozen:
            raise SolverInvariantError(f"task {task.task_id} is frozen and cannot be removed")
        if not self._holds(task):
            raise SolverInvariantError(f"agent {self.agent_id} does not hold task {task.task_id}")
        del self._starts[bisect_left(self._starts, (task.start, task.task_id))]
        del self.by_request[task.request_id]
        b = self.bucket(task)
        self._loads[b] -= task.volume_bytes

    def freeze(self, task: Task) -> None:
        """Mark a held task as run: it stays, and its request is executed.

        The simulation's commit pass calls this after every event for each
        held task that starts before the next change time; freezing a frozen
        task changes nothing."""
        if not self._holds(task):
            raise SolverInvariantError(f"agent {self.agent_id} does not hold task {task.task_id}")
        self.frozen.add(task.task_id)
        self.executed.add(task.request_id)

    def drop_where(self, doomed: Callable[[Task], bool]) -> None:
        """Remove, in start order, every non-frozen task ``doomed`` accepts."""
        for task in self.tasks():
            if task.task_id not in self.frozen and doomed(task):
                self.remove(task)

    def closest_removable(self, start: float) -> Task | None:
        """Non-frozen scheduled task nearest in start time; ties prefer the
        larger data volume (frees more capacity), then the lower id.

        Walks outward from ``start`` on both sides of the start-ordered list;
        a side stops at the first task farther away than the best so far."""
        best = None
        best_key = None
        i = bisect_left(self._starts, (start,))
        for side in (range(i - 1, -1, -1), range(i, len(self._starts))):
            for j in side:
                _, tid, t = self._starts[j]
                key = (abs(t.start - start), -t.volume_bytes, tid)
                if best_key is not None and key[0] > best_key[0]:
                    break
                if tid not in self.frozen and (best_key is None or key < best_key):
                    best, best_key = t, key
        return best


def fresh_schedules(problem: DynamicProblem) -> dict[int, ScheduleState]:
    """An empty schedule for every agent of the problem, in agent order."""
    return {
        a.agent_id: ScheduleState(a, problem.downlinks_by_agent.get(a.agent_id, []))
        for a in problem.agents
    }


@dataclass
class AgentState:
    schedule: ScheduleState
    assigned: set[int] = field(default_factory=set)
    reported_executed: set[int] = field(default_factory=set)  # executed requests its groups reported
    rng: random.Random | None = None  # set by the solver that reads it
    draws: int = 0  # RNG draws, one per shuffled item or stochastic_update draw
    sent_bytes: int = 0
    sent_count: int = 0  # messages sent


@dataclass
class TraceRow:
    event: int
    iteration: int
    satisfied: int
    satisfaction_pct: float
    message_bytes: int
    op_count: int


@dataclass
class RunContext:
    """One run's state: the problem, per-agent state and the trace."""

    problem: DynamicProblem
    states: dict[int, AgentState]
    now: float = 0.0
    event_index: int = 0
    trace: list[TraceRow] = field(default_factory=list)

    def totals(self) -> tuple[int, int, int, int]:
        """The run's constraint checks, RNG draws, message bytes and messages so far, summed over agents."""
        checks = draws = sent_bytes = sent_count = 0
        for st in self.states.values():  # one pass: this runs at every recorded iteration
            checks, draws = checks + st.schedule.checks, draws + st.draws
            sent_bytes, sent_count = sent_bytes + st.sent_bytes, sent_count + st.sent_count
        return checks, draws, sent_bytes, sent_count

    def record_iteration(self, iteration: int) -> None:
        """Append the row of this event's ``iteration``: how many ever-active
        requests some agent holds, and the counters so far."""
        held = set().union(*(st.schedule.by_request for st in self.states.values()))
        sat = len(held & self.problem.ever_active)
        pct = satisfaction_pct(sat, len(self.problem.ever_active))
        checks, draws, sent_bytes, _ = self.totals()
        self.trace.append(TraceRow(self.event_index, iteration, sat, pct, sent_bytes, checks + draws))


def stochastic_update(executed: bool, assigned: bool, w: int, p_u: float, rng) -> bool:
    """Assignment decision for one request under the stochastic update scheme.

    Probability of staying/becoming assigned: 0 if the request was executed;
    1 if unassigned with no competitor; 0 if unassigned with competitors;
    1 - p_u if assigned and uncontested; 1/w if assigned against w others.
    Only these last two cases draw from ``rng``, once each.
    """
    if executed:
        return False
    if not assigned:
        return w == 0
    if w == 0:
        return rng.random() < 1.0 - p_u
    return rng.random() < 1.0 / w


def schedule_insert(sched: ScheduleState, request_id: int, candidates: list[Task], now: float) -> bool:
    """Try to place a task for the request, allowing one displacement.

    Candidates are tried in ascending start order. If a candidate does not
    fit, the scheduled task closest in start time is removed and the insert
    retried; on failure the removed task is restored. A displaced task's
    request stays assigned, so the agent may re-schedule it later.
    """
    if sched.has_request(request_id):
        return True
    for task in candidates:
        if task.start < now:
            continue
        if sched.can_insert(task):
            sched.insert(task)
            return True
        victim = sched.closest_removable(task.start)
        if victim is None:
            continue
        sched.remove(victim)
        if sched.can_insert(task):
            sched.insert(task)
            return True
        sched.insert(victim)
    return False


def repair(state: AgentState, allowed: frozenset[int], ctx: RunContext, rng: random.Random) -> None:
    """Drop tasks that left the subproblem, then greedily refill in random order.

    Removes every non-frozen task whose request is outside ``allowed`` or
    already executed, by the agent itself or as its groups reported, then
    shuffles the agent's candidate tasks and inserts each one that fits and
    whose request is not yet held. The result is always feasible.
    """
    sched = state.schedule
    executed = state.reported_executed | sched.executed
    sched.drop_where(lambda t: t.request_id not in allowed or t.request_id in executed)
    state.assigned &= allowed
    state.assigned |= set(sched.by_request) & allowed
    state.assigned -= executed

    pool = [
        t
        for t in ctx.problem.tasks_by_agent.get(sched.agent_id, [])
        if t.request_id in allowed
        and t.request_id not in executed
        and t.start >= ctx.now
    ]
    rng.shuffle(pool)
    state.draws += len(pool)
    for task in pool:
        if not sched.has_request(task.request_id) and sched.can_insert(task):
            sched.insert(task)
            state.assigned.add(task.request_id)


def synchronous_search(groups: list[SearchGroup], ctx: RunContext, cfg: SolverConfig) -> int:
    """Iterate all groups in lockstep for up to max_iters rounds.

    Each round: agents send every other group member the requests they
    scheduled by the end of the previous round, which include the requests
    they executed (charged to the sender), then update each of their
    requests with the stochastic scheme and try insertions. A group stops
    after the first round that changes no member's scheduled request set,
    since the next round would re-send byte-identical payloads. With
    run_all_iterations every group runs all max_iters rounds. Returns the
    number of rounds executed.
    """
    last = {a: set(st.schedule.by_request) for a, st in ctx.states.items()}
    rounds = 0
    live = list(groups)
    while live and rounds < cfg.max_iters:
        rounds += 1
        live = [g for g in live if _search_round(g, ctx, cfg, last) or cfg.run_all_iterations]
        ctx.record_iteration(rounds)
    return rounds


def _search_round(group: SearchGroup, ctx: RunContext, cfg: SolverConfig, last: dict[int, set[int]]) -> bool:
    """One round for one group; True if any member's scheduled set changed.
    ``last`` holds each member's scheduled requests after the previous round,
    and is brought up to date here."""
    states = ctx.states
    members = group.agents
    # message exchange: each member broadcasts its scheduled-last-round set
    counts: dict[int, int] = {}
    group_executed: set[int] = set()
    payloads: dict[int, set[int]] = {}
    for a in members:
        st = states[a]
        payload = last[a] & group.requests
        payloads[a] = payload
        for rid in payload:
            counts[rid] = counts.get(rid, 0) + 1
        group_executed |= st.schedule.executed & group.requests
        fanout = len(members) - 1
        st.sent_count += fanout
        st.sent_bytes += fanout * message_bytes(len(payload))
    for a in members:
        states[a].reported_executed |= group_executed

    for a in members:
        st = states[a]
        mine = [rid for rid in ctx.problem.agent_requests.get(a, []) if rid in group.requests]
        st.rng.shuffle(mine)
        st.draws += len(mine)
        own_payload = payloads[a]
        for rid in mine:
            w = counts.get(rid, 0) - (1 if rid in own_payload else 0)
            executed, assigned = rid in group_executed, rid in st.assigned
            st.draws += assigned and not executed  # stochastic_update's one draw
            if stochastic_update(executed, assigned, w, cfg.p_u, st.rng):
                st.assigned.add(rid)
                if not st.schedule.has_request(rid):
                    schedule_insert(st.schedule, rid, ctx.problem.candidates.get((a, rid), []), ctx.now)
            else:
                st.assigned.discard(rid)
                if executed:
                    # unassignment alone never evicts a scheduled task; only a
                    # request executed elsewhere in the group is dropped here
                    task = st.schedule.by_request.get(rid)
                    if task is not None and task.task_id not in st.schedule.frozen:
                        st.schedule.remove(task)
    changed = False
    for a in members:
        new_sched = set(states[a].schedule.by_request)
        changed |= new_sched != last[a]
        last[a] = new_sched
    return changed


# ---------------------------------------------------------------------------
# solvers


class Solver:
    name = "base"

    def __init__(self, ctx: RunContext, cfg: SolverConfig):
        self.ctx = ctx
        self.cfg = cfg

    def on_event(self, active: frozenset[int]) -> None:
        raise NotImplementedError


class SearchSolver(Solver):
    """dnss, 0nss, ddsa and 0dsa: the module docstring's 2x2 grid."""

    def __init__(self, ctx: RunContext, cfg: SolverConfig, name: str):
        super().__init__(ctx, cfg)
        self.name = name
        self.incremental = name.startswith("d")
        self.decompose = name.endswith("nss")
        for a, st in ctx.states.items():
            st.rng = random.Random(f"solver:{cfg.solver_seed}:{a}")

    def _clear_mutable_state(self) -> None:
        """Reset to the frozen tasks only (the from-scratch variants)."""
        for st in self.ctx.states.values():
            st.schedule.drop_where(lambda t: True)
            st.assigned = set()

    def on_event(self, active: frozenset[int]) -> None:
        ctx = self.ctx
        problem = ctx.problem
        if self.decompose:
            # decomposition: pure local computation, zero messages
            groups = gnd(
                {rid: problem.requests[rid] for rid in active},
                problem.agents,
                problem.request_agents,
                n=self.cfg.gnd_n,
                neighborhood_size=self.cfg.neighborhood_size,
            ).neighborhoods
        else:
            groups = [SearchGroup(tuple(sorted(ctx.states)), active)]
        if not self.incremental:
            self._clear_mutable_state()
        # iteration 0: state carried into the event, before any repair work
        ctx.record_iteration(0)
        for group in groups:
            for a in group.agents:
                rng = random.Random(f"repair:{self.cfg.repair_seed}:{ctx.event_index}:{a}")
                repair(ctx.states[a], group.requests, ctx, rng)
        synchronous_search(groups, ctx, self.cfg)


class GreedySolver(Solver):
    """Single ascending-start insertion pass per agent; no communication."""

    name = "greedy"

    def on_event(self, active: frozenset[int]) -> None:
        ctx = self.ctx
        ctx.record_iteration(0)
        for a in sorted(ctx.states):
            sched = ctx.states[a].schedule
            sched.drop_where(lambda t: t.request_id not in active)
            for task in self._pass_order(a, active):
                if task.start >= ctx.now and not sched.has_request(task.request_id):
                    if sched.can_insert(task):
                        sched.insert(task)
        ctx.record_iteration(1)

    def _pass_order(self, agent_id: int, active: frozenset[int]) -> list[Task]:
        return [
            t for t in self.ctx.problem.tasks_by_start.get(agent_id, []) if t.request_id in active
        ]


class RandomSolver(GreedySolver):
    """Greedy transition but with a seeded shuffled insertion order."""

    name = "random"

    def _pass_order(self, agent_id: int, active: frozenset[int]) -> list[Task]:
        pool = [
            t
            for t in self.ctx.problem.tasks_by_agent.get(agent_id, [])
            if t.request_id in active
        ]
        rng = random.Random(
            f"random-solver:{self.cfg.random_solver_seed}:{self.ctx.event_index}:{agent_id}"
        )
        rng.shuffle(pool)
        self.ctx.states[agent_id].draws += len(pool)
        return pool


def make_solver(name: str, ctx: RunContext, cfg: SolverConfig) -> Solver:
    if name in ("dnss", "0nss", "ddsa", "0dsa"):
        return SearchSolver(ctx, cfg, name)
    if name == "greedy":
        return GreedySolver(ctx, cfg)
    if name == "random":
        return RandomSolver(ctx, cfg)
    raise ValueError(f"unknown solver {name!r}; expected one of {SOLVER_NAMES}")
