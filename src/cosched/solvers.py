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

Every random order comes from ``shuffle``, which permutes a list exactly as
``random.Random.shuffle`` does. CPython's shuffle (3.10 to 3.13) swaps each
position i, from the last down to 1, with one drawn by rejection sampling:
``getrandbits(k)`` for k the bit length of i + 1, redrawn while above i.
``shuffle`` makes the same calls in the same order, so it leaves the same
permutation and the same RNG state, but without the stdlib's method call
per item; the run records are those of the stdlib shuffle, which
``test_shuffle_matches_the_stdlib_draw_for_draw`` checks on each
interpreter the tests run on.
"""

from __future__ import annotations

import functools
import math
import random
import typing
from bisect import bisect_left
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field, fields, is_dataclass
from operator import attrgetter

from .decomposition import SearchGroup, gnd
from .geometry import SatelliteSpec
from .problem import Downlink, DynamicProblem, Task, satisfaction_pct

SOLVER_NAMES = ("random", "greedy", "dnss", "0nss", "ddsa", "0dsa")

_BY_START_ID = attrgetter("start", "task_id")

MESSAGE_HEADER_BYTES = 16
PER_REQUEST_BYTES = 9  # 8-byte request id + 1 flag byte


def message_bytes(num_carried_requests: int) -> int:
    return MESSAGE_HEADER_BYTES + PER_REQUEST_BYTES * num_carried_requests


def shuffle(x: list, rng: random.Random) -> None:
    """Shuffle ``x`` in place exactly as ``rng.shuffle(x)`` would, for a
    ``random.Random`` that overrides neither ``random`` nor ``getrandbits``
    (the module docstring says why): the same ``getrandbits(k)`` calls in
    the same order, with k computed once per run of positions i whose
    i + 1 has the same bit length."""
    getrandbits = rng.getrandbits
    i = len(x) - 1
    while i > 0:
        k = (i + 1).bit_length()
        low = (1 << (k - 1)) - 1  # the smallest i for which i + 1 has bit length k
        for i in range(i, low - 1, -1):
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            x[i], x[j] = x[j], x[i]
        i = low - 1


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


_type_hints = functools.cache(typing.get_type_hints)  # resolved once per class


def check_fields(cls: type, values: dict) -> None:
    """``check_kind`` on ``values[name]`` for each field of the dataclass
    ``cls``, in declaration order, with the kind its annotation declares
    (``X | None`` is an optional X). A field that holds a dataclass validates
    itself and is skipped; an annotation ``check_kind`` cannot check is a
    TypeError."""
    hints = _type_hints(cls)
    for f in fields(cls):
        args = typing.get_args(hints[f.name])
        optional = type(None) in args
        kind, *rest = [typing.get_origin(a) or a for a in (args if optional else [hints[f.name]]) if a is not type(None)]
        if not is_dataclass(kind):
            if rest or kind not in _KIND_NAMES:
                raise TypeError(f"{cls.__name__}.{f.name}: no kind check for {hints[f.name]}")
            check_kind(f.name, values[f.name], kind, optional=optional)


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
        check_fields(SolverConfig, vars(self))
        if not 0.0 <= self.p_u <= 1.0:
            raise ValueError(f"p_u: must lie in [0, 1], got {self.p_u}")
        for name in ("max_iters", "gnd_n", "neighborhood_size"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name}: must be >= 1, got {value}")


class ScheduleState:
    """One agent's committed schedule with incremental feasibility checks.

    Holds each task once, indexed by request in ``by_request`` and listed in
    (start, task id) order in ``_tasks``, with their starts in ``_starts``,
    so one bisect over plain floats finds a task's place. It also keeps each
    downlink bucket's capacity and load (bucket b holds the tasks whose
    soonest downlink at or after their end is downlink b; the last bucket,
    past every downlink, is bounded by memory alone) and what already ran:
    ``frozen`` holds the started tasks, which may never be removed,
    ``executed`` their requests, and ``freeze`` alone writes both. Every
    feasibility query adds one to ``checks``.
    """

    def __init__(self, agent: SatelliteSpec, downlinks: list[Downlink]):
        self.agent_id = agent.agent_id
        memory = agent.memory_bytes
        downlinks = sorted(downlinks, key=lambda d: d.start)
        self._dl_starts = [d.start for d in downlinks]
        self._dl_ends = [d.end for d in downlinks]
        self._caps = [min(memory, d.capacity_bytes) for d in downlinks] + [memory]
        self._loads = [0.0] * len(self._caps)
        self.checks = 0  # can_insert calls
        self._starts: list[float] = []
        self._tasks: list[Task] = []
        self.by_request: dict[int, Task] = {}
        self.frozen: set[int] = set()  # task ids
        self.executed: set[int] = set()  # request ids of the frozen tasks

    def tasks(self) -> list[Task]:
        return self._tasks.copy()

    def __len__(self) -> int:
        return len(self._tasks)

    def _holds(self, task: Task) -> bool:
        held = self.by_request.get(task.request_id)
        return held is not None and held.task_id == task.task_id

    def has_request(self, request_id: int) -> bool:
        return request_id in self.by_request

    def bucket(self, task: Task) -> int:
        """Index of the soonest downlink starting at or after the task's end."""
        return bisect_left(self._dl_starts, task.end)

    def _past_ties(self, i: int, task_id: int) -> int:
        """From the first held task starting with ``_starts[i]``, the place
        of ``task_id`` in (start, task id) order among the tasks starting
        then. Held tasks share a start only if they overlap or have zero
        length, so callers come here only when a bisect lands on a tie."""
        starts, tasks = self._starts, self._tasks
        start = starts[i]
        while i < len(starts) and starts[i] == start and tasks[i].task_id < task_id:
            i += 1
        return i

    def can_insert(self, task: Task) -> bool:
        self.checks += 1
        if task.agent_id != self.agent_id:
            return False
        held = self.by_request.get(task.request_id)
        if held is not None and held.task_id == task.task_id:
            return False
        start, end = task.start, task.end
        # processing conflicts: schedule is disjoint, so only the immediate
        # neighbors in start order can overlap
        starts = self._starts
        i = bisect_left(starts, start)
        if i < len(starts) and starts[i] == start:
            i = self._past_ties(i, task.task_id)
        if i and self._tasks[i - 1].end > start:
            return False
        if i < len(starts) and starts[i] < end:
            return False
        # downlink overlap: same argument over the disjoint downlink list,
        # where the last downlink starting before the task ends precedes its bucket
        b = bisect_left(self._dl_starts, end)
        if b and self._dl_ends[b - 1] > start:
            return False
        # capacity before the soonest future downlink
        return not self._loads[b] + task.volume_bytes > self._caps[b]

    def insert(self, task: Task) -> None:
        if task.request_id in self.by_request:
            raise SolverInvariantError(
                f"agent {self.agent_id} already holds a task for request {task.request_id}"
            )
        start, starts = task.start, self._starts
        i = bisect_left(starts, start)
        if i < len(starts) and starts[i] == start:
            i = self._past_ties(i, task.task_id)
        starts.insert(i, start)
        self._tasks.insert(i, task)
        self.by_request[task.request_id] = task
        self._loads[bisect_left(self._dl_starts, task.end)] += task.volume_bytes

    def remove(self, task: Task) -> None:
        if task.task_id in self.frozen:
            raise SolverInvariantError(f"task {task.task_id} is frozen and cannot be removed")
        if not self._holds(task):
            raise SolverInvariantError(f"agent {self.agent_id} does not hold task {task.task_id}")
        start, starts = task.start, self._starts
        i = bisect_left(starts, start)
        if starts[i] == start:
            i = self._past_ties(i, task.task_id)
        del starts[i]
        del self._tasks[i]
        del self.by_request[task.request_id]
        self._loads[bisect_left(self._dl_starts, task.end)] -= task.volume_bytes

    def freeze(self, task: Task) -> None:
        """Mark a held task as run: it stays, and its request is executed.

        The simulation's commit pass calls this after every event for each
        held task that starts at or after the event and before the next
        change time; the tasks that started earlier were frozen by an
        earlier pass."""
        if not self._holds(task):
            raise SolverInvariantError(f"agent {self.agent_id} does not hold task {task.task_id}")
        self.frozen.add(task.task_id)
        self.executed.add(task.request_id)

    def drop_where(self, doomed: Callable[[Task], bool] | None = None) -> None:
        """Remove, in start order, every non-frozen task ``doomed`` accepts
        (every non-frozen task if ``doomed`` is None). One pass: each bucket
        load loses the removed volumes in start order, as one ``remove`` per
        task would."""
        frozen, by_request, loads, dl_starts = self.frozen, self.by_request, self._loads, self._dl_starts
        kept = []
        for task in self._tasks:
            if task.task_id in frozen or (doomed is not None and not doomed(task)):
                kept.append(task)
            else:
                del by_request[task.request_id]
                loads[bisect_left(dl_starts, task.end)] -= task.volume_bytes
        self._tasks = kept
        self._starts = [t.start for t in kept]

    def drop_requests(self, request_ids: set[int]) -> None:
        """Remove, in start order, the held non-frozen tasks of these
        requests: what ``drop_where`` removes for a predicate true on
        exactly these requests, without visiting every held task."""
        by_request, frozen = self.by_request, self.frozen
        doomed = [t for t in map(by_request.get, request_ids) if t is not None and t.task_id not in frozen]
        doomed.sort(key=_BY_START_ID)
        for task in doomed:
            self.remove(task)

    def clear(self) -> None:
        """Remove every non-frozen task: the from-scratch variants' reset."""
        self.drop_where()

    def closest_removable(self, start: float) -> Task | None:
        """Non-frozen scheduled task nearest in start time; ties prefer the
        larger data volume (frees more capacity), then the lower id.

        Walks outward from ``start`` on both sides of the start-ordered list;
        a side stops at the first task farther away than the best so far."""
        starts, tasks, frozen = self._starts, self._tasks, self.frozen
        best = None
        best_key = None
        i = bisect_left(starts, start)
        for side in (range(i - 1, -1, -1), range(i, len(starts))):
            for j in side:
                d = abs(starts[j] - start)
                if best_key is not None and d > best_key[0]:
                    break
                t = tasks[j]
                if t.task_id not in frozen:
                    key = (d, -t.volume_bytes, t.task_id)
                    if best_key is None or key < best_key:
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
    if request_id in sched.by_request:
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
    # the requests the agent may hold: allowed and not executed
    executed = sched.executed
    ok = allowed.difference(state.reported_executed, executed)
    # the held requests outside ``ok``, less the frozen tasks' own, which stay
    sched.drop_requests(sched.by_request.keys() - ok - executed)
    assigned = state.assigned
    assigned.update(sched.by_request)
    assigned &= ok

    now = ctx.now
    pool = [t for t in ctx.problem.tasks_by_agent.get(sched.agent_id, []) if t.start >= now and t.request_id in ok]
    shuffle(pool, rng)
    state.draws += len(pool)
    by_request, can_insert, insert = sched.by_request, sched.can_insert, sched.insert
    for task in pool:
        if task.request_id not in by_request and can_insert(task):
            insert(task)
            assigned.add(task.request_id)


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

    No two groups may share an agent, as none do in gnd's partition of the
    fleet or in the one whole-fleet group: each member's assignments and RNG
    then belong to one group, so a member's executed requests, which no
    round can change, are dropped once, in its group's first round.
    """
    agents = [a for g in groups for a in g.agents]
    if len(set(agents)) != len(agents):
        raise ValueError("search groups share an agent")
    last = {a: set(st.schedule.by_request) for a, st in ctx.states.items()}
    live = [_GroupSearch(g, ctx) for g in groups]
    rounds = 0
    while live and rounds < cfg.max_iters:
        rounds += 1
        live = [s for s in live if s.round(ctx, cfg, last) or cfg.run_all_iterations]
        ctx.record_iteration(rounds)
    return rounds


class _GroupSearch:
    """One group's round state for one search: each member's id, state and
    requests in the group (in id order; every round shuffles a copy), the
    payload each member last sent with the ``last`` set it came from, how
    many payloads carry each request, and the group's executed requests."""

    def __init__(self, group: SearchGroup, ctx: RunContext):
        requests = group.requests
        agent_requests = ctx.problem.agent_requests
        self.requests = requests
        self.members = [
            (a, ctx.states[a], [r for r in agent_requests.get(a, ()) if r in requests])
            for a in group.agents
        ]
        # a search never freezes a task, so the members report the same
        # executed requests in every round, and only the first round's
        # report and drops change anything
        self.executed = set().union(*(st.schedule.executed for _, st, _ in self.members)) & requests
        self.first = True
        self.sent: list[tuple[set[int] | None, set[int]]] = [(None, set())] * len(self.members)
        self.counts: Counter[int] = Counter()  # request -> members whose payload carries it

    def round(self, ctx: RunContext, cfg: SolverConfig, last: dict[int, set[int]]) -> bool:
        """One round; True if any member's scheduled set changed. ``last``
        holds each agent's scheduled requests after the previous round, and
        is brought up to date here.

        The update is ``stochastic_update`` inlined, with its draws in the
        same order: an executed request is dropped, an unassigned one is
        taken iff no other member sent it, and only an assigned one draws,
        keeping its assignment with probability 1 - p_u alone or 1/w
        against w others. ``test_search_records_match_the_reference_search``
        compares whole runs against a search that calls ``stochastic_update``."""
        members, requests, executed = self.members, self.requests, self.executed
        # message exchange: each member broadcasts its scheduled-last-round
        # set; a payload, and its part of ``counts``, is recomputed only
        # when that set changed
        fanout = len(members) - 1
        sent, counts, first = self.sent, self.counts, self.first
        self.first = False
        for k, (a, st, _) in enumerate(members):
            held, payload = sent[k]
            if held is not last[a]:
                held, old = last[a], payload
                payload = held & requests
                sent[k] = (held, payload)
                counts.update(payload - old)
                for rid in old - payload:
                    counts[rid] -= 1
            st.sent_count += fanout
            st.sent_bytes += fanout * message_bytes(len(payload))
            if first:
                st.reported_executed |= executed

        candidates, now = ctx.problem.candidates, ctx.now
        stay = 1.0 - cfg.p_u
        for (a, st, mine), (_, own) in zip(members, sent):
            sched, assigned, rng = st.schedule, st.assigned, st.rng
            by_request, frozen, random = sched.by_request, sched.frozen, rng.random
            if first:
                assigned -= executed  # an executed request loses its assignment
            order = mine.copy()
            shuffle(order, rng)
            # one draw per shuffled request, and one more per assigned
            # request; no executed request is assigned by now
            st.draws += len(order) + len(assigned.intersection(order))
            for rid in order:
                if rid in assigned:
                    w = counts.get(rid, 0) - (rid in own)
                    if random() < (stay if w == 0 else 1.0 / w):
                        if rid not in by_request:
                            schedule_insert(sched, rid, candidates.get((a, rid), []), now)
                    else:
                        assigned.discard(rid)
                elif rid in executed:
                    # unassignment alone never evicts a scheduled task; only
                    # a request executed elsewhere in the group is dropped,
                    # in the first round, after which no member holds it
                    if first:
                        task = by_request.get(rid)
                        if task is not None and task.task_id not in frozen:
                            sched.remove(task)
                elif counts.get(rid, 0) == (rid in own):  # no other member sent it
                    assigned.add(rid)
                    if rid not in by_request:
                        schedule_insert(sched, rid, candidates.get((a, rid), []), now)
        changed = False
        for a, st, _ in members:
            held = st.schedule.by_request.keys()
            if held != last[a]:
                last[a] = set(held)
                changed = True
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
            st.schedule.clear()
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
        now = ctx.now
        for a in sorted(ctx.states):
            sched = ctx.states[a].schedule
            sched.drop_requests(sched.by_request.keys() - active)
            by_request = sched.by_request
            for task in self._pass_order(a, active):
                if task.start >= now and task.request_id not in by_request and sched.can_insert(task):
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
        shuffle(pool, rng)
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
