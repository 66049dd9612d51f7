"""Deterministic event-driven simulation of one solver over one scenario.

The run is a pure fold over the problem's snapshots. At each change time the
solver takes its step on the new active request set (instantaneous in
simulated time). One commit pass then reads each agent's schedule once: it
checks the schedule from first principles, records the held tasks of active
requests in the run's snapshot, freezes the held tasks that start between
now and the next change time, and scores the run as it goes. No solver acts
before the next change time, so those tasks run; and no solver may insert a
task that starts before ``now`` (the pass raises ``SolverInvariantError`` on
one), so at every event the frozen tasks are exactly the held ones that
started before it. A held task of an active request is executed when it
overlaps the snapshot's static window, by ``executed_task_ids``' predicate;
``dynamic_utility`` re-scores a persisted run from its snapshots alone,
independently of this pass. The run context keeps the trace.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .geometry import Target
from .problem import DynamicProblem, check_constraints, satisfaction_pct
from .solvers import (
    AgentState,
    RunContext,
    Solver,
    SolverConfig,
    SolverInvariantError,
    TraceRow,
    fresh_schedules,
    make_solver,
)


@dataclass
class RunMetrics:
    solver: str
    satisfied: int
    total_requests: int
    satisfaction_pct: float
    message_bytes: int
    message_count: int
    constraint_checks: int
    rng_draws: int
    iterations_total: int
    wall_time_s: float
    trace: list[TraceRow] = field(default_factory=list)

    def to_record(self) -> dict:
        return {
            "solver": self.solver,
            "satisfied": self.satisfied,
            "total_requests": self.total_requests,
            "satisfaction_pct": self.satisfaction_pct,
            "message_bytes": self.message_bytes,
            "message_count": self.message_count,
            "constraint_checks": self.constraint_checks,
            "rng_draws": self.rng_draws,
            "iterations_total": self.iterations_total,
            "trace": [
                [r.event, r.iteration, r.satisfied, r.satisfaction_pct, r.message_bytes, r.op_count]
                for r in self.trace
            ],
        }


@dataclass
class RunResult:
    metrics: RunMetrics
    snapshots: list[set[int]]  # scheduled task ids per instance
    final_schedules: dict[int, list[int]]  # agent -> task ids

    def to_record(self) -> dict:
        return {
            "metrics": self.metrics.to_record(),
            "snapshots": [sorted(s) for s in self.snapshots],
            "final_schedules": {str(a): ids for a, ids in sorted(self.final_schedules.items())},
        }


def build_context(problem: DynamicProblem) -> RunContext:
    # Build the problem's derived views here, as set-up: left to first use,
    # their one-off cost would land in the first solver step that reads them.
    problem.tasks_by_start, problem.agent_requests, problem.request_agents
    return RunContext(problem, {aid: AgentState(sched) for aid, sched in fresh_schedules(problem).items()})


def run(
    problem: DynamicProblem,
    targets: list[Target],
    solver_name: str,
    cfg: SolverConfig | None = None,
) -> RunResult:
    """Replay the problem's snapshots under one solver; fully deterministic.
    ``targets`` is unused until ROADMAP item 1 drops it with perfbench's call sites."""
    cfg = cfg or SolverConfig()
    ctx = build_context(problem)
    solver: Solver = make_solver(solver_name, ctx, cfg)

    t0 = time.perf_counter()
    snapshots: list[set[int]] = []
    executed: set[int] = set()  # requests with a task that ran while active
    for t, snap in enumerate(problem.snapshots):
        ctx.event_index, ctx.now = t, snap.start
        solver.on_event(snap.active)
        active = snap.active
        now, next_change = problem.static_window(t)
        scheduled: set[int] = set()
        for agent in problem.agents:
            aid = agent.agent_id
            sched = ctx.states[aid].schedule
            tasks = sched.tasks()
            verdict = check_constraints(
                tasks, agent.memory_bytes, problem.downlinks_by_agent.get(aid, [])
            )
            if not verdict:
                raise SolverInvariantError(
                    f"agent {aid} schedule infeasible after event {t}: "
                    f"{verdict.reason} ({verdict.detail})"
                )
            frozen = sched.frozen
            for task in tasks:
                start = task.start
                if start < now:
                    # an earlier pass froze every held task that started
                    if task.task_id not in frozen:
                        raise SolverInvariantError(
                            f"agent {aid} holds unfrozen task {task.task_id} that starts "
                            f"at {start}, before event {t} at {now}"
                        )
                elif start < next_change:
                    sched.freeze(task)
                if task.request_id in active:
                    scheduled.add(task.task_id)
                    if max(start, now) < min(task.end, next_change):
                        executed.add(task.request_id)
        snapshots.append(scheduled)
    wall = time.perf_counter() - t0

    satisfied = len(executed & problem.ever_active)
    total = len(problem.ever_active)
    checks, draws, sent_bytes, sent_count = ctx.totals()
    metrics = RunMetrics(
        solver=solver.name,
        satisfied=satisfied,
        total_requests=total,
        satisfaction_pct=satisfaction_pct(satisfied, total),
        message_bytes=sent_bytes,
        message_count=sent_count,
        constraint_checks=checks,
        rng_draws=draws,
        iterations_total=len(ctx.trace),
        wall_time_s=wall,
        trace=ctx.trace,
    )
    final = {
        aid: [t.task_id for t in st.schedule.tasks()] for aid, st in ctx.states.items()
    }
    return RunResult(metrics=metrics, snapshots=snapshots, final_schedules=final)


def stability_drops(trace: list[TraceRow], num_events: int) -> list[float]:
    """Per-event quality drop: last pre-event row minus first post-event row."""
    drops = []
    for e in range(1, num_events + 1):
        pre = [r for r in trace if r.event == e - 1]
        post = [r for r in trace if r.event == e]
        if not pre or not post:
            continue
        drops.append(pre[-1].satisfaction_pct - post[0].satisfaction_pct)
    return drops
