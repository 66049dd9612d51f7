"""Deterministic event-driven simulation of one solver over one scenario.

The run is a pure fold over change events: at each event time, each schedule
freezes its tasks that already started, the problem's active request set is
swapped, the solver takes its step (instantaneous in simulated time), and the
global assignment is snapshotted; the run context keeps the trace. Utility is
evaluated afterwards from the snapshots alone, so a persisted run can be
re-scored independently.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .geometry import SatelliteSpec, Target
from .problem import DynamicProblem, check_constraints, dynamic_utility, satisfaction_pct
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


def _advance(ctx: RunContext, window_start: float, now: float) -> None:
    """Freeze every scheduled task that has started.

    A task in a schedule at the change time ran during the elapsed static
    window; it becomes an immutable fact for the rest of the run. A task of
    positive length ran in the window (change times strictly increase, so it
    starts before ``now``) exactly when it ends after ``window_start`` and
    starts before ``now``, and ``tasks_between`` finds those tasks by
    bisection: ``_assert_feasible`` has just verified that each schedule is
    disjoint, and a validated problem's tasks have positive length, so the
    ends rise with the starts.
    """
    for st in ctx.states.values():
        for task in st.schedule.tasks_between(window_start, now):
            st.schedule.freeze(task)
    ctx.now = now


def _capture_snapshot(ctx: RunContext, active: frozenset[int]) -> set[int]:
    out: set[int] = set()
    for st in ctx.states.values():
        for rid, task in st.schedule.by_request.items():
            if rid in active:
                out.add(task.task_id)
    return out


def run(
    problem: DynamicProblem,
    targets: list[Target],
    solver_name: str,
    cfg: SolverConfig | None = None,
) -> RunResult:
    """Replay the change-event timeline under one solver; fully deterministic.
    ``targets`` is unused until ROADMAP item 1 drops it with perfbench's call sites."""
    cfg = cfg or SolverConfig()
    ctx = build_context(problem)
    solver: Solver = make_solver(solver_name, ctx, cfg)

    agents = {a.agent_id: a for a in problem.agents}
    t0 = time.perf_counter()
    snapshots: list[set[int]] = []
    for t, snap in enumerate(problem.snapshots):
        if t > 0:
            _advance(ctx, problem.snapshots[t - 1].start, snap.start)
        ctx.event_index = t
        solver.on_event(snap.active)
        _assert_feasible(ctx, agents)
        snapshots.append(_capture_snapshot(ctx, snap.active))
    wall = time.perf_counter() - t0

    satisfied = dynamic_utility(snapshots, problem)
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


def _assert_feasible(ctx: RunContext, agents: dict[int, SatelliteSpec]) -> None:
    for aid, st in ctx.states.items():
        verdict = check_constraints(
            st.schedule.tasks(),
            agents[aid].memory_bytes,
            ctx.problem.downlinks_by_agent.get(aid, []),
        )
        if not verdict:
            raise SolverInvariantError(
                f"agent {aid} schedule infeasible after event {ctx.event_index}: "
                f"{verdict.reason} ({verdict.detail})"
            )


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
