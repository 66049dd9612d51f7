import dataclasses
import gc
import hashlib
import json
import random
import weakref

import pytest

from cosched import sim
from cosched.geometry import SatelliteSpec
from cosched.problem import (
    MB,
    Downlink,
    DynamicProblem,
    Request,
    Snapshot,
    Task,
    check_constraints,
    dynamic_utility,
)
from cosched.sim import RunMetrics, TraceRow, run, stability_drops
from cosched.solvers import SOLVER_NAMES, Solver, SolverConfig, SolverInvariantError

from conftest import make_problem


def cfg(**kw):
    base = dict(neighborhood_size=2, max_iters=8)
    base.update(kw)
    return SolverConfig(**base)


def test_runs_are_bit_identical(rng):
    problem, targets = make_problem(rng, n_requests=12, n_events=3)
    for name in ("dnss", "0nss", "ddsa", "0dsa", "greedy", "random"):
        a = run(problem, targets, name, cfg()).to_record()
        b = run(problem, targets, name, cfg()).to_record()
        assert a == b



def test_finished_run_leaves_no_reference_cycle(rng, monkeypatch):
    """Each run's context is freed by reference counting when ``run``
    returns, not left to the cyclic garbage collector."""
    problem, targets = make_problem(rng)
    refs = []
    build = sim.build_context

    def recording_build(*args):
        ctx = build(*args)
        refs.append(weakref.ref(ctx))
        return ctx

    monkeypatch.setattr(sim, "build_context", recording_build)
    gc.collect()
    gc.disable()
    try:
        for name in SOLVER_NAMES:
            run(problem, targets, name, cfg())
            assert refs[-1]() is None, name
    finally:
        gc.enable()

# Record digests pinned for three seeded instances: the SHA-256 of each run
# record serialised with sorted keys. The instances use no geometry and only
# pure-Python floats, so the digests hold on every platform; a refactor that
# moves any of them changed solver behaviour.
PINNED_INSTANCES = [
    (1, dict(n_agents=5, n_requests=14, n_events=3), dict(neighborhood_size=2, max_iters=10)),
    (2, dict(n_agents=3, n_requests=10, n_events=2), dict()),
    (3, dict(n_agents=6, n_requests=18, n_events=4, memory_bytes=90 * MB), dict(neighborhood_size=3)),
]
PINNED_DIGESTS = {
    1: {
        "random": "b4709ca3545b9a15057d4cfde44ace0f85b9003c306ba82672c765e12d3d9d5b",
        "greedy": "660113f7746443d4be816b35f6c2aa31275180e5fe5d2131b48d1a6ab9d85ade",
        "dnss": "1e4c4fbccb88994ac625eae9d633f640a2a45043b62d325b820c5a8373e30343",
        "0nss": "dacd5ba49f32fb0fb8f7d71f756062eb492cdc0678e21f11d071503d404a432f",
        "ddsa": "3d00fb3385f1d3ed6d72dbbf85693872f95e7311acc1fb077396ce40d6a4cd4c",
        "0dsa": "278302b69fcb63a4bc816c962ba71ba0fd801eb22493cbef74e642925a53f56b",
    },
    2: {
        "random": "78a6ba9e0e59deccd3d290edaa8bb11958da8adf48a58e9932ba9e404aaa0b00",
        "greedy": "59d7a51b94fbc91df3d688e23895532820c994042cbcd4ac2e36b0c7125eaf21",
        "dnss": "a16172d525a6e4026cf64d76cdd470beebb2519ef0ad4387d25524b8f3b0da5a",
        "0nss": "d95a6681526e43fed84a5322b2216ba5a8d0dd82b528fb4a76ffe09c3d21ec08",
        "ddsa": "a5512c4dc1de3dbdc5aef7fb778a92acab07dd4a23b5343b0074ed2c490f6761",
        "0dsa": "261010469a9c3595ea4496ef75272759476791042d8473cfdff7b7240c8a1a29",
    },
    3: {
        "random": "d5f9e8bfa5493a1018dc94c17f330b5361909fe355d14ad10d06de963c6f385d",
        "greedy": "67c811d5e4e2d2ce7a103e11cb0db71404abf29e27e451ba89492e9f96336b93",
        "dnss": "67b038412d9bca1ee8a5810a31fb0ed19c9c404c40db6bf3c13d8b36dd60e172",
        "0nss": "578e92957fd3272d112f440986b850c49aa3863bd526124ee70b7ff0e8506e39",
        "ddsa": "9aaf4885d5099e322c964475530f5c89dac3cfafbe5f2f6322c7ab6e94664782",
        "0dsa": "1b5395e2e0b3203e5a4a1d13c1cd289c69f90d739d6f8224a48dd4fb1bee8f72",
    },
}


@pytest.mark.parametrize(
    "seed, problem_kw, cfg_kw", PINNED_INSTANCES, ids=[f"seed{i[0]}" for i in PINNED_INSTANCES]
)
def test_run_records_match_pinned_digests(seed, problem_kw, cfg_kw):
    problem, targets = make_problem(random.Random(seed), **problem_kw)
    digests = {}
    for name in SOLVER_NAMES:
        record = run(problem, targets, name, SolverConfig(**cfg_kw)).to_record()
        digests[name] = hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()
    assert digests == PINNED_DIGESTS[seed]


def test_commit_pass_score_matches_dynamic_utility():
    """The commit pass scores the run as it goes; ``dynamic_utility``
    re-scores the same snapshots independently, and the two must agree."""
    instances = PINNED_INSTANCES + [(seed, dict(n_events=4), {}) for seed in range(8)]
    for seed, problem_kw, cfg_kw in instances:
        problem, targets = make_problem(random.Random(seed), **problem_kw)
        for name in SOLVER_NAMES:
            result = run(problem, targets, name, SolverConfig(**cfg_kw))
            assert result.metrics.satisfied == dynamic_utility(result.snapshots, problem), (
                seed,
                name,
            )


def test_feasibility_checked_once_per_agent_per_event(monkeypatch):
    """The commit pass calls ``check_constraints`` through this module's
    attribute, once per agent per event: the count a profiler that wraps
    ``sim.check_constraints`` reports as the harness's feasibility calls."""
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return check_constraints(*args)

    monkeypatch.setattr(sim, "check_constraints", counting)
    problem, targets = make_problem(random.Random(4), n_agents=5, n_events=4)
    for name in SOLVER_NAMES:
        calls = 0
        run(problem, targets, name, cfg())
        assert calls == len(problem.agents) * len(problem.snapshots), name


def test_wall_time_excluded_from_records(rng):
    problem, targets = make_problem(rng)
    m = run(problem, targets, "greedy", cfg()).metrics
    assert "wall_time_s" not in m.to_record()
    assert m.wall_time_s > 0


def test_final_schedules_feasible_and_frozen_tasks_kept(rng):
    problem, targets = make_problem(rng, n_events=3)
    res = run(problem, targets, "dnss", cfg())
    for agent in problem.agents:
        ids = res.final_schedules[agent.agent_id]
        tasks = [problem.tasks[t] for t in ids]
        assert check_constraints(
            tasks, agent.memory_bytes, problem.downlinks_by_agent.get(agent.agent_id, [])
        )


def test_frozen_tasks_are_the_held_tasks_that_started(monkeypatch):
    """At every event each schedule's frozen tasks are exactly its held tasks
    that start before ``ctx.now``: the commit pass after an event freezes
    what starts before the next change time, and no solver inserts a task
    that starts before ``now``."""
    make = sim.make_solver
    frozen_seen = 0

    def checking_make(name, ctx, c):
        solver = make(name, ctx, c)
        on_event = solver.on_event

        def checked(active):
            nonlocal frozen_seen
            for aid, st in ctx.states.items():
                started = {t.task_id for t in st.schedule.tasks() if t.start < ctx.now}
                assert st.schedule.frozen == started, (name, ctx.event_index, aid)
                frozen_seen += len(started)
            on_event(active)

        solver.on_event = checked
        return solver

    monkeypatch.setattr(sim, "make_solver", checking_make)
    for seed in range(8):
        problem, targets = make_problem(random.Random(seed), n_events=4)
        for name in SOLVER_NAMES:
            run(problem, targets, name, cfg())
    assert frozen_seen > 100  # started tasks are exercised, not just possible


def test_snapshots_only_contain_active_requests(rng):
    problem, targets = make_problem(rng, n_events=3)
    res = run(problem, targets, "ddsa", cfg())
    for snap, scheduled in zip(problem.snapshots, res.snapshots):
        for tid in scheduled:
            assert problem.tasks[tid].request_id in snap.active


def test_trace_counters_monotone(rng):
    problem, targets = make_problem(rng, n_events=2)
    m = run(problem, targets, "dnss", cfg()).metrics
    for a, b in zip(m.trace, m.trace[1:]):
        assert b.message_bytes >= a.message_bytes
        assert b.op_count >= a.op_count
    assert m.trace[-1].message_bytes == m.message_bytes


def test_iteration_zero_recorded_per_event(rng):
    problem, targets = make_problem(rng, n_events=2)
    for name in ("dnss", "0nss", "ddsa", "0dsa"):
        m = run(problem, targets, name, cfg()).metrics
        for e in range(len(problem.snapshots)):
            rows = [r for r in m.trace if r.event == e]
            assert rows and rows[0].iteration == 0


def test_static_problem_has_no_drops(rng):
    problem, targets = make_problem(rng, n_events=0)
    m = run(problem, targets, "dnss", cfg()).metrics
    assert stability_drops(m.trace, 0) == []


def test_stability_drop_arithmetic():
    trace = [
        TraceRow(0, 0, 5, 50.0, 0, 0),
        TraceRow(0, 1, 8, 80.0, 0, 0),
        TraceRow(1, 0, 3, 30.0, 0, 0),
        TraceRow(1, 1, 9, 90.0, 0, 0),
        TraceRow(2, 0, 9, 90.0, 0, 0),
    ]
    assert stability_drops(trace, 2) == [50.0, 0.0]


def test_zero_variants_discard_then_recover(rng):
    """After an event the from-scratch variants start from executed tasks
    only, while incremental variants keep their schedules."""
    problem, targets = make_problem(rng, n_requests=14, n_events=2)
    c = cfg(run_all_iterations=True)
    for inc, zero in (("dnss", "0nss"), ("ddsa", "0dsa")):
        drops_inc = stability_drops(run(problem, targets, inc, c).metrics.trace, 2)
        drops_zero = stability_drops(run(problem, targets, zero, c).metrics.trace, 2)
        assert sum(drops_inc) <= sum(drops_zero) + 1e-9


def two_agent_problem() -> DynamicProblem:
    """Agent 1 has 100 MB of memory and downlinks at [100, 150] and
    [600, 650]; one change event at t=50, before any task starts."""
    agents = [SatelliteSpec(a, 0, a, 45.0, 100 * MB) for a in (0, 1)]
    spans = {
        10: (200.0, 263.0, 60 * MB),  # feasible on its own
        11: (230.0, 293.0, 10 * MB),  # overlaps task 10
        12: (620.0, 683.0, 10 * MB),  # overlaps the second downlink
        13: (300.0, 363.0, 60 * MB),  # 120 MB with task 10 before the second downlink
    }
    tasks = {tid: Task(tid, tid, 1, s, e, v) for tid, (s, e, v) in spans.items()}
    requests = {tid: Request(tid, tid, 0.0, 1000.0) for tid in tasks}
    downlinks = [Downlink(0, 1, 100.0, 150.0, 500 * MB), Downlink(1, 1, 600.0, 650.0, 500 * MB)]
    return DynamicProblem(
        horizon_s=1000.0,
        agents=agents,
        requests=requests,
        tasks_by_agent={0: [], 1: sorted(tasks.values(), key=lambda t: t.start)},
        downlinks_by_agent={0: [], 1: downlinks},
        snapshots=[Snapshot(0.0, frozenset(tasks)), Snapshot(50.0, frozenset(tasks))],
    )


@pytest.mark.parametrize(
    "bad_task, message",
    [
        (11, "processing-conflict (tasks 10 and 11 overlap)"),
        (12, "downlink-conflict (task 12 overlaps downlink 1)"),
        (13, "capacity (120000000 B before downlink 1 exceeds 100000000 B)"),
    ],
)
def test_harness_rejects_solver_that_bypasses_can_insert(monkeypatch, bad_task, message):
    """A solver that inserts an infeasible task without asking can_insert,
    at an event after the first, is stopped by the per-event check."""

    class Corrupting(Solver):
        name = "corrupting"

        def on_event(self, active):
            schedule = self.ctx.states[1].schedule
            if self.ctx.event_index == 0:
                assert schedule.can_insert(self.ctx.problem.tasks[10])
                schedule.insert(self.ctx.problem.tasks[10])
            else:
                bad = self.ctx.problem.tasks[bad_task]
                assert not schedule.can_insert(bad)
                schedule.insert(bad)

    monkeypatch.setattr(sim, "make_solver", lambda name, ctx, c: Corrupting(ctx, c))
    problem = two_agent_problem()
    problem.validate()
    with pytest.raises(SolverInvariantError) as err:
        run(problem, [], "corrupting", cfg())
    assert str(err.value) == f"agent 1 schedule infeasible after event 1: {message}"


def test_harness_rejects_solver_that_inserts_into_the_past(monkeypatch):
    """A solver that inserts, at an event, a feasible task that starts before
    the event's change time is stopped by the commit pass: the task never
    ran, so it may neither be frozen nor scored."""

    class Corrupting(Solver):
        name = "corrupting"

        def on_event(self, active):
            if self.ctx.event_index == 1:
                schedule = self.ctx.states[1].schedule
                past = self.ctx.problem.tasks[13]
                assert past.start < self.ctx.now and schedule.can_insert(past)
                schedule.insert(past)

    monkeypatch.setattr(sim, "make_solver", lambda name, ctx, c: Corrupting(ctx, c))
    problem = two_agent_problem()
    problem = dataclasses.replace(
        problem, snapshots=[problem.snapshots[0], Snapshot(400.0, problem.snapshots[1].active)]
    )
    problem.validate()
    with pytest.raises(SolverInvariantError) as err:
        run(problem, [], "corrupting", cfg())
    assert str(err.value) == (
        "agent 1 holds unfrozen task 13 that starts at 300.0, before event 1 at 400.0"
    )
