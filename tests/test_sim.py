import dataclasses

from cosched.problem import check_constraints
from cosched.sim import RunMetrics, TraceRow, run, stability_drops
from cosched.solvers import SolverConfig

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
