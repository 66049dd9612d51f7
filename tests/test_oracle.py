import itertools
import random
import sys
import time
from collections import Counter, defaultdict

import pytest

from cosched.geometry import SatelliteSpec
from cosched.oracle import (
    BudgetExhausted,
    OracleResult,
    _schedules,
    branch_and_bound,
    collapse,
    run_oracle,
    swo,
    verify_schedules,
)
from cosched.problem import (
    MB,
    DynamicProblem,
    Request,
    Snapshot,
    Task,
    TimeInterval,
    check_constraints,
    static_utility,
)
from cosched.solvers import ScheduleState, fresh_schedules

from conftest import make_problem


def surviving_ids(inst) -> set[int]:
    return {t.task_id for tasks in inst.candidates.values() for t in tasks}


def test_collapse_of_static_problem_is_identity(rng):
    problem, _ = make_problem(rng, n_events=0)
    inst = collapse(problem)
    active = problem.snapshots[0].active
    expected = {t.task_id for t in problem.tasks.values() if t.request_id in active}
    assert surviving_ids(inst) == expected
    assert inst.problem.ever_active == active


def test_collapse_drops_tasks_outside_activity_windows(rng):
    for _ in range(30):
        problem, _ = make_problem(rng, n_events=3)
        surviving = surviving_ids(collapse(problem))
        windows = [problem.static_window(t) for t in range(len(problem.snapshots))]
        for task in problem.tasks.values():
            executable = any(
                task.request_id in snap.active and task.interval.overlaps(TimeInterval(*w))
                for snap, w in zip(problem.snapshots, windows)
            )
            assert (task.task_id in surviving) == executable


def exhaustive_optimum(inst) -> int:
    """Independent exact solver: enumerate every choice of at most one
    candidate task per request and keep the best feasible combination."""
    rids = sorted(inst.candidates)
    options = [[None] + inst.candidates[r] for r in rids]
    problem = inst.problem
    memory = {a.agent_id: a.memory_bytes for a in problem.agents}
    best = 0
    for combo in itertools.product(*options):
        chosen = [t for t in combo if t is not None]
        by_agent: dict[int, list] = {}
        for t in chosen:
            by_agent.setdefault(t.agent_id, []).append(t)
        ok = all(
            check_constraints(ts, memory[a], problem.downlinks_by_agent.get(a, []))
            for a, ts in by_agent.items()
        )
        if ok:
            best = max(best, len(chosen))
    return best


def test_branch_and_bound_matches_exhaustive_enumeration(rng):
    for _ in range(25):
        problem, _ = make_problem(
            rng, n_agents=rng.randint(1, 3), n_requests=rng.randint(2, 6), n_events=2
        )
        inst = collapse(problem)
        if sum(len(c) for c in inst.candidates.values()) > 14:
            continue  # keep enumeration cheap
        res = branch_and_bound(inst)
        assert res.proven_optimal
        assert res.satisfied == exhaustive_optimum(inst)
        verify_schedules(inst, res.schedules)


def test_branch_and_bound_simple_instances(rng):
    # two requests with non-overlapping tasks -> both satisfiable
    problem, _ = make_problem(rng, n_agents=2, n_requests=4, n_events=0)
    inst = collapse(problem)
    res = branch_and_bound(inst)
    assert 0 <= res.satisfied <= len(inst.candidates)
    assert res.proven_optimal


def test_budget_exhaustion_yields_unproven_bound(rng):
    problem, _ = make_problem(rng, n_requests=10, n_events=2)
    inst = collapse(problem)
    res = branch_and_bound(inst, node_budget=1)
    assert not res.proven_optimal
    full = branch_and_bound(inst)
    assert res.satisfied <= full.satisfied


def test_branch_and_bound_restores_recursion_limit():
    """A search deeper than the caller's recursion limit raises the limit for
    its own run only."""
    n = 960  # one recursion level per request: deeper than a 1000-frame limit
    inst = collapse(DynamicProblem(
        horizon_s=10.0 * n,
        agents=[SatelliteSpec(0, 0, 0, 45.0, 1e15)],
        requests={i: Request(i, i, 10.0 * i, 10.0 * i + 5.0) for i in range(n)},
        tasks_by_agent={0: [Task(i, i, 0, 10.0 * i, 10.0 * i + 5.0, MB) for i in range(n)]},
        downlinks_by_agent={},
        snapshots=[Snapshot(0.0, frozenset(range(n)))],
    ))
    caller = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        res = branch_and_bound(inst)
        after = sys.getrecursionlimit()
    finally:
        sys.setrecursionlimit(caller)
    assert after == 1000
    assert res.proven_optimal and res.satisfied == n


def test_oracle_schedules_verified_and_sandwich_holds(rng):
    for _ in range(20):
        problem, _ = make_problem(
            rng, n_agents=rng.randint(1, 4), n_requests=rng.randint(3, 10),
            n_events=rng.randint(0, 3),
        )
        inst = collapse(problem)
        g = swo(inst, rounds=1)
        s = swo(inst, rounds=20)
        b = branch_and_bound(inst)
        assert g.satisfied <= s.satisfied <= b.satisfied
        for res in (g, s, b):
            verify_schedules(inst, res.schedules)
            # reported count is consistent with the returned schedules
            scheduled = {t.task_id for ts in res.schedules.values() for t in ts}
            assert res.satisfied == static_utility(
                scheduled, problem.tasks, problem.ever_active
            )


def test_swo_deterministic(rng):
    problem, _ = make_problem(rng, n_requests=12, n_events=2)
    inst = collapse(problem)
    a, b = swo(inst), swo(inst)
    assert a.satisfied == b.satisfied
    assert a.schedules == b.schedules


def test_run_oracle_dispatch(rng):
    problem, _ = make_problem(rng, n_requests=6, n_events=1)
    assert run_oracle(problem, "bnb").proven_optimal
    assert not run_oracle(problem, "swo").proven_optimal
    with pytest.raises(ValueError):
        run_oracle(problem, "lp-relaxation")


def reference_branch_and_bound(
    inst, *, node_budget: int = 2_000_000, time_budget_s: float = 120.0
) -> OracleResult:
    """The search as it was before its bound became incremental: at every
    node, every remaining request's candidates are re-checked from scratch."""
    order = sorted(
        (rid for rid in inst.problem.ever_active if inst.candidates.get(rid)),
        key=lambda rid: (len(inst.candidates[rid]), rid),
    )
    states = fresh_schedules(inst.problem)
    best_count = -1
    best_schedules: dict = {}
    nodes = 0
    deadline = time.monotonic() + time_budget_s
    exhausted = False

    def insertable(rid: int) -> bool:
        return any(states[t.agent_id].can_insert(t) for t in inst.candidates[rid])

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
        bound = satisfied + sum(1 for rid in order[i:] if insertable(rid))
        if bound <= best_count:
            return
        rid = order[i]
        for task in inst.candidates[rid]:
            st = states[task.agent_id]
            if st.can_insert(task):
                st.insert(task)
                dfs(i + 1, satisfied + 1)
                st.remove(task)
        dfs(i + 1, satisfied)  # skip branch

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, len(order) + 100))
    try:
        dfs(0, 0)
    except BudgetExhausted:
        pass
    finally:
        sys.setrecursionlimit(limit)
    return OracleResult(best_count, not exhausted, best_schedules, nodes=nodes)


def bound_equivalence_instances():
    """64 seeded instances; every other one has so little memory that the
    capacity constraint binds."""
    out = []
    for seed in range(64):
        rng = random.Random(seed)
        kw = dict(
            n_agents=rng.randint(1, 3),
            n_requests=rng.randint(20, 40),
            n_events=rng.randint(0, 3),
        )
        if seed % 2:
            kw["memory_bytes"] = rng.uniform(40, 100) * MB
        problem, _ = make_problem(rng, **kw)
        out.append(collapse(problem))
    return out


def _task_ids(res: OracleResult) -> dict[int, list[int]]:
    return {aid: [t.task_id for t in ts] for aid, ts in res.schedules.items()}


@pytest.mark.parametrize("node_budget", [None, 1, 10, 100], ids=["default", "1", "10", "100"])
def test_incremental_bound_matches_recomputed_bound(node_budget):
    """The incremental bound explores the same nodes, keeps the same best
    schedules and reaches the same verdict as recomputing it at every node."""
    kw = {} if node_budget is None else {"node_budget": node_budget}
    unproven = 0
    for inst in bound_equivalence_instances():
        new, ref = branch_and_bound(inst, **kw), reference_branch_and_bound(inst, **kw)
        assert (new.satisfied, new.proven_optimal, new.nodes) == (
            ref.satisfied, ref.proven_optimal, ref.nodes
        )
        assert _task_ids(new) == _task_ids(ref)
        unproven += not new.proven_optimal
    if node_budget is not None:
        assert unproven > 0  # the budget path is exercised, not just passed through


def _overlap(a: Task, b: Task) -> bool:
    return max(a.start, b.start) < min(a.end, b.end)


def test_equivalence_corpus_clears_flags_by_overlap_and_by_capacity(monkeypatch):
    """Over the equivalence corpus, some insert clears the flag of a task that
    overlaps it, and some insert clears the flag of a task that does not
    overlap it, by capacity alone; so a search that skipped either re-check
    would fail test_incremental_bound_matches_recomputed_bound."""
    can_insert, insert = ScheduleState.can_insert, ScheduleState.insert
    inserted: list[Task] = []  # the search's last insert, once it made one
    clears = Counter()

    def spy_insert(self, task):
        insert(self, task)
        inserted[:] = [task]

    def spy_can_insert(self, task):
        ok = can_insert(self, task)
        if inserted and not ok and task is not inserted[0]:
            clears["overlap" if _overlap(task, inserted[0]) else "capacity"] += 1
        return ok

    monkeypatch.setattr(ScheduleState, "insert", spy_insert)
    monkeypatch.setattr(ScheduleState, "can_insert", spy_can_insert)
    for inst in bound_equivalence_instances():
        inserted.clear()  # the next search's initial flags are not re-checks
        branch_and_bound(inst)
    assert clears["overlap"] > 0 and clears["capacity"] > 0, clears


def test_insert_rechecks_fewer_tasks_than_its_bucket_holds(monkeypatch):
    """On a fixed instance, the re-checks after the inserts are fewer than the
    insertable tasks of the inserts' buckets, which a whole-bucket re-check
    visits, and so fewer than the buckets' sizes."""
    inst = bound_equivalence_instances()[14]
    empty = fresh_schedules(inst.problem)
    buckets = defaultdict(list)
    for tasks in inst.candidates.values():
        for t in tasks:
            buckets[(t.agent_id, empty[t.agent_id].bucket(t))].append(t)
    can_insert, insert = ScheduleState.can_insert, ScheduleState.insert
    counts = Counter()

    def spy_insert(self, task):
        bucket = buckets[(task.agent_id, self.bucket(task))]
        counts["bucket sizes"] += len(bucket)
        counts["whole-bucket re-checks"] += sum(can_insert(self, t) for t in bucket)
        insert(self, task)

    def spy_can_insert(self, task):
        counts["checks"] += 1
        return can_insert(self, task)

    monkeypatch.setattr(ScheduleState, "insert", spy_insert)
    monkeypatch.setattr(ScheduleState, "can_insert", spy_can_insert)
    res = branch_and_bound(inst)
    rechecks = counts["checks"] - sum(len(ts) for ts in inst.candidates.values())
    assert res.proven_optimal
    assert 0 < rechecks < counts["whole-bucket re-checks"] < counts["bucket sizes"], counts
