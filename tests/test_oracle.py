import inspect
import itertools
import math
import random
import sys
import textwrap
import time
from collections import Counter

import pytest

from cosched import oracle
from cosched.geometry import SatelliteSpec
from cosched.oracle import (
    BudgetExhausted,
    OracleResult,
    _construct,
    _schedules,
    branch_and_bound,
    collapse,
    greedy_priority,
    run_oracle,
    swo,
    verify_schedules,
)
from cosched.problem import (
    MB,
    Downlink,
    DynamicProblem,
    Request,
    Snapshot,
    Task,
    TimeInterval,
    check_constraints,
    static_utility,
)
from cosched.scenarios import generate_scenario, preset
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


def _one_agent(tasks, memory_bytes=1e15, downlinks=()):
    """A static, validated one-agent instance whose requests are the tasks'."""
    rids = sorted({t.request_id for t in tasks})
    horizon = max(t.end for t in [*tasks, *downlinks]) + 10.0
    problem = DynamicProblem(
        horizon_s=horizon,
        agents=[SatelliteSpec(0, 0, 0, 45.0, memory_bytes)],
        requests={r: Request(r, r, 0.0, horizon) for r in rids},
        tasks_by_agent={0: sorted(tasks, key=lambda t: (t.start, t.task_id))},
        downlinks_by_agent={0: list(downlinks)},
        snapshots=[Snapshot(0.0, frozenset(rids))],
    )
    problem.validate()
    return collapse(problem)


# Hand-built edge cases of the conflict table, each with its optimum.
EDGE_CASES = {
    # tasks 0 and 1 start together: they conflict; 1 and 2 overlap
    "equal starts": (
        _one_agent([Task(0, 0, 0, 10.0, 20.0, MB), Task(1, 1, 0, 10.0, 30.0, MB),
                    Task(2, 2, 0, 25.0, 40.0, MB)]),
        2,
    ),
    # 0, 1 and 2 abut and do not conflict; 3 overlaps 0 and 1
    "abutting": (
        _one_agent([Task(0, 0, 0, 10.0, 20.0, MB), Task(1, 1, 0, 20.0, 30.0, MB),
                    Task(2, 2, 0, 30.0, 40.0, MB), Task(3, 3, 0, 15.0, 25.0, MB)]),
        3,
    ),
    # one 100 MB bucket: after task 0, tasks 1 and 2 tie in volume and each
    # fills it exactly; after 0 and 1, neither 2 nor 3 fits
    "volume tie at capacity": (
        _one_agent(
            [Task(0, 0, 0, 10.0, 20.0, 60 * MB), Task(1, 1, 0, 30.0, 40.0, 40 * MB),
             Task(2, 2, 0, 50.0, 60.0, 40 * MB), Task(3, 3, 0, 70.0, 80.0, 20 * MB)],
            downlinks=[Downlink(0, 0, 200.0, 210.0, 100 * MB)],
        ),
        3,
    ),
}


def bound_equivalence_instances():
    """64 seeded instances, every other one with so little memory that the
    capacity constraint binds, then the hand-built edge cases."""
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
    return out + [inst for inst, _ in EDGE_CASES.values()]


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


@pytest.mark.parametrize("name", list(EDGE_CASES))
def test_conflict_table_edge_cases_reach_their_optimum(name):
    inst, optimum = EDGE_CASES[name]
    res = branch_and_bound(inst)
    assert res.proven_optimal and res.satisfied == optimum == exhaustive_optimum(inst)


def _mutant(old: str, new: str):
    """``branch_and_bound`` with the one source line ``old`` replaced by ``new``."""
    src = textwrap.dedent(inspect.getsource(oracle.branch_and_bound))
    assert src.count(old) == 1, old
    namespace = dict(vars(oracle))
    exec(compile(src.replace(old, new), oracle.__file__, "exec"), namespace)
    return namespace["branch_and_bound"]


def test_equivalence_corpus_clears_flags_by_overlap_and_by_capacity():
    """A search that skipped the overlap clears, or one that skipped the
    capacity walk, disagrees with the reference on some corpus instance; so
    test_incremental_bound_matches_recomputed_bound would catch either."""
    mutants = {
        "overlap": _mutant("for t in overlaps[task.task_id]:", "for t in ():"),
        "capacity": _mutant("for t in by_volume[key]:", "for t in ():"),
    }
    disagree = Counter()
    for inst in bound_equivalence_instances():
        ref = reference_branch_and_bound(inst)
        for name, mutant in mutants.items():
            try:
                res = mutant(inst)
            except AssertionError:  # verify_schedules rejected a schedule
                disagree[name] += 1
                continue
            disagree[name] += (res.satisfied, res.nodes, _task_ids(res)) != (
                ref.satisfied, ref.nodes, _task_ids(ref)
            )
    assert disagree["overlap"] > 0 and disagree["capacity"] > 0, disagree


def test_insert_rechecks_fewer_tasks_than_its_bucket_holds(monkeypatch):
    """After the initial flags, one ``can_insert`` per candidate, a search
    makes no ``can_insert`` call at all, and it never inserts into a
    ``ScheduleState``; the corpus's searches do insert."""
    can_insert = ScheduleState.can_insert
    counts = Counter()

    def spy_can_insert(self, task):
        counts["checks"] += 1
        return can_insert(self, task)

    def spy_insert(self, task):
        counts["inserts"] += 1

    monkeypatch.setattr(ScheduleState, "can_insert", spy_can_insert)
    monkeypatch.setattr(ScheduleState, "insert", spy_insert)
    satisfied = 0
    for inst in bound_equivalence_instances():
        counts.clear()
        res = branch_and_bound(inst)
        assert counts == Counter(checks=sum(len(ts) for ts in inst.candidates.values())), counts
        satisfied += res.satisfied
    assert satisfied > 0


def reference_swo(inst, *, rounds: int = 50) -> OracleResult:
    """SWO as it was before it stopped at a fixed point: every round runs."""
    priority = greedy_priority(inst)
    jump = max(1, math.ceil(len(inst.problem.ever_active) / 10))
    best_count = -1
    best_schedules: dict = {}
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
    return OracleResult(best_count, False, best_schedules, rounds=done)


@pytest.fixture(scope="module")
def tiny_instances():
    return [collapse(generate_scenario(preset("tiny"), i).problem) for i in range(30)]


@pytest.mark.parametrize("rounds", [1, 20, 50])
def test_swo_matches_every_round_reference(monkeypatch, tiny_instances, rounds):
    """SWO's fixed-point stop changes no result: the same satisfied count,
    reported rounds and schedules as running every round, on the equivalence
    corpus and the tiny scenarios; and it does stop early somewhere."""
    built = Counter()

    def spy_construct(inst, priority):
        built["rounds"] += 1
        return _construct(inst, priority)

    monkeypatch.setattr(oracle, "_construct", spy_construct)
    stopped = 0
    for inst in bound_equivalence_instances() + tiny_instances:
        built.clear()
        new, ref = swo(inst, rounds=rounds), reference_swo(inst, rounds=rounds)
        assert (new.satisfied, new.rounds, _task_ids(new)) == (ref.satisfied, ref.rounds, _task_ids(ref))
        stopped += built["rounds"] < new.rounds
    assert stopped > 0 if rounds > 1 else stopped == 0
