import math
import random
from dataclasses import replace
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from cosched.geometry import Target
from cosched.problem import (
    MB,
    TASK_DURATION_S,
    TASK_MEAN_VOLUME_BYTES,
    TASK_MIN_VOLUME_BYTES,
    TASK_SD_VOLUME_BYTES,
    Downlink,
    GenerationError,
    MalformedScheduleError,
    Request,
    Task,
    TimeInterval,
    Verdict,
    check_constraints,
    downlink_bucket,
    dynamic_utility,
    executed_task_ids,
    generate_campaign,
    generate_dynamics,
    generate_tasks,
    static_utility,
)

from conftest import make_problem, random_trace


def task(tid, rid, start, end, vol=10 * MB, agent=0):
    return Task(tid, rid, agent, start, end, vol)


# ---------------------------------------------------------------------------
# constraints


def test_empty_schedule_feasible():
    assert check_constraints([], 120 * MB, [])


def test_overlapping_tasks_rejected():
    v = check_constraints([task(0, 0, 0, 63), task(1, 1, 30, 93)], 120 * MB, [])
    assert not v and v.reason == "processing-conflict"


def test_abutting_tasks_accepted():
    assert check_constraints([task(0, 0, 0, 63), task(1, 1, 63, 126)], 120 * MB, [])


def test_task_overlapping_downlink_rejected():
    dl = Downlink(0, 0, 50, 150, 500 * MB)
    v = check_constraints([task(0, 0, 100, 163)], 120 * MB, [dl])
    assert not v and v.reason == "downlink-conflict"


def test_capacity_binds_on_min_of_memory_and_downlink():
    # three 50 MB observations before a downlink on a 120 MB-memory agent:
    # 150 MB > min(memory 120 MB, capacity 500 MB) -> infeasible
    dl = Downlink(0, 0, 400, 500, 500 * MB)
    tasks = [task(i, i, i * 63.0, (i + 1) * 63.0, 50 * MB) for i in range(3)]
    v = check_constraints(tasks, 120 * MB, [dl])
    assert not v and v.reason == "capacity"
    # two of them fit (100 MB <= 120 MB)
    assert check_constraints(tasks[:2], 120 * MB, [dl])
    # with more memory, the downlink capacity becomes the binding bound
    v = check_constraints(tasks, 125 * MB, [Downlink(0, 0, 400, 500, 120 * MB)])
    assert not v and v.reason == "capacity"
    assert check_constraints(tasks, 1e12, [dl])


def test_capacity_accrues_to_first_downlink_after_task_end():
    starts = [100.0, 500.0]
    assert downlink_bucket(50.0, starts) == 0
    assert downlink_bucket(100.0, starts) == 0  # abutting: still served
    assert downlink_bucket(101.0, starts) == 1
    assert downlink_bucket(600.0, starts) == 2  # leftover bucket


def test_leftover_bucket_capped_by_memory():
    # a task after the last downlink is bounded by onboard memory only
    dl = Downlink(0, 0, 10, 20, 500 * MB)
    v = check_constraints([task(0, 0, 30, 93, vol=130 * MB)], 120 * MB, [dl])
    assert not v and v.reason == "capacity"
    assert check_constraints([task(0, 0, 30, 93, vol=110 * MB)], 120 * MB, [dl])


def test_duplicate_task_id_is_malformed():
    with pytest.raises(MalformedScheduleError):
        check_constraints([task(0, 0, 0, 63), task(0, 1, 100, 163)], 120 * MB, [])


def test_mixed_agent_schedule_is_malformed():
    with pytest.raises(MalformedScheduleError):
        check_constraints(
            [task(0, 0, 0, 63, agent=0), task(1, 1, 100, 163, agent=1)], 120 * MB, []
        )


def test_random_schedules_verdict_matches_bruteforce(rng):
    """check_constraints agrees with a from-scratch O(n^2) evaluation."""
    for _ in range(200):
        n = rng.randint(1, 6)
        tasks = []
        for i in range(n):
            s = rng.uniform(0, 900)
            tasks.append(task(i, i, s, s + rng.uniform(10, 80), rng.uniform(1, 80) * MB))
        dls = []
        for j in range(rng.randint(0, 2)):
            s = rng.uniform(0, 900)
            dls.append(Downlink(j, 0, s, s + rng.uniform(20, 80), rng.uniform(40, 200) * MB))
        dls.sort(key=lambda d: d.start)
        memory = rng.uniform(50, 200) * MB

        ok = all(
            not a.interval.overlaps(b.interval)
            for k, a in enumerate(tasks)
            for b in tasks[k + 1 :]
        )
        ok = ok and all(
            not t.interval.overlaps(TimeInterval(d.start, d.end)) for t in tasks for d in dls
        )
        if ok:
            starts = [d.start for d in dls]
            loads: dict[int, float] = {}
            for t in tasks:
                b = downlink_bucket(t.end, starts)
                loads[b] = loads.get(b, 0.0) + t.volume_bytes
            for b, load in loads.items():
                cap = memory if b == len(dls) else min(memory, dls[b].capacity_bytes)
                ok = ok and load <= cap
        assert bool(check_constraints(tasks, memory, dls)) == ok


def nested_loop_check_constraints(tasks, memory_bytes, downlinks):
    """Reference: the O(tasks x downlinks) check the merge sweep replaced."""
    seen: set[int] = set()
    agent_ids = set()
    for t in tasks:
        if t.task_id in seen:
            raise MalformedScheduleError(f"duplicate task id {t.task_id}")
        seen.add(t.task_id)
        agent_ids.add(t.agent_id)
    if len(agent_ids) > 1:
        raise MalformedScheduleError(f"schedule mixes agents {sorted(agent_ids)}")

    # the first task that overlaps any earlier one, named with that earlier
    # task: two earlier tasks that both overlapped it would overlap each other
    ordered = sorted(tasks, key=lambda t: (t.start, t.task_id))
    for k, b in enumerate(ordered):
        hits = [a for a in ordered[:k] if a.interval.overlaps(b.interval)]
        if hits:
            (a,) = hits
            return Verdict(
                False, "processing-conflict", f"tasks {a.task_id} and {b.task_id} overlap"
            )

    dls = sorted(downlinks, key=lambda d: d.start)
    for t in ordered:
        for d in dls:
            if t.interval.overlaps(TimeInterval(d.start, d.end)):
                return Verdict(
                    False,
                    "downlink-conflict",
                    f"task {t.task_id} overlaps downlink {d.downlink_id}",
                )

    dl_starts = [d.start for d in dls]
    loads: dict[int, float] = {}
    for t in ordered:
        b = downlink_bucket(t.end, dl_starts)
        loads[b] = loads.get(b, 0.0) + t.volume_bytes
    for b, load in sorted(loads.items()):
        cap = memory_bytes if b == len(dls) else min(memory_bytes, dls[b].capacity_bytes)
        if load > cap:
            where = "end of horizon" if b == len(dls) else f"downlink {dls[b].downlink_id}"
            return Verdict(
                False, "capacity", f"{load:.0f} B before {where} exceeds {cap:.0f} B"
            )
    return Verdict(True)


def random_schedule(rng):
    """Up to 40 tasks and 15 downlinks on a 7 s grid, so that many intervals
    abut. Tasks run back to back with gaps (now and then one overlaps its
    predecessor); downlinks are either a disjoint chain or independently
    placed and overlapping. Some downlinks are shorter than a task, so one
    task can straddle two, and a few intervals have zero length. Now and then
    the schedule is malformed: one or two task ids repeat, a task belongs to a
    second agent, or both."""
    unit = 7.0
    n = rng.randint(0, 40)
    ids = rng.sample(range(100), n)
    tasks = []
    clock = rng.randint(0, 30)
    for i in range(n):
        clock += rng.choice((0, 0, 1, 3, 8, 20)) - (4 if rng.random() < 0.01 else 0)
        length = 0 if rng.random() < 0.05 else 9
        tasks.append(
            task(ids[i], ids[i], clock * unit, (clock + length) * unit, rng.uniform(1, 80) * MB)
        )
        clock += length
    span = max(clock, 60)
    if tasks and rng.random() < 0.08:
        for _ in range(rng.randint(1, 2)):
            again = replace(rng.choice(tasks), start=clock * unit, end=(clock + 9) * unit)
            tasks.insert(rng.randrange(len(tasks) + 1), again)
    if tasks and rng.random() < 0.06:
        i = rng.randrange(len(tasks))
        tasks[i] = replace(tasks[i], agent_id=1)

    dls = []
    overlapping = rng.random() < 0.3
    clock = rng.randint(0, 40)
    for j in range(rng.randint(0, 15)):
        length = rng.choice((0, 2, 4, 4, 12, 30))
        if overlapping:
            start = rng.randint(0, span)
        else:
            start = clock + rng.choice((0, 1, 6, 25, 60))
            clock = start + length
        dls.append(
            Downlink(j, 0, start * unit, (start + length) * unit, rng.uniform(40, 600) * MB)
        )
    rng.shuffle(dls)
    return tasks, rng.uniform(60, 1000) * MB, dls


def test_bucket_met_again_resumes_its_load():
    """A zero-length task may end in an earlier downlink bucket than the task
    before it; the next task's bucket then resumes the load it held."""
    dls = [Downlink(0, 0, 30, 30, 500 * MB), Downlink(1, 0, 70, 80, 500 * MB)]
    tasks = [task(0, 0, 0, 63, 60 * MB), task(1, 1, 10, 10, 5 * MB), task(2, 2, 63, 66, 50 * MB)]
    v = check_constraints(tasks, 100 * MB, dls)
    assert (v.reason, v.detail) == ("capacity", "110000000 B before downlink 1 exceeds 100000000 B")
    assert v == nested_loop_check_constraints(tasks, 100 * MB, dls)


def test_overlap_hidden_behind_a_zero_length_task_is_a_conflict():
    """A zero-length task between two overlapping tasks does not hide their
    overlap: the walk compares each task with the earlier one that ends last,
    not with its predecessor."""
    tasks = [task(0, 0, 0, 100, MB), task(1, 1, 50, 50, MB), task(2, 2, 60, 70, MB)]
    v = check_constraints(tasks, 100 * MB, [])
    assert (v.feasible, v.reason, v.detail) == (False, "processing-conflict", "tasks 0 and 2 overlap")
    assert v == nested_loop_check_constraints(tasks, 100 * MB, [])
    assert v == check_constraints([tasks[0], tasks[2]], 100 * MB, [])


def test_merge_sweep_verdict_matches_nested_loop(rng):
    """Same (feasible, reason, detail) as the nested-loop check, including
    overlapping downlink lists, straddling tasks and abutting intervals; on a
    malformed schedule, the same ``MalformedScheduleError`` message. Each
    schedule is checked as generated, in (start, task id) order (the order a
    ``ScheduleState`` hands over, which is not re-sorted when its starts
    strictly increase) and shuffled, so sorted and unsorted inputs both
    occur, with and without tied starts."""
    reasons: dict[str | None, int] = {}
    orders = {"strict": 0, "tied": 0, "unsorted": 0}
    shuffler = random.Random(7)  # leaves ``rng``'s schedules as they were
    for _ in range(3000):
        tasks, memory, dls = random_schedule(rng)
        ordered = sorted(tasks, key=lambda t: (t.start, t.task_id))
        shuffled = shuffler.sample(tasks, len(tasks))
        for variant in (tasks, ordered, shuffled):
            starts = [t.start for t in variant]
            if variant != ordered:
                orders["unsorted"] += 1
            elif len(set(starts)) == len(starts):
                orders["strict"] += 1
            else:
                orders["tied"] += 1
        for variant in (tasks, ordered, shuffled):
            try:
                want = nested_loop_check_constraints(variant, memory, dls)
            except MalformedScheduleError as exc:
                with pytest.raises(MalformedScheduleError) as got_exc:
                    check_constraints(variant, memory, dls)
                assert str(got_exc.value) == str(exc)
                if variant is tasks:
                    kind = str(exc).split(" ", 1)[0]  # "duplicate" or "schedule" (mixes agents)
                    reasons[kind] = reasons.get(kind, 0) + 1
                continue
            got = check_constraints(variant, memory, dls)
            assert (got.feasible, got.reason, got.detail) == (
                want.feasible,
                want.reason,
                want.detail,
            )
            if variant is tasks:
                reasons[want.reason] = reasons.get(want.reason, 0) + 1
    for reason in (None, "processing-conflict", "downlink-conflict", "capacity"):
        assert reasons.get(reason, 0) >= 100, reasons
    for kind in ("duplicate", "schedule"):
        assert reasons.get(kind, 0) >= 50, reasons
    assert min(orders.values()) >= 300, orders


# ---------------------------------------------------------------------------
# utility


def test_static_utility_counts_requests_once():
    tasks = {i: task(i, 0, i * 100.0, i * 100.0 + 63.0) for i in range(3)}
    tasks[3] = task(3, 1, 500.0, 563.0)
    reqs = frozenset({0, 1})
    assert static_utility(set(), tasks, reqs) == 0
    assert static_utility({0, 1}, tasks, reqs) == 1
    assert static_utility({0, 3}, tasks, reqs) == 2
    assert static_utility({0, 1, 2, 3}, tasks, reqs) == 2


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_static_utility_monotone_in_scheduled_set(data):
    n_tasks = data.draw(st.integers(1, 12))
    tasks = {
        i: task(i, data.draw(st.integers(0, 4)), i * 100.0, i * 100.0 + 63.0)
        for i in range(n_tasks)
    }
    reqs = frozenset(range(5))
    base = set(data.draw(st.sets(st.integers(0, n_tasks - 1))))
    extra = data.draw(st.integers(0, n_tasks - 1))
    assert static_utility(base | {extra}, tasks, reqs) >= static_utility(base, tasks, reqs)


def test_task_unscheduled_before_its_interval_earns_nothing(rng):
    """A task dropped at an event before its start time is never executed."""
    problem, _ = make_problem(rng, n_agents=1, n_requests=3, n_events=1)
    # find a task starting after the first change event
    event_time = problem.snapshots[1].start
    late = [
        t
        for t in problem.tasks.values()
        if t.start > event_time and t.request_id in problem.snapshots[0].active
        and t.request_id in problem.snapshots[1].active
    ]
    if not late:
        pytest.skip("random instance lacks a suitable late task")
    t = late[0]
    trace = [{t.task_id}, set()]  # scheduled in snapshot 0, dropped at the event
    assert t.task_id not in executed_task_ids(trace, problem)
    # kept through the event -> executed
    trace = [{t.task_id}, {t.task_id}]
    assert t.task_id in executed_task_ids(trace, problem)


def test_trace_length_mismatch_rejected(rng):
    problem, _ = make_problem(rng, n_events=2)
    with pytest.raises(ValueError):
        dynamic_utility([set()], problem)


def test_inactive_request_in_snapshot_rejected(rng):
    problem, _ = make_problem(rng, n_events=2)
    for i, snap in enumerate(problem.snapshots):
        inactive = [
            t.task_id for t in problem.tasks.values() if t.request_id not in snap.active
        ]
        if inactive:
            trace = [set() for _ in problem.snapshots]
            trace[i] = {inactive[0]}
            with pytest.raises(ValueError):
                dynamic_utility(trace, problem)
            return
    pytest.skip("every request active in every snapshot")



def _copy_listing(problem):
    """A copy of ``tasks_by_agent`` and an agent that lists some task."""
    by_agent = {a: list(tasks) for a, tasks in problem.tasks_by_agent.items()}
    return by_agent, next(a for a, tasks in by_agent.items() if tasks)


def _list_task_twice(problem):
    by_agent, aid = _copy_listing(problem)
    twice = by_agent[aid][0]
    by_agent[aid].append(twice)
    return dict(tasks_by_agent=by_agent), f"tasks_by_agent lists task {twice.task_id} twice"


def _list_task_under_other_agent(problem):
    by_agent, aid = _copy_listing(problem)
    other = next(a for a in by_agent if a != aid)
    moved = by_agent[aid].pop(0)
    by_agent[other].append(moved)
    return (
        dict(tasks_by_agent=by_agent),
        f"tasks_by_agent lists task {moved.task_id} of agent {aid} under agent {other}",
    )


def _invert_task(problem):
    by_agent, aid = _copy_listing(problem)
    t = by_agent[aid][0]
    by_agent[aid][0] = replace(t, start=t.end, end=t.start)
    return (
        dict(tasks_by_agent=by_agent),
        f"task {t.task_id} is inverted: start {t.end} > end {t.start}",
    )


def _zero_length_task(problem):
    by_agent, aid = _copy_listing(problem)
    t = by_agent[aid][0]
    by_agent[aid][0] = replace(t, end=t.start)
    return dict(tasks_by_agent=by_agent), f"task {t.task_id} has zero length at {t.start}"


def _invert_downlink(problem):
    downlinks = {a: list(dls) for a, dls in problem.downlinks_by_agent.items()}
    dls = next(dls for dls in downlinks.values() if dls)
    d = dls[0]
    dls[0] = replace(d, start=d.end, end=d.start)
    return (
        dict(downlinks_by_agent=downlinks),
        f"downlink {d.downlink_id} is inverted: start {d.end} > end {d.start}",
    )


def _misplaced_downlink(problem):
    downlinks = {a: list(dls) for a, dls in problem.downlinks_by_agent.items()}
    aid, dls = next((a, dls) for a, dls in downlinks.items() if dls)
    d = dls[0]
    dls[0] = replace(d, agent_id=aid + 1)
    return (
        dict(downlinks_by_agent=downlinks),
        f"downlinks_by_agent lists downlink {d.downlink_id} of agent {aid + 1} under agent {aid}",
    )


def _unordered_downlinks(problem):
    """[0, 1000], [2000, 2100], [50, 60]: no two list neighbours overlap,
    but the first and last downlinks do."""
    aid = problem.agents[0].agent_id
    spans = [(0.0, 1000.0), (2000.0, 2100.0), (50.0, 60.0)]
    dls = [Downlink(i, aid, s, e, 500 * MB) for i, (s, e) in enumerate(spans)]
    return (
        dict(downlinks_by_agent={**problem.downlinks_by_agent, aid: dls}),
        f"agent {aid} lists downlinks out of start order",
    )


@pytest.mark.parametrize(
    "tamper",
    [_list_task_twice, _list_task_under_other_agent, _invert_task, _zero_length_task,
     _invert_downlink, _misplaced_downlink, _unordered_downlinks],
    ids=["task-twice", "task-under-other-agent", "inverted-task", "zero-length-task",
         "inverted-downlink", "misplaced-downlink", "downlinks-out-of-start-order"],
)
def test_validate_rejects_inconsistent_problem(tamper):
    """``tasks_by_agent`` must list each task once, under its own agent, and
    ``downlinks_by_agent`` each downlink under its own agent, in start order;
    an inverted task or downlink, or a task of zero length, is named."""
    problem, _ = make_problem(random.Random(5))
    changes, message = tamper(problem)
    with pytest.raises(ValueError) as err:
        replace(problem, **changes).validate()
    assert str(err.value) == message


def reference_views(problem):
    """The derived views as each run used to build them for itself."""
    by_start: dict[int, list] = {}
    candidates: dict[tuple[int, int], list] = {}
    agent_requests: dict[int, list[int]] = {}
    request_agents: dict[int, set[int]] = {}
    for aid, tasks in problem.tasks_by_agent.items():
        by_start[aid] = sorted(tasks, key=lambda t: (t.start, t.task_id))
        for task in by_start[aid]:
            candidates.setdefault((aid, task.request_id), []).append(task)
            request_agents.setdefault(task.request_id, set()).add(aid)
    for (aid, rid) in sorted(candidates):
        agent_requests.setdefault(aid, []).append(rid)
    for lst in agent_requests.values():
        lst.sort()
    return by_start, candidates, agent_requests, request_agents


@pytest.mark.parametrize(
    "seed, kw",
    [
        (0, dict()),
        (1, dict(n_agents=6, n_requests=20, n_events=4)),
        (2, dict(n_agents=1, n_requests=8, n_events=0)),
        (3, dict(n_agents=8, n_requests=2, n_events=1)),
    ],
    ids=["default", "six-agents", "one-agent", "agent-without-tasks"],
)
def test_derived_views_match_per_run_construction(seed, kw):
    problem, _ = make_problem(random.Random(seed), **kw)
    if seed == 3:
        assert any(not tasks for tasks in problem.tasks_by_agent.values())
    by_start, candidates, agent_requests, request_agents = reference_views(problem)
    assert problem.tasks_by_start == by_start
    assert problem.candidates == candidates
    assert problem.agent_requests == agent_requests
    assert problem.request_agents == request_agents
    listed = [t for tasks in problem.tasks_by_agent.values() for t in tasks]
    assert list(problem.tasks.items()) == sorted((t.task_id, t) for t in listed)
    # built once, then shared
    assert problem.candidates is problem.candidates

def replay_utility(trace, problem):
    """Independent evaluator: walk the timeline and apply the utility
    definition literally — a request counts iff one of its tasks was
    scheduled in an instance whose static window overlaps the task."""
    starts = [s.start for s in problem.snapshots] + [problem.horizon_s]
    satisfied = set()
    for t, scheduled in enumerate(trace):
        lo, hi = starts[t], starts[t + 1]
        for tid in scheduled:
            tk = problem.tasks[tid]
            if max(tk.start, lo) < min(tk.end, hi):
                satisfied.add(tk.request_id)
    ever = set()
    for s in problem.snapshots:
        ever |= s.active
    return len(satisfied & ever)


def test_dynamic_utility_matches_independent_replay(rng):
    for _ in range(50):
        problem, _ = make_problem(
            rng,
            n_agents=rng.randint(1, 4),
            n_requests=rng.randint(3, 15),
            n_events=rng.randint(0, 4),
        )
        for _ in range(5):
            trace = random_trace(problem, rng)
            assert dynamic_utility(trace, problem) == replay_utility(trace, problem)


def test_static_problem_utility_equals_static_utility(rng):
    """With no change events, dynamic and static utility coincide."""
    problem, _ = make_problem(rng, n_events=0)
    assert len(problem.snapshots) == 1
    trace = random_trace(problem, rng)
    assert dynamic_utility(trace, problem) == static_utility(
        trace[0], problem.tasks, problem.snapshots[0].active
    )


# ---------------------------------------------------------------------------
# generators


def test_generate_tasks_tiling_counts(rng):
    req = Request(0, 0, 0.0, 1000.0)
    windows = {0: [(100.0, 100.0 + 300.0)]}
    tasks = generate_tasks(0, [req], windows, rng)
    assert len(tasks) == 4  # floor(300 / 63)
    assert [t.start for t in tasks] == [100.0, 163.0, 226.0, 289.0]
    assert all(t.end - t.start == TASK_DURATION_S for t in tasks)

    assert generate_tasks(0, [req], {0: [(0.0, 62.0)]}, rng) == []
    exact = generate_tasks(0, [req], {0: [(0.0, 63.0)]}, rng)
    assert len(exact) == 1


def test_generate_tasks_respects_request_window(rng):
    req = Request(0, 0, 200.0, 400.0)
    windows = {0: [(0.0, 1000.0)]}
    tasks = generate_tasks(0, [req], windows, rng)
    assert tasks and all(200.0 <= t.start and t.end <= 400.0 + 1e-9 for t in tasks)


def test_generate_tasks_volumes_truncated_normal(rng):
    req = Request(0, 0, 0.0, 100000.0)
    windows = {0: [(0.0, 100000.0)]}
    tasks = generate_tasks(0, [req], windows, rng)
    vols = [t.volume_bytes for t in tasks]
    assert len(vols) > 1000
    assert min(vols) >= 1 * MB
    mean = sum(vols) / len(vols)
    assert mean == pytest.approx(50 * MB, rel=0.02)


def test_generate_tasks_deterministic():
    req = Request(0, 0, 0.0, 1000.0)
    windows = {0: [(0.0, 500.0)]}
    a = generate_tasks(0, [req], windows, random.Random(7))
    b = generate_tasks(0, [req], windows, random.Random(7))
    assert a == b


def linear_tiling(agent_id, requests, windows_by_target, rng, *, id_start=0):
    """Reference: ``generate_tasks`` intersecting every window of the
    request's target with the request window."""
    tasks = []
    next_id = id_start
    for req in sorted(requests, key=lambda r: r.request_id):
        for w_start, w_end in windows_by_target.get(req.target_id, []):
            t0, end = max(w_start, req.start), min(w_end, req.end)
            if t0 >= end:
                continue
            while t0 + TASK_DURATION_S <= end + 1e-9:
                vol = rng.gauss(TASK_MEAN_VOLUME_BYTES, TASK_SD_VOLUME_BYTES)
                while vol < TASK_MIN_VOLUME_BYTES:
                    vol = rng.gauss(TASK_MEAN_VOLUME_BYTES, TASK_SD_VOLUME_BYTES)
                tasks.append(Task(next_id, req.request_id, agent_id, t0, t0 + TASK_DURATION_S, vol))
                next_id += 1
                t0 += TASK_DURATION_S
    return tasks


@pytest.mark.parametrize("seed", range(20))
def test_bisected_tiling_matches_linear_tiling(seed):
    """Sorted, disjoint windows on a coarse lattice, so windows abut each
    other, touch a request's edges, lie wholly before or after it, or are
    missing for a target; plus off-lattice windows like refined edges."""
    rng = random.Random(seed)
    windows = {}
    targets = rng.randint(1, 4)
    for target in range(targets):
        t, ws = 0.0, []
        for _ in range(rng.randint(0, 15)):
            t += 30.0 * rng.randint(0, 3) if rng.random() < 0.8 else rng.uniform(0.0, 200.0)
            end = t + (30.0 * rng.randint(1, 6) if rng.random() < 0.8 else rng.uniform(1.0, 300.0))
            ws.append((t, end))
            t = end
        windows[target] = ws
    requests = []
    for rid in range(rng.randint(1, 25)):
        start = 30.0 * rng.randrange(60)
        # target id ``targets`` has no windows
        requests.append(Request(rid, rng.randrange(targets + 1), start, start + 30.0 * rng.randint(1, 20)))
    # requests that end where a window starts, start where it ends, or equal it
    for target, ws in windows.items():
        for w_start, w_end in rng.sample(ws, min(2, len(ws))):
            for start, end in ((w_start - 90.0, w_start), (w_end, w_end + 90.0), (w_start, w_end)):
                requests.append(Request(len(requests), target, start, end))
    requests.sort(key=lambda r: r.request_id)  # generate_tasks takes them in id order
    assert generate_tasks(3, requests, windows, random.Random(seed), id_start=5) == linear_tiling(
        3, requests, windows, random.Random(seed), id_start=5
    )


def test_campaign_partitions_horizon(rng):
    targets = [Target(i, 10.0 * i - 40, 5.0 * i) for i in range(8)]
    reqs = generate_campaign(targets, 86400.0, (3, 3), rng)
    assert len(reqs) == 24
    by_target: dict[int, list[Request]] = {}
    for r in reqs:
        by_target.setdefault(r.target_id, []).append(r)
    for rs in by_target.values():
        rs.sort(key=lambda r: r.start)
        assert rs[0].start == 0.0 and rs[-1].end == 86400.0
        for a, b in zip(rs, rs[1:]):
            assert a.end == b.start  # abutting, evenly spaced
        widths = {round(r.end - r.start, 6) for r in rs}
        assert len(widths) == 1


def test_campaign_single_period_covers_horizon(rng):
    reqs = generate_campaign([Target(0, 0.0, 0.0)], 86400.0, (1, 1), rng)
    assert len(reqs) == 1 and (reqs[0].start, reqs[0].end) == (0.0, 86400.0)


def test_campaign_count_is_sum_of_periodicities():
    targets = [Target(i, 0.0, float(i)) for i in range(20)]
    rng = random.Random(99)
    reqs = generate_campaign(targets, 86400.0, (3, 7), rng)
    # recompute the same draws independently
    rng2 = random.Random(99)
    expected = sum(rng2.randint(3, 7) for _ in targets)
    assert len(reqs) == expected


def make_campaign(n, horizon_s):
    width = horizon_s / n
    return [Request(i, i, i * width, (i + 1) * width) for i in range(n)]


class Change(NamedTuple):
    time: float
    added: tuple[int, ...]
    removed: tuple[int, ...]


def dynamics(campaign, volatility, horizon_s, rng):
    """``generate_dynamics``' snapshots read as the initial active set and
    the change at each later snapshot."""
    snaps = generate_dynamics(campaign, volatility, horizon_s, rng)
    changes = [
        Change(cur.start, tuple(sorted(cur.active - prev.active)), tuple(sorted(prev.active - cur.active)))
        for prev, cur in zip(snaps, snaps[1:])
    ]
    return set(snaps[0].active), changes


def test_dynamics_initial_third_and_event_count():
    campaign = make_campaign(30, 86400.0)
    for v in (1, 3, 5):
        initial, events = dynamics(campaign, v, 86400.0, random.Random(5))
        assert len(initial) == math.ceil(30 / 3)
        assert len(events) == v
        earliest = (2.0 / (3.0 * v)) * 86400.0
        assert all(earliest <= e.time <= 86400.0 for e in events)
        assert [e.time for e in events] == sorted(e.time for e in events)


def test_dynamics_never_touches_open_requests_and_never_readds():
    campaign = make_campaign(60, 86400.0)
    by_id = {r.request_id: r for r in campaign}
    for seed in range(20):
        initial, events = dynamics(campaign, 4, 86400.0, random.Random(seed))
        active = set(initial)
        seen = set(initial)
        removed_ever: set[int] = set()
        for e in events:
            for rid in e.added + e.removed:
                assert by_id[rid].start > e.time  # window not yet open
            assert not (set(e.added) & seen)  # additions are brand new
            assert set(e.removed) <= active
            assert not (set(e.added) & removed_ever)
            active |= set(e.added)
            active -= set(e.removed)
            seen |= set(e.added)
            removed_ever |= set(e.removed)


def test_dynamics_fractions_bounded():
    n, v = 90, 3
    campaign = make_campaign(n, 86400.0)
    initial, events = dynamics(campaign, v, 86400.0, random.Random(11))
    add_cap = math.ceil(n * 2.0 / (3.0 * v))
    active = set(initial)
    for e in events:
        assert len(e.added) <= add_cap
        assert len(e.removed) <= math.ceil(len(active) / (3.0 * v))
        active |= set(e.added)
        active -= set(e.removed)


def test_dynamics_deterministic():
    campaign = make_campaign(30, 86400.0)
    a = generate_dynamics(campaign, 3, 86400.0, random.Random(4))
    b = generate_dynamics(campaign, 3, 86400.0, random.Random(4))
    assert a == b


def test_dynamics_rejects_degenerate_inputs():
    with pytest.raises(GenerationError):
        generate_dynamics(make_campaign(2, 100.0), 3, 100.0, random.Random(0))
    with pytest.raises(GenerationError):
        generate_dynamics(make_campaign(9, 100.0), 0, 100.0, random.Random(0))
