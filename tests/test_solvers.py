import dataclasses
import random

import pytest

from cosched.geometry import SatelliteSpec
from cosched.problem import (
    MB,
    Downlink,
    DynamicProblem,
    Request,
    Snapshot,
    Task,
    check_constraints,
)
from cosched.sim import build_context, run
from cosched import sim, solvers
from cosched.solvers import (
    SOLVER_NAMES,
    ScheduleState,
    SearchGroup,
    SolverConfig,
    SolverInvariantError,
    message_bytes,
    schedule_insert,
    shuffle,
    stochastic_update,
    synchronous_search,
)

from conftest import make_problem


def agent(memory=1000 * MB):
    return SatelliteSpec(0, 0, 0, 45.0, memory)


def task(tid, rid, start, end, vol=10 * MB, agent_id=0):
    return Task(tid, rid, agent_id, start, end, vol)


# ---------------------------------------------------------------------------
# stochastic update table


def test_update_executed_always_unassigns():
    r = random.Random(0)
    assert all(
        not stochastic_update(True, assigned, w, 0.7, r)
        for assigned in (False, True)
        for w in (0, 3)
    )


def test_update_unassigned_depends_only_on_competition():
    r = random.Random(0)
    assert all(stochastic_update(False, False, 0, 0.7, r) for _ in range(100))
    assert not any(stochastic_update(False, False, w, 0.7, r) for w in (1, 2, 5))


def test_update_assigned_frequencies():
    for w, p in [(0, 0.3), (1, 1.0), (2, 0.5), (4, 0.25)]:
        r = random.Random(f"freq:{w}")
        hits = sum(stochastic_update(False, True, w, 0.7, r) for _ in range(2000))
        assert hits / 2000 == pytest.approx(p, abs=0.03)


def test_shuffle_matches_the_stdlib_draw_for_draw():
    """``shuffle`` leaves every list and the RNG exactly as
    ``random.Random.shuffle`` does: same permutation, same next draw."""
    for seed in range(50):
        for n in range(301):
            ours, theirs = random.Random(f"shuffle:{seed}"), random.Random(f"shuffle:{seed}")
            a, b = list(range(n)), list(range(n))
            shuffle(a, ours)
            theirs.shuffle(b)
            assert a == b, (seed, n)
            assert ours.random() == theirs.random(), (seed, n)


# ---------------------------------------------------------------------------
# schedule state


def test_insert_remove_roundtrip():
    st = ScheduleState(agent(), [])
    t = task(0, 0, 0, 63)
    assert st.can_insert(t)
    st.insert(t)
    assert st.tasks() == [t] and st.by_request == {0: t}
    assert not st.can_insert(t)  # duplicate id
    st.remove(t)
    assert len(st) == 0 and not st.has_request(0)


def test_frozen_task_cannot_be_removed():
    st = ScheduleState(agent(), [])
    t = task(0, 0, 0, 63)
    st.insert(t)
    st.freeze(t)
    with pytest.raises(SolverInvariantError):
        st.remove(t)


def test_freeze_records_the_task_and_its_request():
    st = make_state(task(0, 7, 0, 63), task(1, 8, 100, 163))
    st.freeze(st.by_request[8])
    assert st.frozen == {1} and st.executed == {8}
    with pytest.raises(SolverInvariantError):
        st.freeze(task(2, 9, 200, 263))  # not held: it cannot have run here
    assert st.frozen == {1} and st.executed == {8}


def test_drop_where_keeps_frozen_tasks_and_removes_exactly_the_doomed():
    tasks_ = [task(i, 10 + i, 100 * i, 100 * i + 63) for i in range(5)]
    st = make_state(*reversed(tasks_))
    st.freeze(tasks_[1])
    st.freeze(tasks_[2])
    seen = []

    def doomed(t):
        seen.append(t.task_id)
        return t.task_id != 3

    st.drop_where(doomed)
    assert seen == [0, 3, 4]  # start order, frozen tasks never offered
    assert [t.task_id for t in st.tasks()] == [1, 2, 3]
    st.drop_where(lambda t: True)
    assert [t.task_id for t in st.tasks()] == [1, 2]
    assert st.can_insert(tasks_[0]) and st.can_insert(tasks_[4])


def test_second_task_for_same_request_rejected():
    st = ScheduleState(agent(), [])
    st.insert(task(0, 7, 0, 63))
    with pytest.raises(SolverInvariantError):
        st.insert(task(1, 7, 100, 163))


def test_can_insert_agrees_with_full_checker(rng):
    """Randomized insert/remove sequences: the incremental feasibility answer
    must match re-checking the whole schedule from scratch."""
    for trial in range(100):
        dls = []
        t0 = rng.uniform(100, 400)
        for j in range(rng.randint(0, 2)):
            dls.append(Downlink(j, 0, t0, t0 + rng.uniform(20, 60), rng.uniform(40, 150) * MB))
            t0 += rng.uniform(100, 300)
        memory = rng.uniform(60, 200) * MB
        a = agent(memory)
        st = ScheduleState(a, dls)
        for i in range(30):
            s = rng.uniform(0, 900)
            cand = task(i, i, s, s + rng.uniform(10, 70), rng.uniform(1, 60) * MB)
            expected = bool(
                check_constraints(st.tasks() + [cand], memory, dls)
            )
            assert st.can_insert(cand) == expected
            if expected and rng.random() < 0.8:
                st.insert(cand)
            elif len(st) and rng.random() < 0.3:
                st.remove(rng.choice(st.tasks()))
        assert check_constraints(st.tasks(), memory, dls)


def test_tied_starts_keep_task_id_order():
    """Tasks inserted directly (as the harness tests do) may share a start:
    overlapping or zero-length ones. They stay in (start, task id) order
    through inserts and removes, and ``can_insert`` judges a candidate by
    its neighbours at its (start, task id) place in that order."""
    rng = random.Random(5)
    ties = 0
    for _ in range(200):
        st = ScheduleState(agent(), [])
        held = []
        for rid, tid in enumerate(rng.sample(range(100), 12)):
            s = 10.0 * rng.randint(0, 4)
            t = task(tid, rid, s, s + rng.choice([0.0, 5.0, 15.0]))
            if rng.random() < 0.25 and held:
                gone = held.pop(rng.randrange(len(held)))
                st.remove(gone)
            order = sorted(held + [t], key=lambda u: (u.start, u.task_id))
            i = order.index(t)
            fits = (i == 0 or order[i - 1].end <= t.start) and (
                i + 1 == len(order) or order[i + 1].start >= t.end
            )
            assert st.can_insert(t) == fits
            ties += any(u.start == t.start for u in held)
            st.insert(t)
            held.append(t)
            assert st.tasks() == sorted(held, key=lambda u: (u.start, u.task_id))
    assert ties > 300


def test_closest_removable_prefers_near_then_large():
    st = ScheduleState(agent(), [])
    st.insert(task(0, 0, 100, 163, vol=10 * MB))
    st.insert(task(1, 1, 300, 363, vol=50 * MB))
    st.insert(task(2, 2, 500, 563, vol=10 * MB))
    assert st.closest_removable(120).task_id == 0
    assert st.closest_removable(400).task_id == 1  # ties 1/2 -> larger volume
    st.freeze(st.by_request[0])
    assert st.closest_removable(120).task_id == 1


def linear_closest_removable(st, start):
    """Reference: the minimum of (|Δstart|, -volume, id) over every non-frozen task."""
    keys = [
        (abs(t.start - start), -t.volume_bytes, t.task_id, t)
        for t in st.tasks() if t.task_id not in st.frozen
    ]
    return min(keys)[3] if keys else None


def test_closest_removable_matches_linear_scan():
    """The outward walk from the bisection point picks what a scan of every
    task picks, on schedules with frozen tasks, shared starts, equidistant
    neighbours and equal volumes, at queries on, between and beyond starts."""
    rng = random.Random(11)
    ties = 0
    for _ in range(300):
        st = ScheduleState(agent(), [])
        ids = rng.sample(range(1000), rng.randint(0, 12))
        for rid, tid in enumerate(ids):
            s = 10.0 * rng.randint(0, 8)
            st.insert(task(tid, rid, s, s + 5.0, vol=rng.choice([1, 2]) * MB))
        for t in st.tasks():
            if rng.random() < 0.3:
                st.freeze(t)
        removable = [t for t in st.tasks() if t.task_id not in st.frozen]
        for q in range(-10, 95, 5):
            assert st.closest_removable(float(q)) == linear_closest_removable(st, float(q))
            dist = sorted(abs(t.start - q) for t in removable)
            ties += len(dist) > 1 and dist[0] == dist[1]
    assert ties > 100  # equidistant nearest candidates are exercised, not just possible


# ---------------------------------------------------------------------------
# insertion with displacement


def make_state(*tasks_):
    st = ScheduleState(agent(), [])
    for t in tasks_:
        st.insert(t)
    return st


def test_insert_into_empty_schedule():
    st = make_state()
    assert schedule_insert(st, 5, [task(9, 5, 0, 63)], now=0.0)
    assert st.has_request(5)


def test_insert_prefers_earliest_candidate_even_via_displacement():
    # displacement is attempted per candidate before trying later ones
    st = make_state(task(0, 0, 0, 63))
    cands = [task(1, 5, 30, 93), task(2, 5, 200, 263)]
    assert schedule_insert(st, 5, cands, now=0.0)
    assert st.by_request[5].task_id == 1
    assert not st.has_request(0)  # the earlier holder was displaced


def test_insert_skips_to_free_candidate_when_displacement_blocked():
    st = make_state(task(0, 0, 0, 63))
    st.freeze(st.by_request[0])  # frozen tasks are never displaced
    cands = [task(1, 5, 30, 93), task(2, 5, 200, 263)]
    assert schedule_insert(st, 5, cands, now=0.0)
    assert st.by_request[5].task_id == 2
    assert st.has_request(0)


def test_insert_displaces_when_no_free_slot():
    st = make_state(task(0, 0, 30, 93))
    assert schedule_insert(st, 5, [task(1, 5, 30, 93)], now=0.0)
    assert st.has_request(5) and not st.has_request(0)  # victim displaced


def test_insert_restores_victim_when_displacement_fails():
    # candidate conflicts with two tasks; removing one cannot help
    st = make_state(task(0, 0, 0, 63), task(1, 1, 63, 126))
    assert not schedule_insert(st, 5, [task(2, 5, 30, 100)], now=0.0)
    assert st.has_request(0) and st.has_request(1)  # untouched


def test_insert_ignores_past_candidates():
    st = make_state()
    assert not schedule_insert(st, 5, [task(0, 5, 10, 73)], now=100.0)


# ---------------------------------------------------------------------------
# full-solver behavior on synthetic instances


def cfg(**kw):
    base = dict(neighborhood_size=2, max_iters=10)
    base.update(kw)
    return SolverConfig(**base)


def test_every_solver_yields_feasible_schedules(rng):
    for _ in range(15):
        problem, targets = make_problem(
            rng, n_agents=rng.randint(1, 4), n_requests=rng.randint(4, 14),
            n_events=rng.randint(0, 3),
        )
        for name in SOLVER_NAMES:
            run(problem, targets, name, cfg())  # run() asserts feasibility per event


def test_noncommunicating_solvers_send_zero_bytes(rng):
    problem, targets = make_problem(rng)
    for name in ("greedy", "random"):
        m = run(problem, targets, name, cfg()).metrics
        assert m.message_bytes == 0 and m.message_count == 0


def test_counters_land_on_the_agent_that_spent_them(rng, monkeypatch):
    """Each schedule counts the can_insert calls made on it, the run's
    counters are the sums over agents, and the greedy agents draw and send
    nothing."""
    problem, targets = make_problem(rng, n_agents=4, n_requests=14, n_events=2)
    calls: dict[int, int] = {}  # id of the schedule -> can_insert calls on it
    can_insert = ScheduleState.can_insert

    def spy(self, task):
        calls[id(self)] = calls.get(id(self), 0) + 1
        return can_insert(self, task)

    contexts = []  # keeps every run's schedules alive, so their ids stay distinct
    build = sim.build_context

    def recording_build(*args):
        contexts.append(build(*args))
        return contexts[-1]

    monkeypatch.setattr(ScheduleState, "can_insert", spy)
    monkeypatch.setattr(sim, "build_context", recording_build)
    for name in SOLVER_NAMES:
        m = run(problem, targets, name, cfg()).metrics
        states = contexts[-1].states.values()
        assert [st.schedule.checks for st in states] == [calls.get(id(st.schedule), 0) for st in states]
        assert sum(st.schedule.checks for st in states) == m.constraint_checks > 0, name
        assert sum(st.draws for st in states) == m.rng_draws, name
        assert sum(st.sent_bytes for st in states) == m.message_bytes, name
        assert sum(st.sent_count for st in states) == m.message_count, name
        if name == "greedy":
            assert all(st.draws == st.sent_bytes == st.sent_count == 0 for st in states)


def test_greedy_schedule_is_maximal(rng):
    problem, _ = make_problem(rng, n_events=0)
    from cosched.sim import build_context
    from cosched.solvers import make_solver

    ctx = build_context(problem)
    solver = make_solver("greedy", ctx, cfg())
    snap = problem.snapshots[0]
    solver.on_event(snap.active)
    for aid, st in ctx.states.items():
        for t in problem.tasks_by_agent.get(aid, []):
            if t.request_id in snap.active and not st.schedule.has_request(t.request_id):
                assert not st.schedule.can_insert(t)


def test_only_the_search_solvers_seed_an_agent_rng(rng):
    """A fresh agent state has no RNG, so an unseeded draw fails loudly
    instead of drawing from the OS; the search solvers seed one per agent."""
    problem, _ = make_problem(rng)
    for name in SOLVER_NAMES:
        ctx = build_context(problem)
        assert all(st.rng is None for st in ctx.states.values())
        solvers.make_solver(name, ctx, cfg())
        seeded = {st.rng is not None for st in ctx.states.values()}
        assert seeded == {name in ("dnss", "0nss", "ddsa", "0dsa")}, name

def test_uncontested_scheduled_requests_survive_the_search(rng):
    """Stochastic unassignment never evicts a task from the schedule; an
    agent keeps any feasible request it holds unless the request was
    executed elsewhere.  A lone agent therefore ends every event with a
    satisfaction count at least as high as the greedy baseline's."""
    for trial in range(10):
        problem, targets = make_problem(
            rng, n_agents=1, n_requests=10, n_events=rng.randint(0, 2)
        )
        g = run(problem, targets, "greedy", cfg()).snapshots
        for name in ("dnss", "0nss", "ddsa", "0dsa"):
            s = run(problem, targets, name, cfg()).snapshots
            assert all(len(a) >= len(b) for a, b in zip(s, g))


def test_single_agent_nss_and_dsa_coincide(rng):
    """With one agent the decomposition is vacuous: both families reduce to
    the same local search under identical seeds."""
    for trial in range(5):
        problem, targets = make_problem(rng, n_agents=1, n_requests=10, n_events=2)
        a = run(problem, targets, "dnss", cfg())
        b = run(problem, targets, "ddsa", cfg())
        assert a.snapshots == b.snapshots
        assert a.final_schedules == b.final_schedules


def test_message_count_matches_group_size_formula(rng):
    """Every search iteration costs exactly sum |A_N|(|A_N|-1) messages (NSS)
    or |A|(|A|-1) (DSA); with early exit disabled the whole-run totals are a
    closed-form function of the group sizes."""
    problem, targets = make_problem(rng, n_agents=5, n_requests=12, n_events=2)
    c = cfg(run_all_iterations=True, max_iters=4)
    n_events = len(problem.snapshots)

    from cosched.decomposition import partition_agents

    groups = partition_agents(problem.agents, c.neighborhood_size)
    per_iter_nss = sum(len(g.agents) * (len(g.agents) - 1) for g in groups)
    m = run(problem, targets, "dnss", c).metrics
    assert m.message_count == n_events * c.max_iters * per_iter_nss

    n = len(problem.agents)
    m = run(problem, targets, "ddsa", c).metrics
    assert m.message_count == n_events * c.max_iters * n * (n - 1)


# ---------------------------------------------------------------------------
# the stop rule: a group stops at the first round that changes no schedule


def search_context(holdings, frozen=(), now=0.0):
    """A search context over a small problem built from hand-placed tasks.

    ``holdings`` maps agent -> (scheduled tasks, other candidate tasks); an
    agent is assigned exactly the requests it holds, as after a repair, and
    the held tasks whose ids are in ``frozen`` already ran. Every request is
    active over the whole horizon.
    """
    tasks = {t.task_id: t for held, others in holdings.values() for t in held + others}
    requests = {t.request_id: Request(t.request_id, t.request_id, 0.0, 1000.0) for t in tasks.values()}
    problem = DynamicProblem(
        horizon_s=1000.0,
        agents=[SatelliteSpec(a, 0, a, 45.0, 1000 * MB) for a in holdings],
        requests=requests,
        tasks_by_agent={a: held + others for a, (held, others) in holdings.items()},
        downlinks_by_agent={a: [] for a in holdings},
        snapshots=[Snapshot(0.0, frozenset(requests))],
    )
    problem.validate()
    ctx = build_context(problem)
    ctx.now = now
    for a, (held, _) in holdings.items():
        st = ctx.states[a]
        st.rng = random.Random(f"stop:{a}")
        for t in held:
            st.schedule.insert(t)
            if t.task_id in frozen:
                st.schedule.freeze(t)
        st.assigned = set(st.schedule.by_request)
    return ctx


def scheduled_sets(ctx):
    return {a: frozenset(st.schedule.by_request) for a, st in ctx.states.items()}


def test_search_stops_after_one_round_when_repair_left_nothing_to_insert():
    """Every held request is assigned and uncontested, so the stochastic
    update flips most of them off; that changes no schedule, and request 4
    (its only window already started) and agent 1's contested copy of
    request 1 cannot be inserted. The first round changes nothing."""
    ctx = search_context(
        {
            0: ([task(0, 1, 100, 110), task(1, 2, 200, 210), task(2, 3, 300, 310)],
                [task(3, 4, 10, 20)]),
            1: ([task(4, 5, 100, 110, agent_id=1), task(5, 6, 200, 210, agent_id=1)],
                [task(6, 1, 400, 410, agent_id=1)]),
        },
        now=50.0,
    )
    before = scheduled_sets(ctx)
    group = SearchGroup((0, 1), frozenset(range(1, 7)))
    assert synchronous_search([group], ctx, SolverConfig(max_iters=10)) == 1
    assert scheduled_sets(ctx) == before
    # one round, one message each way, carrying the sender's held requests
    assert (ctx.states[0].sent_count, ctx.states[0].sent_bytes) == (1, message_bytes(3)) == (1, 43)
    assert (ctx.states[1].sent_count, ctx.states[1].sent_bytes) == (1, message_bytes(2)) == (1, 34)


def test_search_stops_one_round_after_the_last_schedule_change(monkeypatch):
    """Round 1 inserts agent 0's free request 2 and drops its copy of
    request 3, which agent 1 already executed with its frozen task 3;
    round 2 changes nothing."""
    ctx = search_context(
        {
            0: ([task(0, 1, 100, 110), task(1, 3, 300, 310)], [task(2, 2, 200, 210)]),
            1: ([task(3, 3, 0, 10, agent_id=1)], []),
        },
        frozen={3},
        now=50.0,
    )
    history = [scheduled_sets(ctx)]
    record = solvers.RunContext.record_iteration

    def recording(self, iteration):
        history.append(scheduled_sets(self))
        record(self, iteration)

    monkeypatch.setattr(solvers.RunContext, "record_iteration", recording)
    group = SearchGroup((0, 1), frozenset({1, 2, 3}))
    assert synchronous_search([group], ctx, SolverConfig(max_iters=10)) == 2
    assert history[1] == {0: frozenset({1, 2}), 1: frozenset({3})}
    assert history[2] == history[1] != history[0]


def test_search_rejects_groups_that_share_an_agent():
    """A member's round state belongs to one group, so a search over groups
    that share an agent is refused before any round runs."""
    ctx = search_context({0: ([task(0, 1, 100, 110)], []), 1: ([], [])}, now=50.0)
    groups = [SearchGroup((0, 1), frozenset({1})), SearchGroup((1,), frozenset({1}))]
    with pytest.raises(ValueError, match="share an agent"):
        synchronous_search(groups, ctx, SolverConfig(max_iters=10))
    assert ctx.trace == [] and ctx.states[0].sent_count == 0


def test_iterative_solvers_stop_at_the_first_unchanged_round(rng, monkeypatch):
    """Over whole runs, every round but the last changes some schedule, and
    the last changes none unless the round cap ended the search."""
    searches = []
    open_search = []  # the running search's history, while one runs
    original = solvers.synchronous_search
    record = solvers.RunContext.record_iteration

    def recording(self, iteration):
        for history in open_search:
            history.append(scheduled_sets(self))
        record(self, iteration)

    def spy(groups, ctx, cfg):
        history = [scheduled_sets(ctx)]
        open_search.append(history)
        rounds = original(groups, ctx, cfg)
        open_search.remove(history)
        searches.append((rounds, cfg.max_iters, history))
        return rounds

    monkeypatch.setattr(solvers.RunContext, "record_iteration", recording)
    monkeypatch.setattr(solvers, "synchronous_search", spy)
    for _ in range(4):
        problem, targets = make_problem(rng, n_agents=5, n_requests=14, n_events=2)
        for name in ("dnss", "0nss", "ddsa", "0dsa"):
            run(problem, targets, name, cfg())
    assert searches
    for rounds, cap, history in searches:
        assert len(history) == rounds + 1
        assert all(history[k] != history[k - 1] for k in range(1, rounds))
        assert rounds == cap or history[rounds] == history[rounds - 1]


@pytest.mark.parametrize("seed", range(4))
def test_executed_requests_are_always_held(seed, monkeypatch):
    """A request counts as executed only through a frozen task, and a frozen
    task never leaves its schedule: at every recorded iteration of every
    solver, each agent holds its frozen tasks and executed requests."""
    record = solvers.RunContext.record_iteration
    checked = []

    def checking(self, iteration):
        for st in self.states.values():
            sched = st.schedule
            assert sched.frozen <= {t.task_id for t in sched.tasks()}
            assert sched.executed == {t.request_id for t in sched.tasks() if t.task_id in sched.frozen}
            assert sched.executed <= set(sched.by_request)
        checked.append(any(st.schedule.frozen for st in self.states.values()))
        record(self, iteration)

    monkeypatch.setattr(solvers.RunContext, "record_iteration", checking)
    problem, targets = make_problem(random.Random(seed), n_agents=4, n_requests=14, n_events=3)
    for name in SOLVER_NAMES:
        run(problem, targets, name, cfg())
    assert any(checked)  # some task ran, so the invariant was not vacuous


def test_message_bytes_are_header_plus_payload(rng):
    problem, targets = make_problem(rng, n_agents=3, n_requests=8, n_events=1)
    m = run(problem, targets, "ddsa", cfg(run_all_iterations=True, max_iters=3)).metrics
    assert m.message_bytes >= m.message_count * message_bytes(0)
    assert (m.message_bytes - m.message_count * message_bytes(0)) % 9 == 0


def test_reported_utility_matches_snapshot_recomputation(rng):
    for _ in range(5):
        problem, targets = make_problem(rng, n_requests=12, n_events=3)
        for name in ("dnss", "ddsa", "0nss", "0dsa"):
            res = run(problem, targets, name, cfg())
            # reported utility equals the utility recomputed from snapshots
            from cosched.problem import dynamic_utility

            assert res.metrics.satisfied == dynamic_utility(res.snapshots, problem)


def test_unknown_solver_rejected(rng):
    problem, targets = make_problem(rng)
    with pytest.raises(ValueError):
        run(problem, targets, "simulated-annealing", cfg())


# ---------------------------------------------------------------------------
# the search's fast path against the straightforward one


def reference_clear(self):
    """Every non-frozen task removed one at a time, in start order."""
    for task in self.tasks():
        if task.task_id not in self.frozen:
            self.remove(task)


def reference_repair(state, allowed, ctx, rng):
    """``repair`` spelled out: a predicate per held task, then the stdlib
    shuffle of the filtered pool."""
    sched = state.schedule
    executed = state.reported_executed | sched.executed
    sched.drop_where(lambda t: t.request_id not in allowed or t.request_id in executed)
    state.assigned &= allowed
    state.assigned |= set(sched.by_request) & allowed
    state.assigned -= executed
    pool = [
        t
        for t in ctx.problem.tasks_by_agent.get(sched.agent_id, [])
        if t.request_id in allowed and t.request_id not in executed and t.start >= ctx.now
    ]
    rng.shuffle(pool)
    state.draws += len(pool)
    for task in pool:
        if not sched.has_request(task.request_id) and sched.can_insert(task):
            sched.insert(task)
            state.assigned.add(task.request_id)


def reference_search(groups, ctx, cfg):
    """``synchronous_search`` spelled out: every round rebuilds each
    member's requests, shuffles them with the stdlib and asks
    ``stochastic_update`` about each one."""
    last = {a: set(st.schedule.by_request) for a, st in ctx.states.items()}
    rounds = 0
    live = list(groups)
    while live and rounds < cfg.max_iters:
        rounds += 1
        live = [g for g in live if reference_round(g, ctx, cfg, last) or cfg.run_all_iterations]
        ctx.record_iteration(rounds)
    return rounds


def reference_round(group, ctx, cfg, last):
    states = ctx.states
    members = group.agents
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
        for rid in mine:
            w = counts.get(rid, 0) - (1 if rid in payloads[a] else 0)
            executed, assigned = rid in group_executed, rid in st.assigned
            st.draws += assigned and not executed
            if stochastic_update(executed, assigned, w, cfg.p_u, st.rng):
                st.assigned.add(rid)
                if not st.schedule.has_request(rid):
                    solvers.schedule_insert(
                        st.schedule, rid, ctx.problem.candidates.get((a, rid), []), ctx.now
                    )
            else:
                st.assigned.discard(rid)
                if executed:
                    task = st.schedule.by_request.get(rid)
                    if task is not None and task.task_id not in st.schedule.frozen:
                        st.schedule.remove(task)
    changed = False
    for a in members:
        new_sched = set(states[a].schedule.by_request)
        changed |= new_sched != last[a]
        last[a] = new_sched
    return changed


@pytest.mark.parametrize("memory", [120 * MB, 40 * MB], ids=["roomy", "capacity-bound"])
def test_search_records_match_the_reference_search(memory, monkeypatch):
    """All four search solvers write the same run record with the module's
    ``repair``, ``synchronous_search`` and ``ScheduleState.clear`` as with
    the straightforward versions above (stdlib shuffle, one
    ``stochastic_update`` call per request, one ``remove`` per cleared
    task), with and without ``run_all_iterations``. At 40 MB of memory the
    capacity check binds and inserts displace."""
    records = {}
    for mode in ("fast", "reference"):
        with monkeypatch.context() as m:
            if mode == "reference":
                m.setattr(solvers, "repair", reference_repair)
                m.setattr(solvers, "synchronous_search", reference_search)
                m.setattr(ScheduleState, "clear", reference_clear)
            for seed in range(20):
                problem, targets = make_problem(
                    random.Random(seed), n_agents=5, n_requests=14, n_events=3, memory_bytes=memory
                )
                for run_all in (False, True):
                    for name in ("dnss", "0nss", "ddsa", "0dsa"):
                        result = run(problem, targets, name, cfg(run_all_iterations=run_all))
                        records[mode, seed, run_all, name] = result.to_record()
    fast = {k[1:]: v for k, v in records.items() if k[0] == "fast"}
    reference = {k[1:]: v for k, v in records.items() if k[0] == "reference"}
    assert fast == reference
    # the runs did search: some record drew, inserted and sent messages
    assert any(r["metrics"]["rng_draws"] and r["metrics"]["message_bytes"] for r in fast.values())
