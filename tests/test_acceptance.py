"""Acceptance suite: end-to-end criteria, one pass/fail line each.

Each test prints its verdict on an uncaptured stream so the line appears in
every pytest run, then asserts it. Tolerances and scenario counts are fixed
here on purpose; loosening them is never the right fix for a failure.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import random
import sys
import time

import pytest

from cosched.decomposition import gnd, partition_agents
from cosched.oracle import branch_and_bound, collapse, run_oracle, swo
from cosched.problem import check_constraints, dynamic_utility, executed_task_ids, static_utility
from cosched.scenarios import generate_scenario, preset
from cosched.sim import run, stability_drops
from cosched.solvers import (
    SOLVER_NAMES,
    SolverConfig,
    fresh_schedules,
    stochastic_update,
)

from conftest import make_problem, random_trace
from test_problem import replay_utility

ITERATIVE = ("dnss", "0nss", "ddsa", "0dsa")


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"[acceptance {num:2d}] {name}: {verdict}" + (f"  ({detail})" if detail else "")
    print(line, file=sys.__stderr__, flush=True)
    assert ok, line


# ---------------------------------------------------------------------------
# shared scenario caches


@pytest.fixture(scope="module")
def tiny_scenarios():
    return [generate_scenario(preset("tiny"), i) for i in range(30)]


@pytest.fixture(scope="module")
def walker_scenarios():
    return [generate_scenario(preset("small-walker"), i) for i in range(10)]


@pytest.fixture(scope="module")
def planet_v5_scenarios():
    cfg = preset("small-planet", volatility="fixed-5")
    return [generate_scenario(cfg, i) for i in range(10)]


# ---------------------------------------------------------------------------


def test_01_collapse_equivalence():
    """Dynamic utility of any feasible trace equals static utility on the
    collapsed instance: 200 instances x 50 traces, exact equality."""
    t0 = time.perf_counter()
    rng = random.Random(20260826)
    checked = 0
    for i in range(200):
        problem, _ = make_problem(
            rng,
            n_agents=rng.randint(1, 8),
            n_requests=rng.randint(3, 20),
            n_events=rng.randint(0, 4),
        )
        inst = collapse(problem)
        surviving = {t.task_id for tasks in inst.candidates.values() for t in tasks}
        for _ in range(50):
            trace = random_trace(problem, rng)
            executed = executed_task_ids(trace, problem)
            # the collapse keeps every task that any trace can execute
            assert executed <= surviving
            dyn = dynamic_utility(trace, problem)
            # independent event-replay interpreter agrees
            assert dyn == replay_utility(trace, problem)
            stat = static_utility(executed, problem.tasks, problem.ever_active)
            assert dyn == stat
            checked += 1
    elapsed = time.perf_counter() - t0
    report(
        1,
        "collapse equivalence",
        checked == 10_000 and elapsed < 30.0,
        f"{checked} traces, {elapsed:.1f}s",
    )


def test_02_gap_ordering_on_tiny(tiny_scenarios):
    """Mean optimality gap: dnss <= every baseline and <= 5 percentage points,
    against the proven branch-and-bound optimum, over 30 tiny scenarios."""
    t0 = time.perf_counter()
    gaps: dict[str, list[float]] = {name: [] for name in SOLVER_NAMES}
    for sc in tiny_scenarios:
        oracle = run_oracle(sc.problem, "bnb")
        assert oracle.proven_optimal
        total = len(sc.problem.ever_active)
        opt_pct = oracle.satisfaction_pct(total)
        cfg = sc.config.solver_config()
        for name in SOLVER_NAMES:
            m = run(sc.problem, sc.targets, name, cfg).metrics
            gaps[name].append(opt_pct - m.satisfaction_pct)
    mean = {name: sum(g) / len(g) for name, g in gaps.items()}
    dnss = mean["dnss"]
    ordered = all(dnss <= mean[o] + 1e-9 for o in SOLVER_NAMES if o != "dnss")
    elapsed = time.perf_counter() - t0
    detail = ", ".join(f"{n}={mean[n]:.3f}" for n in SOLVER_NAMES) + f"; {elapsed:.0f}s"
    report(2, "exact-oracle gap ordering", ordered and dnss <= 5.0 and elapsed < 600, detail)


def test_03_message_volume_separation(walker_scenarios):
    """NSS-family total message bytes <= one tenth of the DSA-family's, per
    matched scenario, on 10 small-walker scenarios."""
    t0 = time.perf_counter()
    worst = 0.0
    for sc in walker_scenarios:
        cfg = sc.config.solver_config()
        bytes_of = {
            name: run(sc.problem, sc.targets, name, cfg).metrics.message_bytes
            for name in ITERATIVE
        }
        for nss, dsa in (("dnss", "ddsa"), ("0nss", "0dsa")):
            ratio = bytes_of[nss] / bytes_of[dsa]
            worst = max(worst, ratio)
            assert bytes_of[nss] * 10 <= bytes_of[dsa], (sc.label, nss, bytes_of)
    elapsed = time.perf_counter() - t0
    report(
        3,
        "message-volume separation",
        worst <= 0.1 and elapsed < 600,
        f"worst NSS/DSA byte ratio {worst:.3f}; {elapsed:.0f}s",
    )


def test_04_zero_communication_baselines(tiny_scenarios, walker_scenarios):
    total = 0
    for sc in tiny_scenarios + walker_scenarios:
        cfg = sc.config.solver_config()
        for name in ("greedy", "random"):
            m = run(sc.problem, sc.targets, name, cfg).metrics
            assert m.message_bytes == 0 and m.message_count == 0, (sc.label, name)
            total += 1
    report(4, "zero-communication baselines", True, f"{total} runs at 0 bytes")


def test_05_stability(planet_v5_scenarios):
    """Incremental variants drop less quality at change events than their
    from-scratch twins (>= 9/10 scenarios), and dnss holds its quality within
    5 points across >= 80% of events."""
    nss_wins = dsa_wins = 0
    held = 0
    events_total = 0
    for sc in planet_v5_scenarios:
        cfg = dataclasses.replace(sc.config.solver_config(), run_all_iterations=True)
        n_events = len(sc.problem.snapshots) - 1
        drops = {}
        for name in ITERATIVE:
            trace = run(sc.problem, sc.targets, name, cfg).metrics.trace
            drops[name] = stability_drops(trace, n_events)
        mean = {n: sum(d) / len(d) for n, d in drops.items()}
        nss_wins += mean["dnss"] <= mean["0nss"] + 1e-9
        dsa_wins += mean["ddsa"] <= mean["0dsa"] + 1e-9
        held += sum(1 for d in drops["dnss"] if d <= 5.0)
        events_total += len(drops["dnss"])
    held_frac = held / events_total
    ok = nss_wins >= 9 and dsa_wins >= 9 and held_frac >= 0.8
    report(
        5,
        "post-event stability",
        ok,
        f"nss {nss_wins}/10, dsa {dsa_wins}/10, dnss held {held_frac:.0%} of events",
    )


def test_06_update_table_frequencies():
    """Empirical assignment frequencies over 10,000 seeded draws match the
    update table within +-0.02 (exactly for the deterministic cells)."""
    n = 10_000
    cells = [
        # (executed, assigned, w, expected p, exact)
        (True, True, 0, 0.0, True),
        (True, False, 3, 0.0, True),
        (False, False, 0, 1.0, True),
        (False, False, 1, 0.0, True),
        (False, False, 4, 0.0, True),
        (False, True, 0, 1.0 - 0.7, False),
        (False, True, 1, 1.0, True),  # 1/W with W=1
        (False, True, 2, 0.5, False),
        (False, True, 4, 0.25, False),
    ]
    worst = 0.0
    for executed, assigned, w, p, exact in cells:
        rng = random.Random(f"table:{executed}:{assigned}:{w}")
        freq = sum(stochastic_update(executed, assigned, w, 0.7, rng) for _ in range(n)) / n
        err = abs(freq - p)
        if exact:
            assert err == 0.0, (executed, assigned, w, freq)
        else:
            assert err <= 0.02, (executed, assigned, w, freq)
            worst = max(worst, err)
    report(6, "update-table frequencies", True, f"worst stochastic error {worst:.4f}")


def test_07_feasibility_invariants():
    """1,000 randomized solver steps: the schedule returned after every event
    by every solver passes the from-scratch constraint checker."""
    rng = random.Random(777)
    steps = 0
    while steps < 1000:
        problem, targets = make_problem(
            rng,
            n_agents=rng.randint(1, 5),
            n_requests=rng.randint(4, 16),
            n_events=rng.randint(0, 4),
        )
        cfg = SolverConfig(neighborhood_size=2, max_iters=6)
        for name in SOLVER_NAMES:
            res = run(problem, targets, name, cfg)
            for scheduled in res.snapshots:
                by_agent: dict[int, list] = {}
                for tid in scheduled:
                    t = problem.tasks[tid]
                    by_agent.setdefault(t.agent_id, []).append(t)
                for agent in problem.agents:
                    verdict = check_constraints(
                        by_agent.get(agent.agent_id, []),
                        agent.memory_bytes,
                        problem.downlinks_by_agent.get(agent.agent_id, []),
                    )
                    assert verdict, (name, agent.agent_id, verdict.reason)
                steps += 1
    report(7, "feasibility invariants", True, f"{steps} solver steps checked")


def test_08_complexity_accounting():
    """Whole-run message counts equal the closed-form per-iteration formulas,
    and the decomposition keeps per-neighborhood request sets local."""
    rng = random.Random(31)
    for trial in range(5):
        problem, targets = make_problem(
            rng, n_agents=rng.randint(2, 7), n_requests=rng.randint(6, 16),
            n_events=rng.randint(0, 3),
        )
        cfg = SolverConfig(neighborhood_size=2, max_iters=5, run_all_iterations=True)
        n_events = len(problem.snapshots)

        groups = partition_agents(problem.agents, cfg.neighborhood_size)
        per_iter_nss = sum(len(g.agents) * (len(g.agents) - 1) for g in groups)
        for name in ("dnss", "0nss"):
            m = run(problem, targets, name, cfg).metrics
            assert m.message_count == n_events * cfg.max_iters * per_iter_nss, name

        n = len(problem.agents)
        for name in ("ddsa", "0dsa"):
            m = run(problem, targets, name, cfg).metrics
            assert m.message_count == n_events * cfg.max_iters * n * (n - 1), name

        # locality: every request lands in at most gnd_n neighborhoods and
        # each neighborhood handles a subset of the active requests
        for snap in problem.snapshots:
            active_requests = {r: problem.requests[r] for r in snap.active}
            candidates = {
                r: {t.agent_id for t in problem.tasks.values() if t.request_id == r}
                for r in snap.active
            }
            alloc = gnd(
                active_requests,
                problem.agents,
                candidates,
                n=cfg.gnd_n,
                neighborhood_size=cfg.neighborhood_size,
            )
            for rid in snap.active:
                homes = sum(1 for nb in alloc.neighborhoods if rid in nb.requests)
                assert homes <= cfg.gnd_n
            for nb in alloc.neighborhoods:
                assert nb.requests <= snap.active
    report(8, "complexity accounting", True, "exact message counts over 5 instances")


def exhaustive_optimum(inst) -> int:
    """Plain depth-first enumeration over (at most) one task per request with
    incremental feasibility; no bounding, independent of branch_and_bound."""
    rids = sorted(inst.candidates)
    states = fresh_schedules(inst.problem)
    best = 0

    def dfs(i: int, chosen: int) -> None:
        nonlocal best
        if i == len(rids):
            best = max(best, chosen)
            return
        dfs(i + 1, chosen)  # skip this request
        for task in inst.candidates[rids[i]]:
            st = states[task.agent_id]
            if st.can_insert(task):
                st.insert(task)
                dfs(i + 1, chosen + 1)
                st.remove(task)

    dfs(0, 0)
    return best


def test_09_oracle_sandwich(tiny_scenarios):
    """greedy <= swo <= bnb on every tiny scenario; every solver <= bnb; and
    bnb matches plain exhaustive enumeration on the small instances."""
    enumerated = 0
    for sc in tiny_scenarios:
        inst = collapse(sc.problem)
        g, s, b = swo(inst, rounds=1), swo(inst), branch_and_bound(inst)
        assert b.proven_optimal
        assert g.satisfied <= s.satisfied <= b.satisfied, sc.label
        cfg = sc.config.solver_config()
        for name in SOLVER_NAMES:
            m = run(sc.problem, sc.targets, name, cfg).metrics
            assert m.satisfied <= b.satisfied, (sc.label, name)
        if len(sc.problem.ever_active) <= 12:
            # truncating candidate lists yields a smaller valid instance on
            # which unpruned enumeration is affordable
            small = dataclasses.replace(
                inst,
                candidates={r: c[:2] for r, c in inst.candidates.items()},
            )
            assert branch_and_bound(small).satisfied == exhaustive_optimum(small)
            enumerated += 1
    report(9, "oracle sandwich", True, f"30 scenarios, {enumerated} enumerated exactly")


def test_10_determinism(tiny_scenarios, walker_scenarios):
    """Bit-identical run records (wall-clock excluded) across repeated runs."""
    import json

    compared = 0
    for sc in [tiny_scenarios[0], tiny_scenarios[1], walker_scenarios[0]]:
        cfg = sc.config.solver_config()
        for name in SOLVER_NAMES:
            a = json.dumps(run(sc.problem, sc.targets, name, cfg).to_record(), sort_keys=True)
            b = json.dumps(run(sc.problem, sc.targets, name, cfg).to_record(), sort_keys=True)
            assert a == b, (sc.label, name)
            compared += 1
    report(10, "determinism", True, f"{compared} (scenario, solver) pairs bit-identical")


# proven optima of small-walker-000..009; a search that recomputes its bound
# at every node finds the same
WALKER_OPTIMA = (145, 162, 161, 174, 154, 127, 129, 125, 148, 152)


def test_12_exact_optimum_at_small_walker_scale(walker_scenarios):
    """branch_and_bound proves every small-walker scenario optimal within its
    default budgets, at the pinned optimum, and never below the SWO bound."""
    t0 = time.perf_counter()
    proven = 0
    for sc, optimum in zip(walker_scenarios, WALKER_OPTIMA, strict=True):
        inst = collapse(sc.problem)
        b, s = branch_and_bound(inst), swo(inst)
        proven += b.proven_optimal
        assert s.satisfied <= b.satisfied, (sc.label, s.satisfied, b.satisfied)
        assert b.satisfied == optimum, (sc.label, b.satisfied)
    elapsed = time.perf_counter() - t0
    n = len(walker_scenarios)
    report(
        12,
        "exact optimum at small-walker scale",
        proven == n,
        f"proven {proven}/{n} = {proven / n:.2f}; {elapsed:.1f}s",
    )
