"""One pass of a workload: build, oracles, solver runs, records and the gate.

A pass is a closed loop with one client in one thread: every call starts
after the previous one returns. The benchmark calls cosched only through its
public module attributes (``scenarios.generate_scenario``, ``oracle.*``,
``sim.run``) so the wrappers in ``tracing`` see every call.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import asdict, dataclass, field

from cosched import oracle, scenarios, sim
from cosched.problem import DynamicProblem, check_constraints, dynamic_utility

from tracing import Spans, installed
from workloads import Workload

SILENT_SOLVERS = ("greedy", "random")
ORACLES = ("bnb", "swo")
# B&B runs without a wall-clock deadline, so only this budget can bind and
# node counts never depend on machine speed
BNB_NODE_BUDGET = 20_000


def check_run(problem: DynamicProblem, solver: str, result: sim.RunResult) -> list[str]:
    """Correctness gate for one solver run; returns the violations found."""
    problems = []
    agents = {a.agent_id: a for a in problem.agents}
    for aid, task_ids in sorted(result.final_schedules.items()):
        verdict = check_constraints(
            [problem.tasks[t] for t in task_ids],
            agents[aid].memory_bytes,
            problem.downlinks_by_agent.get(aid, []),
        )
        if not verdict:
            problems.append(f"agent {aid} final schedule infeasible: {verdict.reason} ({verdict.detail})")
    rescored = dynamic_utility([set(s) for s in result.snapshots], problem)
    if rescored != result.metrics.satisfied:
        problems.append(f"recorded utility {result.metrics.satisfied} != re-scored {rescored}")
    if solver in SILENT_SOLVERS and result.metrics.message_bytes != 0:
        problems.append(f"{solver} sent {result.metrics.message_bytes} message bytes")
    return problems


def check_oracles(results: dict[str, oracle.OracleResult]) -> list[str]:
    bnb, swo = results.get("bnb"), results.get("swo")
    if bnb is not None and swo is not None and bnb.proven_optimal and bnb.satisfied < swo.satisfied:
        return [f"proven bnb optimum {bnb.satisfied} < swo bound {swo.satisfied}"]
    return []


@dataclass
class PassResult:
    wall_s: float
    spans: Spans
    records: dict[str, str]  # record key -> sha256 of its serialised record
    attempted: int = 0
    failed: int = 0
    satisfaction: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    message_bytes: dict[str, list[int]] = field(default_factory=lambda: defaultdict(list))
    accounting: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    counters: dict[str, float] = field(default_factory=lambda: defaultdict(float))

    @property
    def digest(self) -> str:
        h = hashlib.sha256()
        for key, value in self.records.items():
            h.update(f"{key}\t{value}\n".encode())
        return h.hexdigest()

    def fail(self, what: str, detail: str) -> None:
        self.failed += 1
        print(f"FAILED {what}: {detail}", file=sys.stderr)


class _Pass:
    def __init__(self, workload: Workload, seed: int, spans: Spans):
        self.w = workload
        self.seed = seed
        self.spans = spans
        self.out = PassResult(0.0, spans, {})

    def _record(self, key: str, record: dict) -> None:
        with self.spans.span("cli.record"):
            text = json.dumps(record, indent=1, sort_keys=True)
            self.out.records[key] = hashlib.sha256(text.encode()).hexdigest()

    def build(self, config, index: int):
        out = self.out
        out.attempted += 1
        self.spans.set_group(f"{config.name}-{index:03d}")
        try:
            with self.spans.span("scenarios.build"):
                sc = scenarios.generate_scenario(config, index)
                with self.spans.span("problem.validate"):
                    sc.problem.validate()
        except Exception:
            out.fail(f"build {config.name}-{index:03d}", traceback.format_exc())
            return None
        p = sc.problem
        out.counters["problem.tasks"] += len(p.tasks)
        out.counters["problem.requests"] += len(p.requests)
        out.counters["problem.events"] += p.num_changes
        return sc

    def oracles(self, sc) -> dict[str, oracle.OracleResult]:
        out = self.out
        self.spans.set_group(f"{sc.label}/oracle")
        results: dict[str, oracle.OracleResult] = {}
        try:
            inst = oracle.collapse(sc.problem)
        except Exception:
            inst = None
            collapse_error = traceback.format_exc()
        for mode in ORACLES:
            out.attempted += 1
            if inst is None:
                out.fail(f"{sc.label} {mode}", collapse_error)
                continue
            try:
                if mode == "bnb":
                    res = oracle.branch_and_bound(
                        inst, node_budget=BNB_NODE_BUDGET, time_budget_s=math.inf
                    )
                    out.counters["oracle.bnb.calls"] += 1
                    out.counters["oracle.bnb.nodes"] += res.nodes
                    out.counters["oracle.bnb.proven"] += res.proven_optimal
                else:
                    res = oracle.swo(inst)
                    out.counters["oracle.swo.rounds"] += res.rounds
            except Exception:
                out.fail(f"{sc.label} {mode}", traceback.format_exc())
                continue
            results[mode] = res
            self._record(
                f"{sc.label}/oracle/{mode}",
                {
                    "scenario": sc.label,
                    "mode": mode,
                    "satisfied": res.satisfied,
                    "proven_optimal": res.proven_optimal,
                    "nodes": res.nodes,
                    "rounds": res.rounds,
                },
            )
        with self.spans.span("cli.verify"):
            problems = check_oracles(results)
        for problem in problems:
            out.fail(f"{sc.label} oracles", problem)
        return results

    def solve(self, sc, k: int, cfg, solver: str, bnb: oracle.OracleResult | None) -> None:
        out = self.out
        out.attempted += 1
        key = f"{sc.label}/{solver}/{k}"
        self.spans.set_group(key)
        try:
            with self.spans.span("sim.run"):
                result = sim.run(sc.problem, sc.targets, solver, cfg)
            self._record(
                key,
                {
                    "scenario": sc.label,
                    "solver": solver,
                    "seed_set": k,
                    "solver_config": asdict(cfg),
                    "run": result.to_record(),
                },
            )
            with self.spans.span("cli.verify"):
                problems = check_run(sc.problem, solver, result)
                if bnb is not None and bnb.proven_optimal and result.metrics.satisfied > bnb.satisfied:
                    problems.append(
                        f"satisfied {result.metrics.satisfied} exceeds proven optimum {bnb.satisfied}"
                    )
        except Exception:
            out.fail(key, traceback.format_exc())
            return
        if problems:
            out.fail(key, "; ".join(problems))
            return
        m = result.metrics
        out.satisfaction[solver].append(m.satisfaction_pct)
        out.message_bytes[solver].append(m.message_bytes)
        for name, value in (
            ("constraint_checks", m.constraint_checks),
            ("rng_draws", m.rng_draws),
            ("message_count", m.message_count),
            ("message_bytes", m.message_bytes),
            ("iterations", m.iterations_total),
        ):
            out.accounting[f"{name}.{solver}"] += value

    def run(self) -> PassResult:
        config = self.w.config()
        seed_sets = self.w.solver_configs(config, self.seed)
        t0 = time.perf_counter()
        # each scenario is built, solved and dropped before the next, so every
        # phase's timings are spread over the whole pass rather than bunched
        # into one stretch of a shared machine's noise
        for index in range(self.w.scenarios):
            sc = self.build(config, index)
            if sc is None:
                continue
            bnb = self.oracles(sc).get("bnb")
            for k, cfg in enumerate(seed_sets):
                for solver in self.w.solvers:
                    self.solve(sc, k, cfg, solver, bnb)
        self.out.wall_s = time.perf_counter() - t0
        return self.out


def run_pass(workload: Workload, seed: int, traced: bool) -> PassResult:
    """Run the whole workload once, with phase timers or full tracing."""
    spans = Spans()
    with installed(spans, traced):
        result = _Pass(workload, seed, spans).run()
    result.counters.update(spans.counters)
    return result
