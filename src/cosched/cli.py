"""Command-line harness: generate scenarios, run benchmark sweeps, replay runs.

Exit codes: 0 success, 2 configuration error, 3 solver invariant violation or
replay mismatch, 4 oracle budget exhausted where an optimum was required.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Callable, Iterator
from dataclasses import asdict, replace
from functools import cache
from pathlib import Path

from .oracle import ORACLE_MODES, run_oracle
from .problem import (
    DynamicProblem,
    MalformedScheduleError,
    Task,
    check_constraints,
    dynamic_utility,
    satisfaction_pct,
)
from .scenarios import (
    ConfigError,
    PRESETS,
    Scenario,
    ScenarioConfig,
    generate_scenario,
    load_scenario,
    preset,
    read_json_object,
    save_scenario,
)
from .sim import run, stability_drops
from .solvers import SOLVER_NAMES, SolverConfig, SolverInvariantError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVARIANT = 3
EXIT_ORACLE_BUDGET = 4


def cmd_generate(args) -> int:
    if args.count < 1:
        raise ConfigError(f"count: must be >= 1, got {args.count}")
    if args.config:
        cfg = ScenarioConfig.from_dict(read_json_object(args.config, "config file"))
    elif args.preset:
        cfg = preset(args.preset)
    else:
        raise ConfigError("either --preset or --config is required")
    if args.volatility is not None:
        cfg = replace(cfg, volatility=args.volatility)
        cfg.validate()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for i in range(args.count):
        sc = generate_scenario(cfg, i)
        path = out / f"{sc.label}.json"
        save_scenario(sc, path)
        p = sc.problem
        print(
            f"{path}: agents={len(p.agents)} requests={len(p.requests)} "
            f"active-ever={len(p.ever_active)} events={p.num_changes} "
            f"tasks={len(p.tasks)}"
        )
    return EXIT_OK


def cmd_bench(args) -> int:
    solvers = args.solvers.split(",") if args.solvers else list(SOLVER_NAMES)
    for i, name in enumerate(solvers):
        if name not in SOLVER_NAMES:
            raise ConfigError(f"solvers: unknown solver {name!r}")
        if name in solvers[:i]:
            raise ConfigError(f"solvers: {name} listed twice")
    paths = sorted(Path(args.scenarios).glob("*.json"))
    if not paths:
        print(f"no scenario files in {args.scenarios}", file=sys.stderr)
        return EXIT_CONFIG
    out = Path(args.out)

    rows = []
    budget_hit = False
    for path in paths:
        sc = load_scenario(path)
        out.mkdir(parents=True, exist_ok=True)
        solver_cfg = sc.config.solver_config()
        if args.fixed_iterations:
            solver_cfg.run_all_iterations = True

        oracle = args.oracle or sc.config.oracle
        oracle_res = None
        if oracle != "none":
            oracle_res = run_oracle(sc.problem, oracle)
            if oracle == "bnb" and not oracle_res.proven_optimal:
                budget_hit = True
            oracle_rec = {
                "scenario": sc.label,
                "mode": oracle,
                "satisfied": oracle_res.satisfied,
                "satisfaction_pct": oracle_res.satisfaction_pct(len(sc.problem.ever_active)),
                "proven_optimal": oracle_res.proven_optimal,
                "nodes": oracle_res.nodes,
                "rounds": oracle_res.rounds,
            }
            (out / f"{sc.label}_oracle.json").write_text(
                json.dumps(oracle_rec, indent=1, sort_keys=True) + "\n"
            )

        for name in solvers:
            result = run(sc.problem, sc.targets, name, solver_cfg)  # main reports an invariant violation
            m = result.metrics
            record = {
                "scenario": sc.label,
                "scenario_file": str(path),
                "solver": name,
                "solver_config": asdict(solver_cfg),
                "run": result.to_record(),
                "wall_time_s": m.wall_time_s,
            }
            if oracle_res is not None:
                record.update(gap_fields(oracle_res.satisfied, oracle_res.proven_optimal,
                                         m.total_requests, m.satisfaction_pct))
            (out / f"{sc.label}_{name}.json").write_text(
                json.dumps(record, indent=1, sort_keys=True) + "\n"
            )
            # the table also shows the run's mean post-event drop, which the
            # record leaves out: its trace already determines it
            drops = stability_drops(m.trace, sc.problem.num_changes)
            rows.append(dict(record, drop_pp=sum(drops) / len(drops) if drops else None))

    table = _format_table(rows)
    (out / "results_table.txt").write_text(table + "\n")
    print(table)
    return EXIT_ORACLE_BUDGET if (budget_hit and args.require_optimal) else EXIT_OK


def gap_fields(oracle_satisfied: int, proven_optimal: bool, total_requests: int, pct: float) -> dict:
    """A record's gap fields: the oracle's satisfaction minus the run's, and whether the oracle proved it."""
    return {"gap_pct": satisfaction_pct(oracle_satisfied, total_requests) - pct,
            "gap_reference": "optimal" if proven_optimal else "lower-bound"}


def _format_table(rows: list[dict]) -> str:
    """Per-solver means over the scenarios: optimality gap, wall time,
    message volume and post-event quality drop (each run's ``drop_pp``; runs
    without change events are left out of it)."""
    by_solver: dict[str, list[dict]] = {}
    for r in rows:
        by_solver.setdefault(r["solver"], []).append(r)
    lines = [
        f"{'Algorithm':<10} {'Opt. Gap (%)':>14} {'Time (ms)':>12} {'Messages (KB)':>15} "
        f"{'Drop (pp)':>10}  Reference"
    ]
    for name in SOLVER_NAMES:
        if name not in by_solver:
            continue
        rs = by_solver[name]
        gaps = [r["gap_pct"] for r in rs if "gap_pct" in r]
        gap_str = f"{sum(gaps)/len(gaps):.3f}" if gaps else "n/a"
        refs = {r.get("gap_reference", "n/a") for r in rs}
        ref = "optimal" if refs == {"optimal"} else ("/".join(sorted(refs)))
        ms = 1000.0 * sum(r["wall_time_s"] for r in rs) / len(rs)
        kb = sum(r["run"]["metrics"]["message_bytes"] for r in rs) / len(rs) / 1000.0
        drops = [r["drop_pp"] for r in rs if r["drop_pp"] is not None]
        drop_str = f"{sum(drops)/len(drops):+.2f}" if drops else "n/a"
        lines.append(f"{name:<10} {gap_str:>14} {ms:>12.1f} {kb:>15.1f} {drop_str:>10}  {ref}")
    return "\n".join(lines)


def cmd_replay(args) -> int:
    record = read_json_object(args.run, "run record")
    # the inputs of the re-run, and ``run`` only as a whole: it is compared as bytes
    _check_record(record, [(keys, kind) for keys, kind in RECORD_LAYOUT if len(keys) == 1])
    try:
        solver_cfg = SolverConfig(**record["solver_config"])
        solver_cfg.validate()
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"solver_config: {exc}") from None
    sc = load_scenario(record["scenario_file"])
    result = run(sc.problem, sc.targets, record["solver"], solver_cfg)
    # canonical bytes, not parsed values: 12.0 for 12, or true for 1, differs
    if json.dumps(result.to_record(), sort_keys=True) != json.dumps(record["run"], sort_keys=True):
        print("replay mismatch: stored run differs from deterministic re-run", file=sys.stderr)
        return EXIT_INVARIANT
    print(f"replay ok: {record['scenario']} / {record['solver']} reproduced bit-identically")
    return EXIT_OK


def _agent_tasks(problem: DynamicProblem, aid: int, task_ids: list[int]) -> list[Task]:
    """The recorded task ids of one agent's schedule, resolved against the
    scenario; an id the scenario lacks or gives to another agent is malformed."""
    if not isinstance(task_ids, list):
        raise MalformedScheduleError(f"expected a list of task ids, got {task_ids!r}")
    tasks = []
    for tid in task_ids:
        task = problem.tasks.get(tid) if _is_count(tid) else None
        if task is None:
            raise MalformedScheduleError(f"unknown task id {tid!r}")
        if task.agent_id != aid:
            raise MalformedScheduleError(f"task id {tid} belongs to agent {task.agent_id}")
        tasks.append(task)
    return tasks


def _is_count(value) -> bool:
    """The one rule for every count and task id of a record: an int that is
    not a bool (JSON's ``true`` is 1 to Python) and is not negative."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _has_kind(value, kind) -> bool:
    """Whether ``value`` is of ``kind``: a type (each int a count) or a tuple of values."""
    if isinstance(kind, tuple):
        return value in kind
    return _is_count(value) if kind is int else isinstance(value, kind)


# (key path, kind) of every record field ``replay`` or ``verify`` reads,
# parents first; ``replay`` reads the top-level ones
RECORD_LAYOUT = (
    (("scenario",), str),
    (("scenario_file",), str),
    (("solver",), SOLVER_NAMES),
    (("solver_config",), dict),
    (("run",), dict),
    (("run", "snapshots"), list),
    (("run", "final_schedules"), dict),
    (("run", "metrics"), dict),
    (("run", "metrics", "solver"), SOLVER_NAMES),
    (("run", "metrics", "satisfied"), int),
    (("run", "metrics", "satisfaction_pct"), float),
    (("run", "metrics", "total_requests"), int),
    (("run", "metrics", "iterations_total"), int),
    (("run", "metrics", "message_bytes"), int),
    (("run", "metrics", "message_count"), int),
    (("run", "metrics", "constraint_checks"), int),
    (("run", "metrics", "rng_draws"), int),
    (("run", "metrics", "trace"), list),
)


def _check_record(record, layout=RECORD_LAYOUT) -> None:
    """Raise ConfigError naming the first field ``layout`` cannot read."""
    if not isinstance(record, dict):
        raise ConfigError(f"expected a JSON object, got {type(record).__name__}")
    for keys, kind in layout:
        name, value = ".".join(keys), record
        for key in keys:  # every parent was checked to be an object
            if key not in value:
                raise ConfigError(f"{name}: missing from the run record")
            value = value[key]
        if _has_kind(value, kind):
            continue
        if isinstance(kind, tuple):
            raise ConfigError(f"{name}: unknown {keys[-1]} {value!r}; expected one of {kind}")
        if type(value) is kind:  # an int, but negative
            raise ConfigError(f"{name}: expected a non-negative count, got {value}")
        raise ConfigError(f"{name}: expected {kind.__name__}, got {type(value).__name__}")


# the kind of each trace row field: event, iteration, satisfied, satisfaction %,
# message bytes, op count
TRACE_ROW_KINDS = (int, int, int, float, int, int)


def _trace_error(metrics: dict) -> str | None:
    """Why the trace contradicts the record's counters, or None: each row has
    six fields of ``TRACE_ROW_KINDS``; events, bytes and op counts never
    decrease; each event's iterations count up from 0; each row's percentage
    is its satisfied count over ``total_requests``; there is one row per
    iteration; and the last row holds the run's totals."""
    trace = metrics["trace"]
    total = metrics["total_requests"]
    prev = None
    for i, row in enumerate(trace):
        if not isinstance(row, list) or len(row) != len(TRACE_ROW_KINDS):
            return f"row {i} does not have {len(TRACE_ROW_KINDS)} fields"
        for value, kind in zip(row, TRACE_ROW_KINDS):
            if not _has_kind(value, kind):
                return f"row {i} holds {value!r} where a {'non-negative count' if kind is int else kind.__name__} belongs"
        event, iteration, satisfied, pct, sent, ops = row
        if prev is not None and (event < prev[0] or sent < prev[4] or ops < prev[5]):
            return f"row {i} decreases the event, message bytes or op count of row {i - 1}"
        expected = prev[1] + 1 if prev is not None and event == prev[0] else 0
        if iteration != expected:
            return f"row {i} has iteration {iteration}, expected {expected}"
        if pct != satisfaction_pct(satisfied, total):
            return f"row {i} has satisfaction_pct {pct!r}, not 100 * {satisfied} / {total}"
        prev = row
    if len(trace) != metrics["iterations_total"]:
        return f"{len(trace)} rows, the record {metrics['iterations_total']} iterations"
    if not trace:
        return "no rows"
    sent, ops = trace[-1][4:]
    total_ops = metrics["constraint_checks"] + metrics["rng_draws"]
    if sent != metrics["message_bytes"] or ops != total_ops:
        return f"last row has {sent!r} bytes and {ops!r} ops, the record {metrics['message_bytes']} and {total_ops}"
    return None


def _gap_failures(record: dict, runs: Path) -> Iterator[str]:
    """Each reason the record's gap fields disagree with those ``gap_fields``
    derives from its scenario's oracle record in ``runs``; a record with neither has none."""
    present = {"gap_pct", "gap_reference"} & set(record)
    if len(present) < 2:
        if present:
            yield "gap_pct and gap_reference must be recorded together"
        return
    name = f"{record['scenario']}_oracle.json"
    try:
        oracle = read_json_object(runs / name, "oracle record")
    except ConfigError as exc:
        yield str(exc)
        return
    satisfied, proven = oracle.get("satisfied"), oracle.get("proven_optimal")
    if not _is_count(satisfied) or not isinstance(proven, bool):
        yield f"malformed oracle record {name}: satisfied {satisfied!r}, proven_optimal {proven!r}"
        return
    metrics = record["run"]["metrics"]
    for key, value in gap_fields(satisfied, proven, metrics["total_requests"], metrics["satisfaction_pct"]).items():
        if type(record[key]) is not type(value) or record[key] != value:  # 0 is not the gap 0.0
            yield f"recorded {key} {record[key]!r} != {value!r} from {name}"


def _verify_failures(path: Path, load: Callable[[str], Scenario]) -> Iterator[str]:
    """Each reason the run record at ``path`` fails ``verify``, found without
    re-running the solver; ``load`` loads a scenario file."""
    try:
        record = json.loads(path.read_text())
    except ValueError as exc:
        yield f"unreadable record: {exc}"
        return
    try:
        _check_record(record)
        problem = load(record["scenario_file"]).problem
    except ConfigError as exc:
        yield f"malformed record: {exc}"
        return
    snapshots, metrics = record["run"]["snapshots"], record["run"]["metrics"]
    # the snapshots re-score to the recorded utility
    unscheduled: set[int] = set()  # the last snapshot's tasks that no final schedule holds
    try:
        for i, snap in enumerate(snapshots):
            if not isinstance(snap, list):
                raise ValueError(f"snapshot {i} is not a list of task ids: {snap!r}")
            bad = [tid for tid in snap if not _is_count(tid)]
            if bad:
                raise ValueError(f"snapshot {i} holds a task id that is not an integer: {bad[0]!r}")
        satisfied = dynamic_utility([set(s) for s in snapshots], problem)
    except ValueError as exc:
        yield f"snapshot consistency violated: {exc}"
    else:
        unscheduled = set(snapshots[-1])
        if satisfied != metrics["satisfied"]:
            yield f"recorded utility {metrics['satisfied']} != replay {satisfied}"
    if metrics["satisfaction_pct"] != satisfaction_pct(metrics["satisfied"], metrics["total_requests"]):
        yield (f"recorded satisfaction_pct {metrics['satisfaction_pct']!r} "
               f"!= 100 * {metrics['satisfied']} / {metrics['total_requests']}")
    if metrics["total_requests"] != len(problem.ever_active):
        yield f"recorded total_requests {metrics['total_requests']} != {len(problem.ever_active)} ever-active requests"
    if metrics["solver"] != record["solver"]:
        yield f"recorded run of {metrics['solver']} in a record of {record['solver']}"
    # the final schedules are feasible, and hold the last snapshot's tasks
    agents = {a.agent_id: a for a in problem.agents}
    for aid_str, task_ids in record["run"]["final_schedules"].items():
        try:
            aid = int(aid_str)
            if aid not in agents:
                raise MalformedScheduleError("no such agent in the scenario")
            verdict = check_constraints(
                _agent_tasks(problem, aid, task_ids),
                agents[aid].memory_bytes,
                problem.downlinks_by_agent.get(aid, []),
            )
        except (MalformedScheduleError, ValueError) as exc:
            yield f"agent {aid_str} malformed schedule: {exc}"
            unscheduled = set()  # reported as malformed, not again as missing tasks
            continue
        unscheduled -= set(task_ids)
        if not verdict:
            yield f"agent {aid} infeasible: {verdict.reason}"
    if unscheduled:
        yield f"final schedules miss task {min(unscheduled)} of the last snapshot"
    trace_error = _trace_error(metrics)
    if trace_error is not None:
        yield f"trace inconsistent: {trace_error}"
    if record["solver"] in ("greedy", "random") and metrics["message_bytes"] != 0:
        yield f"{record['solver']} sent messages"  # zero-communication baselines
    yield from _gap_failures(record, path.parent)


def cmd_verify(args) -> int:
    paths = [p for p in sorted(Path(args.runs).glob("*_*.json")) if not p.name.endswith("_oracle.json")]
    if not paths:
        print(f"no run records in {args.runs}", file=sys.stderr)
        return EXIT_CONFIG
    load = cache(load_scenario)
    failures = 0
    for path in paths:
        lines = list(_verify_failures(path, load))
        for line in lines or ["ok"]:
            print(f"{path.name}: {line}")
        failures += bool(lines)
    if failures:
        print(f"{failures} run(s) failed verification", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cosched",
        description="Dynamic constellation observation scheduling harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write seeded scenario files")
    g.add_argument("--preset", choices=sorted(PRESETS))
    g.add_argument("--config", help="scenario config JSON (overrides --preset)")
    g.add_argument("--count", type=int, default=1, help="number of scenarios")
    g.add_argument("--out", required=True, help="output directory")
    g.add_argument("--volatility", help="change events per scenario: fixed-<k> or uniform-<lo>-<hi>")
    g.set_defaults(func=cmd_generate)

    b = sub.add_parser("bench", help="run solver sweeps over generated scenarios")
    b.add_argument("--scenarios", required=True, help="directory of scenario files")
    b.add_argument("--out", required=True, help="results directory")
    b.add_argument("--solvers", help=f"comma-separated subset of {','.join(SOLVER_NAMES)} (default: all six)")
    b.add_argument("--oracle", choices=(*ORACLE_MODES, "none"), help="default: the scenario config's oracle")
    b.add_argument("--fixed-iterations", action="store_true", help="run all max_iters search rounds; never stop early")
    b.add_argument("--require-optimal", action="store_true", help="exit 4 if the exact oracle ran out of budget")
    b.set_defaults(func=cmd_bench)

    r = sub.add_parser("replay", help="re-run a persisted run record and compare")
    r.add_argument("--run", required=True, help="run record JSON from bench")
    r.set_defaults(func=cmd_replay)

    v = sub.add_parser("verify", help="invariant suite over persisted run records")
    v.add_argument("--runs", required=True, help="directory of run records")
    v.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverInvariantError as exc:
        print(f"solver invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
