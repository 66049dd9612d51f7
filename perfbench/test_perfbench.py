"""Self-test of the benchmark, on reduced copies of the contended workload.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import run

if not run.add_sources():
    raise ImportError("cosched sources not found under src/")

from cosched import sim  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ONE_SCENARIO = replace(WORKLOADS["contended-tiny"], name="one-scenario", scenarios=1, seed_sets=1)
TWO_SOLVERS = replace(ONE_SCENARIO, name="two-solvers", solvers=("greedy", "dnss"))
REDUCED = {w.name: w for w in (ONE_SCENARIO, TWO_SOLVERS)}
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _run(capsys, workload: str, trace: int = 0):
    code = run.main(
        ["--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        workloads=REDUCED,
    )
    lines = capsys.readouterr().out.splitlines()
    return code, lines, json.loads(lines[-1])


def _table(lines) -> dict[str, tuple[str, str]]:
    """metric name -> (printed value, unit) from the human-readable tables."""
    rows = [line.split() for line in lines if line.startswith("  ")]
    return {r[0]: (r[1], r[2]) for r in rows if len(r) == 3}


def test_reduced_run_prints_all_sixteen_end_to_end_metrics(capsys):
    code, lines, result = _run(capsys, "two-solvers")
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 1 + 2 + 2
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    expected["failed_frac"] = "ratio"
    assert len(expected) == 16
    table = _table(lines)
    for name, unit in expected.items():
        assert table[name][1] == unit, name
    assert float(table["failed_frac"][0]) == 0.0
    assert set(result["metrics"]) <= set(expected)
    for name in ("setup_s", "total_s", "solve_s", "harness_s", "event_ms_p90", "message_mb.dnss"):
        assert result["metrics"][name]["value"] > 0, name


def _inject_overlap(result: sim.RunResult, problem) -> None:
    """Add to some agent's final schedule a task that overlaps a scheduled one."""
    for aid, ids in result.final_schedules.items():
        scheduled = [problem.tasks[t] for t in ids]
        for task in problem.tasks_by_agent[aid]:
            if task.task_id not in ids and any(task.interval.overlaps(s.interval) for s in scheduled):
                ids.append(task.task_id)
                return
    raise AssertionError("no overlapping task to inject")


def test_corrupted_schedule_fails_the_gate(capsys, monkeypatch):
    real_run = sim.run

    def corrupting_run(problem, targets, solver, cfg=None, **kwargs):
        result = real_run(problem, targets, solver, cfg, **kwargs)
        if solver == "dnss":
            _inject_overlap(result, problem)
        return result

    monkeypatch.setattr(sim, "run", corrupting_run)
    code, lines, result = _run(capsys, "two-solvers")
    assert code != 0
    assert not result["correct"] and result["failed"] == 1
    assert float(_table(lines)["failed_frac"][0]) > 0


def test_traced_run_reports_every_per_layer_metric(capsys):
    code, lines, result = _run(capsys, "one-scenario", trace=1)
    assert code == 0 and result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["geometry.propagate.calls"] > 0 and m["geometry.windows"] > 0
    assert m["oracle.bnb.proven_frac"] == 1.0
    assert m["accounting.message_bytes.greedy"] == 0
    assert m["accounting.message_bytes.ddsa"] > m["accounting.message_bytes.dnss"] > 0
    assert any("(identical across passes)" in line for line in lines)


def test_fails_without_a_source_checkout(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        run.ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small-walker", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
