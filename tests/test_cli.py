import copy
import io
import json
import shutil
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cosched.cli import EXIT_CONFIG, EXIT_INVARIANT, EXIT_OK, _trace_error, main
from cosched.scenarios import load_scenario, preset
from cosched.solvers import SOLVER_NAMES


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One generated tiny scenario plus a bench sweep, shared by the tests."""
    root = tmp_path_factory.mktemp("cli")
    scen = root / "scenarios"
    out = root / "results"
    assert main(["generate", "--preset", "tiny", "--count", "1", "--out", str(scen)]) == EXIT_OK
    assert (
        main(
            [
                "bench",
                "--scenarios", str(scen),
                "--out", str(out),
                "--solvers", "greedy,random,dnss",
                "--oracle", "bnb",
            ]
        )
        == EXIT_OK
    )
    return scen, out


def _tiny_config(path, **overrides):
    """Write the tiny preset, with ``overrides``, as a ``generate --config`` file."""
    path.write_text(json.dumps(preset("tiny", **overrides).to_dict()))
    return str(path)


def test_generate_writes_scenario_files(workspace):
    scen, _ = workspace
    files = sorted(p.name for p in scen.glob("*.json"))
    assert files == ["tiny-000.json"]


def test_generate_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        assert main(["generate", "--preset", "tiny", "--count", "1", "--out", str(d)]) == EXIT_OK
    assert (a / "tiny-000.json").read_bytes() == (b / "tiny-000.json").read_bytes()


def test_bench_outputs_runs_oracle_and_table(workspace):
    """One JSON record per (scenario, solver), whose ``run.metrics.trace``
    holds the per-iteration rows, an oracle record and the table: no more."""
    _, out = workspace
    assert {p.name for p in out.iterdir()} == {
        "tiny-000_greedy.json", "tiny-000_random.json", "tiny-000_dnss.json",
        "tiny-000_oracle.json", "results_table.txt",
    }
    table = (out / "results_table.txt").read_text()
    for solver in ("greedy", "random", "dnss"):
        assert solver in table


def test_bench_runs_every_solver_by_default(workspace, tmp_path):
    """Without --solvers, bench runs all six solvers, beside the oracle
    record and the table."""
    scen, _ = workspace
    out = tmp_path / "results"
    assert main(["bench", "--scenarios", str(scen), "--out", str(out)]) == EXIT_OK
    assert {p.name for p in out.iterdir()} == {
        *(f"tiny-000_{name}.json" for name in SOLVER_NAMES), "tiny-000_oracle.json", "results_table.txt",
    }
    rows = (out / "results_table.txt").read_text().splitlines()[1:]
    assert [row.split()[0] for row in rows] == list(SOLVER_NAMES)


def test_bench_records_have_gap_and_zero_baseline_bytes(workspace):
    _, out = workspace
    oracle = json.loads((out / "tiny-000_oracle.json").read_text())
    assert oracle["proven_optimal"] is True
    for solver in ("greedy", "random", "dnss"):
        rec = json.loads((out / f"tiny-000_{solver}.json").read_text())
        assert rec["solver"] == solver
        assert rec["gap_pct"] >= -1e-9  # never better than a proven optimum
        assert rec["gap_reference"] == "optimal"
    for solver in ("greedy", "random"):
        rec = json.loads((out / f"tiny-000_{solver}.json").read_text())
        assert rec["run"]["metrics"]["message_bytes"] == 0
        assert rec["run"]["metrics"]["message_count"] == 0


def test_bench_fixed_iterations_runs_every_round(workspace, tmp_path):
    """Under --fixed-iterations every search solver records, per event, one
    trace row as the event arrives plus one for each of all max_iters
    rounds; the table shows the mean post-event drop."""
    scen, _ = workspace
    out = tmp_path / "results"
    search = ("dnss", "0nss", "ddsa", "0dsa")
    argv = ["bench", "--scenarios", str(scen), "--out", str(out), "--solvers", ",".join(search),
            "--oracle", "none", "--fixed-iterations"]
    assert main(argv) == EXIT_OK
    events = load_scenario(scen / "tiny-000.json").problem.num_changes + 1
    for solver in search:
        rec = json.loads((out / f"tiny-000_{solver}.json").read_text())
        rows_per_event = rec["solver_config"]["max_iters"] + 1
        assert rec["run"]["metrics"]["iterations_total"] == events * rows_per_event, solver
    assert "Drop (pp)" in (out / "results_table.txt").read_text().splitlines()[0]


def test_replay_reproduces_run(workspace):
    _, out = workspace
    assert main(["replay", "--run", str(out / "tiny-000_dnss.json")]) == EXIT_OK


def _float_satisfied(metrics):
    metrics["satisfied"] = float(metrics["satisfied"])


def _true_iteration(metrics):
    row = next(r for r in metrics["trace"] if r[1] == 1)
    row[1] = True


@pytest.mark.parametrize("tamper", [_float_satisfied, _true_iteration], ids=["satisfied-a-float", "iteration-true"])
def test_replay_compares_bytes(workspace, tmp_path, capsys, tamper):
    """A stored value that equals the re-run's only after parsing (12.0 for
    12, true for 1) is a replay mismatch: records compare byte for byte."""
    _, out = workspace
    record = json.loads((out / "tiny-000_dnss.json").read_text())
    tamper(record["run"]["metrics"])
    path = tmp_path / "tiny-000_dnss.json"
    path.write_text(json.dumps(record))
    capsys.readouterr()
    assert main(["replay", "--run", str(path)]) == EXIT_INVARIANT
    assert "replay mismatch" in capsys.readouterr().err


def test_verify_accepts_results(workspace):
    _, out = workspace
    assert main(["verify", "--runs", str(out)]) == EXIT_OK


def test_bad_preset_is_config_error(tmp_path):
    assert (
        main(["generate", "--preset", "tiny", "--volatility", "weekly", "--out", str(tmp_path)])
        == EXIT_CONFIG
    )


def test_bad_solver_list_is_config_error(workspace, tmp_path, capsys):
    scen, _ = workspace
    rc = main(
        ["bench", "--scenarios", str(scen), "--out", str(tmp_path), "--solvers", "dnss,tabu"]
    )
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: solvers: unknown solver 'tabu'\n"
    assert not any(tmp_path.iterdir())  # checked before any scenario runs


def test_repeated_solver_is_config_error(workspace, tmp_path, capsys):
    """A solver named twice would run twice, its second record overwriting
    the first while the table averaged both."""
    scen, _ = workspace
    rc = main(
        ["bench", "--scenarios", str(scen), "--out", str(tmp_path), "--solvers", "dnss,greedy,dnss"]
    )
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: solvers: dnss listed twice\n"
    assert not any(tmp_path.iterdir())  # checked before any scenario runs


@pytest.mark.parametrize("count", [0, -2])
def test_generate_count_below_one_is_config_error(tmp_path, capsys, count):
    out = tmp_path / "out"
    rc = main(["generate", "--preset", "tiny", "--count", str(count), "--out", str(out)])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: count: must be >= 1, got {count}\n"
    assert not out.exists()  # checked before the output directory is made


@pytest.mark.parametrize(
    "changes, field",
    [
        ({"custom_planes": [{"inclination_deg": 97.0, "altitude_km": 500.0, "raan_deg": 0.0}]},
         "custom_planes[0]"),
        ({"memory_bytes": 0}, "memory_bytes"),
        ({"constellation": "walker", "max_off_nadir_deg": 0.0}, "max_off_nadir_deg"),
        # solver settings live only in the nested block, which is checked too
        ({"p_u": 0.5}, "unknown config fields: ['p_u']"),
        ({"solver": {"p_u": 2}}, "solver.p_u: must lie in [0, 1], got 2"),
        ({"solver": {"max_iter": 3}}, "max_iter"),
        ({"solver": 3}, "solver: expected an object"),
        # a value of the wrong kind is named, not left to fail in a comparison
        ({"memory_bytes": "x"}, "memory_bytes: expected a number, got 'x'"),
        ({"target_count": "5"}, "target_count: expected an integer, got '5'"),
        # every scenario plans one day from the seed 2005 + index, so
        # neither is a setting
        ({"horizon_s": 3600.0}, "unknown config fields: ['horizon_s']"),
        ({"scenario_seed": 7}, "unknown config fields: ['scenario_seed']"),
        ({"solver": {"p_u": "x"}}, "solver.p_u: expected a number, got 'x'"),
        ({"solver": {"max_iters": True}}, "solver.max_iters: expected an integer, got True"),
        # NaN and infinity are numbers to Python and to its json module, but
        # no setting means anything at either; a NaN memory limit admitted any task
        ({"memory_bytes": float("nan")}, "memory_bytes: expected a finite number, got nan"),
        ({"memory_bytes": float("-inf")}, "memory_bytes: expected a finite number, got -inf"),
        ({"custom_planes": [{"inclination_deg": 97.0, "altitude_km": float("nan"),
                             "raan_deg": 0.0, "count": 4}]}, "custom_planes[0]: altitude"),
        ({"custom_planes": [{"inclination_deg": 97.0, "altitude_km": 500.0,
                             "raan_deg": float("inf"), "count": 4}]}, "custom_planes[0]: raan"),
        # JSON's true is 1 to Python, and a plane of count true held one satellite
        ({"custom_planes": [{"inclination_deg": 97.0, "altitude_km": 500.0, "raan_deg": 0.0,
                             "count": True}]}, "custom_planes[0]: count: expected an integer, got True"),
        # the name becomes a file name and a record label
        ({"name": "a/b"}, "name: expected letters, digits, '.', '_' or '-', got 'a/b'"),
    ],
    ids=["plane-without-count", "zero-memory", "zero-off-nadir", "flat-solver-field",
         "solver-p_u-out-of-range", "unknown-solver-key", "solver-not-an-object",
         "memory-not-a-number", "target-count-a-string", "horizon-unknown", "scenario-seed-unknown",
         "solver-p_u-a-string", "solver-max_iters-a-bool", "memory-nan", "memory-infinite",
         "plane-altitude-nan", "plane-raan-infinite", "plane-count-a-bool", "name-with-a-slash"],
)
def test_malformed_config_file_is_config_error(tmp_path, capsys, changes, field):
    data = preset("tiny").to_dict()
    data.update(changes)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    rc = main(["generate", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == EXIT_CONFIG
    assert field in capsys.readouterr().err


def test_too_small_campaign_is_config_error(tmp_path, capsys):
    """One target observed twice is a two-request campaign, too small to
    seed a one-third active set; generate, bench and replay exit 2 and
    verify counts the record as failed."""
    scen, out = tmp_path / "scenarios", tmp_path / "results"
    small = _tiny_config(tmp_path / "small.json", target_count=1, periodicity="fixed-2")
    assert main(["generate", "--config", small, "--out", str(scen)]) == EXIT_CONFIG
    assert "campaign of 2 requests is too small" in capsys.readouterr().err
    # a file whose config cannot be regenerated: bench, replay and verify report it
    one = _tiny_config(tmp_path / "one.json", target_count=1)
    assert main(["generate", "--config", one, "--out", str(scen)]) == EXIT_OK
    assert main(["bench", "--scenarios", str(scen), "--out", str(out), "--solvers", "greedy"]) == EXIT_OK
    path = scen / "tiny-000.json"
    doc = json.loads(path.read_text())
    doc["config"]["periodicity"] = "fixed-2"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["bench", "--scenarios", str(scen), "--out", str(tmp_path / "again")]) == EXIT_CONFIG
    assert main(["replay", "--run", str(out / "tiny-000_greedy.json")]) == EXIT_CONFIG
    assert main(["verify", "--runs", str(out)]) == EXIT_INVARIANT
    assert "tiny-000_greedy.json: malformed record: tiny-000: campaign of 2 requests" in capsys.readouterr().out


@pytest.mark.parametrize("key", ["max_iter", "gnd_seed"])
def test_replay_rejects_unknown_solver_config_key(workspace, tmp_path, key):
    _, out = workspace
    record = json.loads((out / "tiny-000_dnss.json").read_text())
    record["solver_config"][key] = 3
    path = tmp_path / "tiny-000_dnss.json"
    path.write_text(json.dumps(record))
    assert main(["replay", "--run", str(path)]) == EXIT_CONFIG


@pytest.mark.parametrize(
    "key, value", [("p_u", 1.5), ("max_iters", 0), ("gnd_n", 0), ("neighborhood_size", 0)]
)
def test_replay_rejects_out_of_range_solver_setting(workspace, tmp_path, capsys, key, value):
    _, out = workspace
    record = json.loads((out / "tiny-000_dnss.json").read_text())
    record["solver_config"][key] = value
    path = tmp_path / "tiny-000_dnss.json"
    path.write_text(json.dumps(record))
    capsys.readouterr()
    assert main(["replay", "--run", str(path)]) == EXIT_CONFIG
    assert f"solver_config: {key}: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "tamper, message",
    [
        (lambda r: r.update(solver="tabu"), "solver: unknown solver 'tabu'"),
        (lambda r: r.pop("solver_config"), "solver_config: missing from the run record"),
        (lambda r: r.update(scenario_file=5), "scenario_file: expected str, got int"),
        (lambda r: r.update(scenario_file=None), "scenario_file: expected str, got NoneType"),
        (lambda r: r.update(scenario_file=[]), "scenario_file: expected str, got list"),
        (lambda r: r.update(scenario_file={}), "scenario_file: expected str, got dict"),
        (lambda r: r.update(solver_config=[]), "solver_config: expected dict, got list"),
    ],
    ids=["unknown-solver", "no-solver-config", "scenario-file-an-int", "scenario-file-null",
         "scenario-file-a-list", "scenario-file-an-object", "solver-config-a-list"],
)
def test_replay_rejects_malformed_record(workspace, tmp_path, capsys, tamper, message):
    """A record naming no known solver, carrying no solver settings, or
    holding an input of the wrong kind, is a config error that names the
    key, not a traceback."""
    _, out = workspace
    record = json.loads((out / "tiny-000_dnss.json").read_text())
    tamper(record)
    path = tmp_path / "tiny-000_dnss.json"
    path.write_text(json.dumps(record))
    capsys.readouterr()
    assert main(["replay", "--run", str(path)]) == EXIT_CONFIG
    assert f"config error: {message}" in capsys.readouterr().err


def test_high_orbit_with_two_stations_in_view_generates(tmp_path):
    """A plane at 2,000 km sees both default stations at once; its
    overlapping passes merge into one downlink, so it generates a valid
    scenario as 1,500 km does."""
    data = preset("tiny").to_dict()
    data.update(name="high", target_count=5, periodicity="fixed-3", volatility="fixed-3")
    path = tmp_path / "config.json"
    for altitude_km in (1500.0, 2000.0):
        data["custom_planes"] = [
            {"inclination_deg": 50.0, "altitude_km": altitude_km, "raan_deg": 0.0, "count": 2}
        ]
        path.write_text(json.dumps(data))
        out = tmp_path / f"out-{altitude_km:.0f}"
        assert main(["generate", "--config", str(path), "--out", str(out)]) == EXIT_OK
        load_scenario(out / "high-000.json").problem.validate()


@pytest.fixture(scope="module")
def contended_runs(tmp_path_factory):
    """Greedy and dnss records, with their gaps to a proven optimum, on a tiny
    scenario with 20 targets: unlike tiny-000 with 10, some agent has
    candidate tasks that overlap."""
    root = tmp_path_factory.mktemp("contended")
    scen, out = root / "scenarios", root / "results"
    gen = ["generate", "--config", _tiny_config(root / "config.json", target_count=20), "--out", str(scen)]
    assert main(gen) == EXIT_OK
    bench = ["bench", "--scenarios", str(scen), "--out", str(out), "--solvers", "greedy,dnss",
             "--oracle", "bnb"]
    assert main(bench) == EXIT_OK
    assert main(["verify", "--runs", str(out)]) == EXIT_OK
    return out


def _add_overlapping_task(record):
    """Add to some agent's final schedule a task that overlaps a scheduled one."""
    problem = load_scenario(record["scenario_file"]).problem
    for aid, ids in record["run"]["final_schedules"].items():
        scheduled = [problem.tasks[t] for t in ids]
        for task in problem.tasks_by_agent[int(aid)]:
            if task.task_id not in ids and any(task.interval.overlaps(s.interval) for s in scheduled):
                ids.append(task.task_id)
                return
    raise AssertionError("no overlapping task to add")


def _set_field(key, value):
    def tamper(record):
        record[key] = value
    return tamper


def _drop_field(key):
    def tamper(record):
        del record[key]
    return tamper


def _set_metric(key, value):
    def tamper(record):
        record["run"]["metrics"][key] = value
    return tamper


def _shift_metric(key):
    def tamper(record):
        record["run"]["metrics"][key] += 1
    return tamper


def _shift_last_trace_field(index):
    def tamper(record):
        record["run"]["metrics"]["trace"][-1][index] += 1
    return tamper


def _shorten_trace_row(record):
    record["run"]["metrics"]["trace"][0].pop()


def _set_trace_field(row, index, value):
    def tamper(record):
        record["run"]["metrics"]["trace"][row][index] = value
    return tamper


def _shift_trace_field(row, index):
    def tamper(record):
        record["run"]["metrics"]["trace"][row][index] += 1
    return tamper


def _clear_final_schedules(record):
    record["run"]["final_schedules"] = {}


def _lower_last_trace_field(index):
    """Make the last row's field ``index`` one less than the row before's."""
    def tamper(record):
        trace = record["run"]["metrics"]["trace"]
        trace[-1][index] = trace[-2][index] - 1
    return tamper


@pytest.mark.parametrize(
    "solver, tamper, failure",
    [
        ("dnss", _shift_metric("satisfied"), "recorded utility"),
        ("dnss", _add_overlapping_task, "infeasible: processing-conflict"),
        ("greedy", _set_metric("message_bytes", 25), "greedy sent messages"),
        ("dnss", _set_metric("message_bytes", -1),
         "malformed record: run.metrics.message_bytes: expected a non-negative count, got -1"),
        ("dnss", _set_metric("message_count", -1),
         "malformed record: run.metrics.message_count: expected a non-negative count, got -1"),
        ("dnss", _set_metric("constraint_checks", 1.5),
         "malformed record: run.metrics.constraint_checks: expected int, got float"),
        ("dnss", _set_metric("rng_draws", True), "malformed record: run.metrics.rng_draws: expected int, got bool"),
        ("dnss", _set_metric("trace", "rows"), "malformed record: run.metrics.trace: expected list, got str"),
        ("dnss", _shorten_trace_row, "trace inconsistent: row 0 does not have 6 fields"),
        ("dnss", _shift_last_trace_field(4), "trace inconsistent: last row has"),
        ("dnss", _shift_last_trace_field(5), "trace inconsistent: last row has"),
        ("dnss", _shift_metric("iterations_total"), "trace inconsistent: "),
        ("dnss", _shift_metric("total_requests"), "recorded total_requests"),
        ("dnss", _lower_last_trace_field(0), "trace inconsistent: row 11 decreases the event"),
        ("dnss", _lower_last_trace_field(4), "trace inconsistent: row 11 decreases the event, message bytes"),
        ("dnss", _lower_last_trace_field(5), "trace inconsistent: row 11 decreases the event, message bytes or op count"),
        ("dnss", _set_trace_field(0, 1, 1), "trace inconsistent: row 0 has iteration 1, expected 0"),
        ("dnss", _shift_trace_field(-1, 1), "trace inconsistent: row 11 has iteration 3, expected 2"),
        ("dnss", _set_trace_field(2, 1, 2), "trace inconsistent: row 2 has iteration 2, expected 0"),
        ("dnss", _shift_trace_field(1, 3), "trace inconsistent: row 1 has satisfaction_pct 64.33"),
        ("dnss", _set_trace_field(1, 2, 19.0),
         "trace inconsistent: row 1 holds 19.0 where a non-negative count belongs"),
        ("dnss", _set_trace_field(1, 3, 63), "trace inconsistent: row 1 holds 63 where a float belongs"),
        ("dnss", _shift_metric("satisfaction_pct"), "recorded satisfaction_pct 91.0 != 100 * 27 / 30"),
        ("dnss", _set_metric("satisfaction_pct", 90),
         "malformed record: run.metrics.satisfaction_pct: expected float, got int"),
        ("dnss", _set_metric("solver", -1), "malformed record: run.metrics.solver: unknown solver -1"),
        ("dnss", _set_metric("solver", "greedy"), "recorded run of greedy in a record of dnss"),
        ("dnss", _clear_final_schedules, "final schedules miss task "),
        ("dnss", _set_field("gap_pct", -50.0), "recorded gap_pct -50.0 != 0.0 from tiny-000_oracle.json"),
        ("dnss", _set_field("gap_pct", 0), "recorded gap_pct 0 != 0.0 from tiny-000_oracle.json"),
        ("dnss", _set_field("gap_reference", "nonsense"),
         "recorded gap_reference 'nonsense' != 'optimal' from tiny-000_oracle.json"),
        ("greedy", _set_field("gap_reference", "lower-bound"),
         "recorded gap_reference 'lower-bound' != 'optimal' from tiny-000_oracle.json"),
        ("dnss", _drop_field("gap_pct"), "gap_pct and gap_reference must be recorded together"),
        ("greedy", _drop_field("gap_reference"), "gap_pct and gap_reference must be recorded together"),
        ("dnss", _shift_metric("satisfaction_pct"), "recorded gap_pct 0.0 != -1.0 from tiny-000_oracle.json"),
    ],
    ids=[
        "satisfied-plus-one", "overlapping-task", "greedy-message-bytes", "message-bytes-negative",
        "message-count-negative", "constraint-checks-a-float", "rng-draws-a-bool", "trace-a-string",
        "trace-row-of-five", "trace-bytes-off", "trace-ops-off", "iterations-total-off",
        "total-requests-off", "trace-event-decreases", "trace-bytes-decrease", "trace-ops-decrease",
        "trace-first-iteration-one", "trace-iteration-skips", "trace-event-starts-at-two",
        "trace-pct-off", "trace-satisfied-a-float", "trace-pct-an-int", "satisfaction-pct-off",
        "satisfaction-pct-an-int", "run-solver-unknown", "run-solver-other", "final-schedules-empty",
        "gap-pct-off", "gap-pct-an-int", "gap-reference-nonsense", "gap-reference-lower-bound",
        "gap-pct-missing", "gap-reference-missing", "gap-pct-stale",
    ],
)
def test_verify_rejects_tampered_record(contended_runs, tmp_path, capsys, solver, tamper, failure):
    runs = tmp_path / "results"
    shutil.copytree(contended_runs, runs)
    path = runs / f"tiny-000_{solver}.json"
    record = json.loads(path.read_text())
    tamper(record)
    path.write_text(json.dumps(record))
    capsys.readouterr()
    assert main(["verify", "--runs", str(runs)]) == EXIT_INVARIANT
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.endswith(": ok")] == [
        f"tiny-000_{other}.json: ok" for other in ("dnss", "greedy") if other != solver
    ]
    assert any(line.startswith(f"tiny-000_{solver}.json: ") and failure in line for line in lines), lines



def _set_oracle_field(key, value):
    def edit(oracle):
        oracle[key] = value
        return json.dumps(oracle)
    return edit


def _drop_oracle_field(key):
    def edit(oracle):
        del oracle[key]
        return json.dumps(oracle)
    return edit


@pytest.mark.parametrize(
    "edit, failure",
    [
        (lambda oracle: None, "tiny-000_oracle.json: unreadable: "),
        (lambda oracle: "{", "tiny-000_oracle.json: unreadable: "),
        (lambda oracle: "[27, true]", "tiny-000_oracle.json: expected a JSON object, got list"),
        (_set_oracle_field("satisfied", -1),
         "malformed oracle record tiny-000_oracle.json: satisfied -1, proven_optimal True"),
        (_set_oracle_field("satisfied", 27.0),
         "malformed oracle record tiny-000_oracle.json: satisfied 27.0, proven_optimal True"),
        (_set_oracle_field("satisfied", True),
         "malformed oracle record tiny-000_oracle.json: satisfied True, proven_optimal True"),
        (_drop_oracle_field("satisfied"),
         "malformed oracle record tiny-000_oracle.json: satisfied None, proven_optimal True"),
        (_set_oracle_field("proven_optimal", 1),
         "malformed oracle record tiny-000_oracle.json: satisfied 27, proven_optimal 1"),
        (_drop_oracle_field("proven_optimal"),
         "malformed oracle record tiny-000_oracle.json: satisfied 27, proven_optimal None"),
        (_set_oracle_field("satisfied", 26), "recorded gap_pct 0.0 != -3.3333333333333286 from tiny-000_oracle.json"),
        (_set_oracle_field("proven_optimal", False),
         "recorded gap_reference 'optimal' != 'lower-bound' from tiny-000_oracle.json"),
    ],
    ids=["missing", "not-json", "not-an-object", "satisfied-negative", "satisfied-a-float",
         "satisfied-a-bool", "satisfied-missing", "proven-optimal-an-int", "proven-optimal-missing",
         "satisfied-off", "not-proven"],
)
def test_verify_checks_gaps_against_the_oracle_record(contended_runs, tmp_path, capsys, edit, failure):
    """Every record's gap is re-derived from the scenario's oracle record; one
    that is missing, does not parse, or holds a malformed ``satisfied`` or
    ``proven_optimal`` fails every record that carries a gap, not the run."""
    runs = tmp_path / "results"
    shutil.copytree(contended_runs, runs)
    path = runs / "tiny-000_oracle.json"
    text = edit(json.loads(path.read_text()))
    if text is None:
        path.unlink()
    else:
        path.write_text(text)
    capsys.readouterr()
    assert main(["verify", "--runs", str(runs)]) == EXIT_INVARIANT
    lines = capsys.readouterr().out.splitlines()
    for solver in ("dnss", "greedy"):
        mine = [line for line in lines if line.startswith(f"tiny-000_{solver}.json: ")]
        assert len(mine) == 1 and failure in mine[0], lines


@pytest.mark.parametrize("pct, ok", [(100.0, True), (0.0, False)])
def test_trace_without_requests_reads_one_hundred_percent(pct, ok):
    """With no requests, every satisfaction percentage is 100.0."""
    metrics = {
        "trace": [[0, 0, 0, pct, 0, 0]], "total_requests": 0, "iterations_total": 1,
        "message_bytes": 0, "constraint_checks": 0, "rng_draws": 0,
    }
    assert (_trace_error(metrics) is None) == ok


def _first_schedule(record):
    return next((a, ids) for a, ids in record["run"]["final_schedules"].items() if ids)


def _repeat_task_id(record):
    aid, ids = _first_schedule(record)
    ids.append(ids[0])
    return aid, f"duplicate task id {ids[0]}"


def _unknown_task_id(record):
    aid, ids = _first_schedule(record)
    tid = max(load_scenario(record["scenario_file"]).problem.tasks) + 1
    ids.append(tid)
    return aid, f"unknown task id {tid}"


def _list_task_id(record):
    aid, ids = _first_schedule(record)
    ids.append([ids[0]])
    return aid, f"unknown task id [{ids[0]}]"


def _other_agents_task_id(record):
    aid, ids = _first_schedule(record)
    problem = load_scenario(record["scenario_file"]).problem
    other = next(t for t in problem.tasks.values() if t.agent_id != int(aid))
    ids.append(other.task_id)
    return aid, f"task id {other.task_id} belongs to agent {other.agent_id}"


def _unknown_agent(record):
    schedules = record["run"]["final_schedules"]
    aid = str(max(int(a) for a in schedules) + 1)
    schedules[aid] = []
    return aid, "no such agent in the scenario"


def _non_integer_agent(record):
    record["run"]["final_schedules"]["x"] = []
    return "x", "invalid literal for int() with base 10: 'x'"


def _bool_task_id(record):
    aid, ids = _first_schedule(record)
    ids.append(False)
    return aid, "unknown task id False"


def _non_list_schedule(record):
    record["run"]["final_schedules"]["0"] = 5
    return "0", "expected a list of task ids, got 5"


@pytest.mark.parametrize(
    "tamper",
    [_repeat_task_id, _unknown_task_id, _list_task_id, _other_agents_task_id, _unknown_agent,
     _non_integer_agent, _non_list_schedule, _bool_task_id],
    ids=["repeated-task-id", "unknown-task-id", "list-task-id", "other-agents-task-id",
         "unknown-agent", "non-integer-agent", "schedule-not-a-list", "bool-task-id"],
)
def test_verify_reports_malformed_schedule(contended_runs, tmp_path, capsys, tamper):
    """A final schedule that repeats, invents or borrows a task id, is keyed
    by no agent of the scenario, or is not a list, is a failed record, not a
    crash."""
    runs = tmp_path / "results"
    shutil.copytree(contended_runs, runs)
    path = runs / "tiny-000_dnss.json"
    record = json.loads(path.read_text())
    aid, detail = tamper(record)
    path.write_text(json.dumps(record))
    capsys.readouterr()
    assert main(["verify", "--runs", str(runs)]) == EXIT_INVARIANT
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        f"tiny-000_dnss.json: agent {aid} malformed schedule: {detail}",
        "tiny-000_greedy.json: ok",
    ]
    assert captured.err == "1 run(s) failed verification\n"


def test_verify_reports_snapshot_with_unknown_task_id(contended_runs, tmp_path, capsys):
    """A snapshot naming a task the scenario lacks is a failed record, not a crash."""
    runs = tmp_path / "results"
    shutil.copytree(contended_runs, runs)
    path = runs / "tiny-000_greedy.json"
    record = json.loads(path.read_text())
    tid = max(load_scenario(record["scenario_file"]).problem.tasks) + 1
    record["run"]["snapshots"][0].append(tid)
    path.write_text(json.dumps(record))
    capsys.readouterr()
    assert main(["verify", "--runs", str(runs)]) == EXIT_INVARIANT
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        "tiny-000_dnss.json: ok",
        f"tiny-000_greedy.json: snapshot consistency violated: snapshot 0 schedules unknown task {tid}",
    ]
    assert captured.err == "1 run(s) failed verification\n"


def test_verify_reports_snapshot_that_is_not_a_list(contended_runs, tmp_path, capsys):
    """A snapshot that is not a list of task ids is a failed record, not a crash."""
    runs = tmp_path / "results"
    shutil.copytree(contended_runs, runs)
    path = runs / "tiny-000_greedy.json"
    record = json.loads(path.read_text())
    record["run"]["snapshots"][0] = 7
    path.write_text(json.dumps(record))
    capsys.readouterr()
    assert main(["verify", "--runs", str(runs)]) == EXIT_INVARIANT
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        "tiny-000_dnss.json: ok",
        "tiny-000_greedy.json: snapshot consistency violated: snapshot 0 is not a list of task ids: 7",
    ]
    assert captured.err == "1 run(s) failed verification\n"


def test_verify_reports_snapshot_task_id_that_is_not_an_integer(contended_runs, tmp_path, capsys):
    """A snapshot holding a task id that is not an integer is a failed record, not a crash."""
    _check_snapshot_task_id_rejected(contended_runs, tmp_path, capsys, [1])


@pytest.mark.parametrize("tid", [False, True])
def test_verify_reports_snapshot_task_id_that_is_a_bool(contended_runs, tmp_path, capsys, tid):
    """JSON's ``false`` and ``true`` are 0 and 1 to Python, but not task ids."""
    _check_snapshot_task_id_rejected(contended_runs, tmp_path, capsys, tid)


def _check_snapshot_task_id_rejected(contended_runs, tmp_path, capsys, tid):
    runs = tmp_path / "results"
    shutil.copytree(contended_runs, runs)
    path = runs / "tiny-000_greedy.json"
    record = json.loads(path.read_text())
    record["run"]["snapshots"][0].append(tid)
    path.write_text(json.dumps(record))
    capsys.readouterr()
    assert main(["verify", "--runs", str(runs)]) == EXIT_INVARIANT
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        "tiny-000_dnss.json: ok",
        f"tiny-000_greedy.json: snapshot consistency violated: snapshot 0 holds a task id that is not an integer: {tid}",
    ]
    assert captured.err == "1 run(s) failed verification\n"


def test_verify_reports_record_that_is_not_json(contended_runs, tmp_path, capsys):
    """A run record that does not parse as JSON is a failed record, not a crash."""
    runs = tmp_path / "results"
    shutil.copytree(contended_runs, runs)
    path = runs / "tiny-000_greedy.json"
    path.write_text(path.read_text()[:-10])
    capsys.readouterr()
    assert main(["verify", "--runs", str(runs)]) == EXIT_INVARIANT
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0] == "tiny-000_dnss.json: ok"
    assert lines[1].startswith("tiny-000_greedy.json: unreadable record: ")
    assert len(lines) == 2
    assert captured.err == "1 run(s) failed verification\n"


def _not_an_object(record):
    return 5, "expected a JSON object, got int"


def _no_solver(record):
    del record["solver"]
    return record, "solver: missing"


def _scenario_file_gone(record):
    record["scenario_file"] += ".gone"
    return record, f"scenario file {record['scenario_file']}: unreadable: "


@pytest.mark.parametrize(
    "tamper", [_not_an_object, _no_solver, _scenario_file_gone],
    ids=["not-an-object", "no-solver", "scenario-file-gone"],
)
def test_verify_reports_unusable_record(contended_runs, tmp_path, capsys, tamper):
    """A record that is not an object, lacks a key verify reads, or names a
    scenario file that cannot be loaded is a failed record, not a crash."""
    runs = tmp_path / "results"
    shutil.copytree(contended_runs, runs)
    path = runs / "tiny-000_greedy.json"
    record, detail = tamper(json.loads(path.read_text()))
    path.write_text(json.dumps(record))
    capsys.readouterr()
    assert main(["verify", "--runs", str(runs)]) == EXIT_INVARIANT
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0] == "tiny-000_dnss.json: ok"
    assert lines[1].startswith(f"tiny-000_greedy.json: malformed record: {detail}")
    assert len(lines) == 2
    assert captured.err == "1 run(s) failed verification\n"


def test_verify_of_a_missing_directory_is_config_error(tmp_path, capsys):
    """A mistyped --runs path verifies nothing, so it cannot pass."""
    runs = tmp_path / "gone"
    assert main(["verify", "--runs", str(runs)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"no run records in {runs}\n"


def test_verify_of_oracle_records_only_is_config_error(workspace, tmp_path, capsys):
    """An oracle record is not a run record: a directory holding only one
    has nothing to verify."""
    _, out = workspace
    shutil.copy(out / "tiny-000_oracle.json", tmp_path)
    assert main(["verify", "--runs", str(tmp_path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"no run records in {tmp_path}\n"


def test_replay_reports_missing_scenario_file(workspace, tmp_path, capsys):
    """A record whose scenario file is gone is a config error naming the file."""
    _, out = workspace
    record = json.loads((out / "tiny-000_dnss.json").read_text())
    record["scenario_file"] = str(tmp_path / "gone.json")
    path = tmp_path / "tiny-000_dnss.json"
    path.write_text(json.dumps(record))
    capsys.readouterr()
    assert main(["replay", "--run", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: scenario file {tmp_path / 'gone.json'}: unreadable: ")


@pytest.mark.parametrize(
    "text, detail",
    [
        ("{", "unreadable: "),
        ('{"format_version": 5}', "missing config, index, seed, targets, requests, initial_active, events"),
    ],
    ids=["not-json", "no-config"],
)
def test_bench_reports_malformed_scenario_file(tmp_path, capsys, text, detail):
    """A scenario file that does not parse, or lacks the keys of its format,
    is a config error naming the file, not a traceback."""
    scen = tmp_path / "scenarios"
    scen.mkdir()
    bad = scen / "tiny-000.json"
    bad.write_text(text)
    capsys.readouterr()
    assert main(["bench", "--scenarios", str(scen), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: scenario file {bad}: {detail}")


@pytest.mark.parametrize("text, detail", [(None, "unreadable: "), ("5", "expected a JSON object, got int")],
                         ids=["missing", "not-an-object"])
@pytest.mark.parametrize("command, what", [("generate", "config file"), ("replay", "run record")],
                         ids=["generate", "replay"])
def test_unusable_input_file_is_config_error(tmp_path, capsys, command, what, text, detail):
    """A ``generate --config`` or ``replay --run`` file that is missing or
    holds no JSON object is a config error naming the file, not a traceback."""
    path = tmp_path / "input.json"
    if text is not None:
        path.write_text(text)
    argv = (["generate", "--config", str(path), "--out", str(tmp_path / "out")]
            if command == "generate" else ["replay", "--run", str(path)])
    capsys.readouterr()
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: {what} {path}: {detail}")


RETYPED = (None, True, "x", 0.5, -1, [], {})
MUTATIONS = (("delete", None), *(("retype", v) for v in RETYPED), ("shift", 1), ("shift", -1))


def _is_count(value):
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _mutate(record, walk, mutation):
    """A copy of ``record`` with one mutation at the key path that ``walk``
    picks: each step chooses a key (in sorted order) or a list index, and the
    walk ends early at a value without children."""
    record = copy.deepcopy(record)
    path, parent, value = [], None, record
    for step in walk:
        keys = sorted(value) if isinstance(value, dict) else range(len(value)) if isinstance(value, list) else ()
        if not keys:
            break
        path.append(keys[step % len(keys)])
        parent, value = value, value[path[-1]]
    assume(parent is not None)
    kind, arg = mutation
    if kind == "delete":
        del parent[path[-1]]
    elif kind == "retype":
        parent[path[-1]] = copy.deepcopy(arg)
    else:
        assume(_is_count(value))
        parent[path[-1]] = value + arg
    return record, tuple(path), None if kind == "delete" else parent[path[-1]]


def _is_checked_field(path):
    """A count field of the metrics or of a trace row, a task id of a
    snapshot or final schedule, or a gap field."""
    if path in (("gap_pct",), ("gap_reference",)):
        return True
    if path[:2] == ("run", "metrics"):
        return (len(path) == 3 and path[2] in ("satisfied", "total_requests", "iterations_total", "message_bytes",
                                               "message_count", "constraint_checks", "rng_draws")
                or len(path) == 5 and path[2] == "trace" and path[4] != 3)
    return len(path) == 4 and path[1] in ("snapshots", "final_schedules")


@pytest.fixture(scope="module")
def mutation_dirs(workspace, tmp_path_factory):
    """For greedy and dnss: the tiny-000 record, and a directory of its own
    for one mutated copy, beside the oracle record its gap is checked against;
    unmutated, each record verifies."""
    _, out = workspace
    root = tmp_path_factory.mktemp("mutations")
    dirs = {}
    for solver in ("greedy", "dnss"):
        (root / solver).mkdir()
        shutil.copy(out / "tiny-000_oracle.json", root / solver)
        shutil.copy(out / f"tiny-000_{solver}.json", root / solver)
        assert main(["verify", "--runs", str(root / solver)]) == EXIT_OK
        dirs[solver] = (json.loads((out / f"tiny-000_{solver}.json").read_text()), root / solver)
    return dirs


@settings(max_examples=120, deadline=None)
@given(solver=st.sampled_from(["greedy", "dnss"]), walk=st.lists(st.integers(0, 10**6), min_size=1, max_size=5),
       mutation=st.sampled_from(MUTATIONS))
@example(solver="dnss", walk=[4], mutation=("retype", None))  # scenario_file: null
@example(solver="greedy", walk=[2, 2, 0, 0], mutation=("retype", True))  # a snapshot's first id: true
@example(solver="dnss", walk=[0], mutation=("retype", 0.5))  # gap_pct: 0.5
@example(solver="greedy", walk=[1], mutation=("retype", "x"))  # gap_reference: "x"
def test_record_mutation_ends_in_a_result(mutation_dirs, solver, walk, mutation):
    """One deleted, retyped or shifted value anywhere in a real record: each
    command ends in an exit code, never a traceback. ``replay`` catches every
    change to the bytes of ``run``, and ``verify`` every count or task id
    that is not a non-negative integer, and every retyped gap field."""
    original, directory = mutation_dirs[solver]
    record, path, value = _mutate(original, walk, mutation)
    path_file = directory / f"tiny-000_{solver}.json"
    path_file.write_text(json.dumps(record))
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        replay = main(["replay", "--run", str(path_file)])
        verify = main(["verify", "--runs", str(directory)])
    assert replay in (EXIT_OK, EXIT_CONFIG, EXIT_INVARIANT)
    assert verify in (EXIT_OK, EXIT_INVARIANT)
    if len(path) > 1 and path[0] == "run":
        if json.dumps(record["run"], sort_keys=True) != json.dumps(original["run"], sort_keys=True):
            assert replay == EXIT_INVARIANT, path
    if mutation[0] != "delete" and _is_checked_field(path) and not _is_count(value):
        assert verify == EXIT_INVARIANT, path
