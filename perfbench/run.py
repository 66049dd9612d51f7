#!/usr/bin/env python3
"""Layered benchmark of the cosched pipeline.

    python3 perfbench/run.py --workload contended-tiny --seed 0 --seconds 45 --trace 0

Runs from the root of a source checkout and imports cosched from ``src/``.
With ``--trace 0`` it repeats whole untraced passes of the workload until the
next pass would overrun ``--seconds`` (always at least one) and reports the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it runs one untraced
and one traced pass of the workload's first seed set and reports the
per-layer metrics. Every pass goes
through the correctness gate, and every pass must reproduce the first one's
run records byte for byte. The last line of standard output is one JSON
object; the exit code is 0 only when no operation failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"


def add_sources() -> bool:
    """Put the checkout's ``src/`` on the import path; False if it is missing."""
    src = ROOT / "src"
    if not (src / "cosched" / "__init__.py").is_file():
        return False
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    return True


def environment(seed: int) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _git_commit(),
        "seed": seed,
    }


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def compare_records(passes) -> None:
    """Every pass must reproduce the first pass's records; mismatches fail."""
    first = passes[0].records
    for p in passes[1:]:
        for key in sorted(set(first) | set(p.records)):
            if p.records.get(key) != first.get(key):
                p.fail(key, "run record differs from the first pass")


def _on_event_ms(p) -> list[float]:
    return [
        1000.0 * d
        for name in p.spans.names
        if name.startswith("solvers.on_event.")
        for d in p.spans.durations(name).tolist()
    ]


def _solve_s(p) -> float:
    return sum(p.spans.total(n) for n in p.spans.names if n.startswith("solvers.on_event."))


def end_to_end(passes) -> dict[str, float]:
    def med(f):
        return statistics.median(f(p) for p in passes)

    samples = [ms for p in passes for ms in _on_event_ms(p)]
    attempted = sum(p.attempted for p in passes)
    m = {
        "setup_s": med(lambda p: p.spans.total("scenarios.build")),
        "total_s": med(lambda p: p.wall_s),
        "solve_s": med(_solve_s),
        "harness_s": med(lambda p: p.spans.total("sim.run") - _solve_s(p)),
        "oracle_s": med(
            lambda p: sum(p.spans.total(n) for n in ("oracle.collapse", "oracle.bnb", "oracle.swo"))
        ),
        "event_ms_p50": statistics.median(samples) if samples else float("nan"),
        "event_ms_p90": statistics.quantiles(samples, n=10)[8] if len(samples) > 1 else float("nan"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "failed_frac": sum(p.failed for p in passes) / attempted if attempted else 1.0,
    }
    first = passes[0]
    for s in ("greedy", "dnss", "0nss", "ddsa", "0dsa"):
        if first.satisfaction.get(s):
            m[f"satisfaction_pct.{s}"] = statistics.fmean(first.satisfaction[s])
    for s in ("dnss", "ddsa"):
        if first.message_bytes.get(s):
            m[f"message_mb.{s}"] = statistics.fmean(first.message_bytes[s]) / 1e6
    return m


def per_layer(traced, untraced, solvers) -> dict[str, float]:
    table = traced.spans.table()
    c = traced.counters

    def count(name):
        return table.get(name, (0, 0.0, 0.0))[0]

    def incl(name):
        return table.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return table.get(name, (0, 0.0, 0.0))[2]

    inserts = count("solvers.insert")
    bnb_calls = c.get("oracle.bnb.calls", 0)
    m = {
        "geometry.access.s": incl("geometry.access"),
        "geometry.downlink.s": incl("geometry.downlink"),
        "geometry.propagate.calls": count("geometry.propagate"),
        "geometry.propagate.points": c.get("geometry.propagate.points", 0),
        "geometry.windows": c.get("geometry.windows", 0),
        "scenarios.tasks.s": incl("scenarios.tasks"),
        "scenarios.other.s": own("scenarios.build"),
        "problem.validate.s": incl("problem.validate"),
        "problem.tasks": c.get("problem.tasks", 0),
        "problem.requests": c.get("problem.requests", 0),
        "problem.events": c.get("problem.events", 0),
        "decomposition.gnd.s": incl("decomposition.gnd"),
        "decomposition.gnd.calls": count("decomposition.gnd"),
        "decomposition.neighborhoods": c.get("decomposition.neighborhoods", 0),
        "decomposition.unallocatable": c.get("decomposition.unallocatable", 0),
    }
    for s in solvers:
        m[f"solvers.on_event.s.{s}"] = incl(f"solvers.on_event.{s}")
    m.update(
        {
            "solvers.search.s": incl("solvers.search"),
            "solvers.search.rounds": c.get("solvers.search.rounds", 0),
            "solvers.repair.s": incl("solvers.repair"),
            "solvers.repair.calls": count("solvers.repair"),
            "solvers.insert.calls": inserts,
            "solvers.insert.accept_ratio": c.get("solvers.insert.accepts", 0) / inserts if inserts else 0.0,
        }
    )
    for key in sorted(traced.accounting):
        m[f"accounting.{key}"] = traced.accounting[key]
    m.update(
        {
            "sim.feasibility.s": incl("sim.feasibility"),
            "sim.feasibility.calls": count("sim.feasibility"),
            "sim.harness_other.s": own("sim.run"),
            "sim.hook.s": incl("sim.hook"),
            "sim.hook.calls": count("sim.hook"),
            "oracle.collapse.s": incl("oracle.collapse"),
            "oracle.bnb.s": incl("oracle.bnb"),
            "oracle.bnb.nodes": c.get("oracle.bnb.nodes", 0),
            "oracle.bnb.proven_frac": c.get("oracle.bnb.proven", 0) / bnb_calls if bnb_calls else 0.0,
            "oracle.swo.s": incl("oracle.swo"),
            "oracle.swo.rounds": c.get("oracle.swo.rounds", 0),
            "cli.record.s": incl("cli.record"),
            "cli.verify.s": incl("cli.verify"),
            "trace.overhead_s": traced.wall_s - untraced.wall_s,
        }
    )
    return m


def _print_table(title: str, values: dict[str, float], units: dict[str, str]) -> None:
    print(f"# {title}")
    for name, unit in units.items():
        v = values.get(name)
        shown = "n/a" if v is None else f"{v:.6g}"
        print(f"  {name:<42} {shown:>14} {unit}")


def main(argv: list[str] | None = None, workloads: dict | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not add_sources() or not spec_path.is_file():
        print(f"perfbench: {ROOT} is not a cosched checkout (need src/cosched and BENCHMARK.json)", file=sys.stderr)
        return 2
    # cosched is importable only once src/ is on the path
    from harness import run_pass
    from workloads import WORKLOADS

    workloads = WORKLOADS if workloads is None else workloads
    if args.workload not in workloads:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(workloads)}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("perfbench: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    w = workloads[args.workload]
    spec = json.loads(spec_path.read_text())
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    # failed_frac reads 0 on a correct run, and BENCHMARK.json lists only
    # end-to-end metrics that never read 0; the result line carries it as
    # attempted/failed
    table_units = dict(e2e_units, failed_frac="ratio")
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}

    env = environment(args.seed)
    print(f"# perfbench workload={w.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("# env " + " ".join(f"{k}={json.dumps(v)}" for k, v in env.items()))

    if args.trace:
        # two passes of small-walker's four seed sets would overrun the time
        # a run may take, so a traced run compares one seed set both ways
        w = replace(w, seed_sets=1)
    untraced = []
    start = time.perf_counter()
    while True:
        untraced.append(run_pass(w, args.seed, traced=False))
        elapsed = time.perf_counter() - start
        if args.trace or elapsed + elapsed / len(untraced) > args.seconds:
            break
    traced = run_pass(w, args.seed, traced=True) if args.trace else None
    passes = untraced + ([traced] if traced else [])
    compare_records(passes)

    e2e = end_to_end(untraced)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    digests = {p.digest for p in passes}
    samples = sum(len(_on_event_ms(p)) for p in untraced)
    print(
        f"# passes={len(passes)} records={len(passes[0].records)} on_event_samples={samples} "
        f"attempted={attempted} failed={failed}"
    )
    print(
        f"# digest sha256={passes[0].digest} "
        + ("(identical across passes)" if len(digests) == 1 else f"(DIFFERS: {len(digests)} digests)")
    )
    _print_table("end-to-end (untraced" + (", first seed set only)" if args.trace else ")"), e2e, table_units)
    if args.trace:
        layer = per_layer(traced, untraced[0], w.solvers)
        _print_table("per-layer (traced)", layer, layer_units)
        print("# spans: name count inclusive_s self_s")
        for name, (n, incl, own) in sorted(traced.spans.table().items()):
            print(f"  {name:<36} {n:>9} {incl:>11.4f} {own:>11.4f}")
        path = OUT / f"spans-{w.name}-seed{args.seed}.npz"
        traced.spans.write(path)
        print(f"# spans written to {path.relative_to(ROOT)}")
        metrics = {k: {"value": layer[k], "unit": u} for k, u in layer_units.items() if k in layer}
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in e2e_units.items() if k in e2e}
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
