"""The benchmark's two workloads and how a workload seed becomes its inputs.

Why each workload exists, and the seed-state share of each layer, is recorded
in WORKLOADS.md beside this file.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from cosched.scenarios import ScenarioConfig, preset
from cosched.solvers import SOLVER_NAMES, SolverConfig


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    overrides: dict = field(default_factory=dict)
    # the corpus is scenarios 0..scenarios-1 of the config on every seed:
    # one scenario's geometry costs 0.6-30 s, so a per-seed corpus large
    # enough to average out scenario-to-scenario variation does not fit a
    # run, and the seed varies the solver side instead
    scenarios: int = 1
    # solver/repair/random seed sets run on every scenario
    seed_sets: int = 1
    solvers: tuple[str, ...] = SOLVER_NAMES

    def config(self) -> ScenarioConfig:
        return preset(self.preset, **self.overrides)

    def solver_configs(self, config: ScenarioConfig, seed: int) -> list[SolverConfig]:
        """Seed set k of seed n offsets every solver-side seed by n*seed_sets+k.

        Seed 0's first set is the preset's own configuration.
        """
        base = config.solver_config()
        out = []
        for k in range(self.seed_sets):
            g = seed * self.seed_sets + k
            out.append(
                replace(
                    base,
                    solver_seed=base.solver_seed + g,
                    repair_seed=base.repair_seed + g,
                    random_solver_seed=base.random_solver_seed + g,
                )
            )
        return out


WORKLOADS: dict[str, Workload] = {
    # ROADMAP item 3's contended probe: capacity binds, so solvers differ in
    # quality and insertion takes the displacement path; geometry is light.
    "contended-tiny": Workload(
        name="contended-tiny",
        preset="tiny",
        overrides={"target_count": 20, "periodicity": "fixed-6", "memory_bytes": 0.3e9},
        scenarios=10,
        seed_sets=3,
    ),
    # The paper's Walker constellation at the ROADMAP's baseline scenario
    # small-walker-000: geometry-heavy set-up, all-to-all ddsa exchange, and
    # every solver ties. Four seed sets give >= 100 on_event samples a run.
    "small-walker": Workload(name="small-walker", preset="small-walker", seed_sets=4),
}
