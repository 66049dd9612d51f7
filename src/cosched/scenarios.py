"""Scenario configuration, seeded generation, and lossless serialization.

A scenario is fully determined by its config and index: geometry, candidate
tasks and data volumes are regenerated from the seeds on load, so a scenario
replays byte-identically anywhere. The file also records the scenario seed,
the sampled targets, the request campaign, the initial active set and the
change events, and ``load_scenario`` cross-checks each of them against the
regeneration. Which solvers run on a scenario is the caller's choice, and
no part of the file.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

from . import geometry
from .geometry import Constellation, OrbitalPlane, Target
from .problem import (
    Downlink,
    DynamicProblem,
    GenerationError,
    Request,
    Snapshot,
    generate_campaign,
    generate_dynamics,
    generate_tasks,
)
from .oracle import ORACLE_MODES
from .solvers import SolverConfig, check_fields, check_kind

SCENARIO_FORMAT_VERSION = 5
DAY_S = 86400.0  # every scenario plans one day
SCENARIO_SEED = 2005  # scenario i draws every stream from SCENARIO_SEED + i
PLANE_FIELDS = tuple(f.name for f in fields(OrbitalPlane))


class ConfigError(Exception):
    """Invalid scenario configuration; message names the offending field."""


@dataclass
class ScenarioConfig:
    name: str = "custom"
    constellation: str = "planet"  # planet | walker | custom
    custom_planes: list[dict] | None = None  # PLANE_FIELDS of each plane
    max_off_nadir_deg: float | None = None  # None: constellation default
    memory_bytes: float = 125e9
    target_count: int = 634
    targets_path: str | None = None
    periodicity: str = "uniform-5-12"  # fixed-3 | uniform-5-12 | fixed-<k>
    volatility: str = "uniform-3-5"  # uniform-3-5 | fixed-<k>
    solver: SolverConfig = field(default_factory=SolverConfig)
    oracle: str = "bnb"  # bnb | swo | none

    def validate(self) -> None:
        try:  # a config read from JSON can hold a value of any kind in any field
            check_fields(ScenarioConfig, vars(self))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        # the name heads every scenario's file name and record label
        if not re.fullmatch(r"[A-Za-z0-9._-]+", self.name):
            raise ConfigError(f"name: expected letters, digits, '.', '_' or '-', got {self.name!r}")
        if self.constellation not in ("planet", "walker", "custom"):
            raise ConfigError(f"constellation: unknown value {self.constellation!r}")
        if self.constellation == "custom" and not self.custom_planes:
            raise ConfigError("custom_planes: required when constellation='custom'")
        for i, plane in enumerate(self.custom_planes or []):
            where = f"custom_planes[{i}]"
            if not isinstance(plane, dict) or set(plane) != set(PLANE_FIELDS):
                raise ConfigError(f"{where}: expected exactly the keys {list(PLANE_FIELDS)}")
            try:
                check_fields(OrbitalPlane, plane)
                OrbitalPlane(**plane)
            except ValueError as exc:
                raise ConfigError(f"{where}: {exc}") from None
        if self.memory_bytes <= 0:
            raise ConfigError(f"memory_bytes: must be positive, got {self.memory_bytes}")
        off_nadir = self.max_off_nadir_deg
        if off_nadir is not None and not 0.0 < off_nadir < 90.0:
            raise ConfigError(f"max_off_nadir_deg: must be null or lie in (0, 90), got {off_nadir}")
        if self.target_count < 1 and not self.targets_path:
            raise ConfigError(f"target_count: must be >= 1, got {self.target_count}")
        try:
            self.solver.validate()
        except ValueError as exc:
            raise ConfigError(f"solver.{exc}") from None
        _parse_range("periodicity", self.periodicity)
        _parse_range("volatility", self.volatility)
        if self.oracle not in (*ORACLE_MODES, "none"):
            raise ConfigError(f"oracle: unknown mode {self.oracle!r}")

    def solver_config(self) -> SolverConfig:
        """A fresh copy of the solver settings, safe for the caller to edit."""
        return replace(self.solver)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        values = dict(data)
        unknown = set(values) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        if "solver" in values:
            solver = values["solver"]
            if not isinstance(solver, dict):
                raise ConfigError(f"solver: expected an object, got {solver!r}")
            try:
                values["solver"] = SolverConfig(**solver)
            except TypeError as exc:
                raise ConfigError(f"solver: {exc}") from None
        cfg = cls(**values)
        cfg.validate()
        return cfg


def _parse_range(field_name: str, spec: str) -> tuple[int, int]:
    try:
        if spec.startswith("fixed-"):
            k = int(spec.split("-", 1)[1])
            if k < 1:
                raise ValueError
            return (k, k)
        if spec.startswith("uniform-"):
            _, lo, hi = spec.split("-")
            lo, hi = int(lo), int(hi)
            if hi < lo or lo < 1:
                raise ValueError
            return (lo, hi)
    except (ValueError, IndexError):
        pass
    raise ConfigError(
        f"{field_name}: expected 'fixed-<k>' or 'uniform-<lo>-<hi>', got {spec!r}"
    )


PRESETS: dict[str, ScenarioConfig] = {
    "tiny": ScenarioConfig(
        name="tiny",
        constellation="custom",
        custom_planes=[
            {"inclination_deg": 97.0, "altitude_km": 500.0, "raan_deg": 0.0, "count": 4},
            {"inclination_deg": 97.0, "altitude_km": 500.0, "raan_deg": 90.0, "count": 4},
        ],
        max_off_nadir_deg=60.0,
        target_count=10,
        periodicity="fixed-3",
        volatility="uniform-3-5",
        solver=SolverConfig(neighborhood_size=4),
        oracle="bnb",
    ),
    "small-planet": ScenarioConfig(
        name="small-planet",
        constellation="planet",
        target_count=50,
        periodicity="fixed-3",
        volatility="uniform-3-5",
        oracle="swo",
    ),
    "small-walker": ScenarioConfig(
        name="small-walker",
        constellation="walker",
        target_count=100,
        periodicity="fixed-3",
        volatility="uniform-3-5",
        oracle="swo",
    ),
    "planet": ScenarioConfig(
        name="planet", constellation="planet", target_count=634, oracle="swo"
    ),
    "walker": ScenarioConfig(
        name="walker", constellation="walker", target_count=634, oracle="swo"
    ),
}


def preset(name: str, **overrides) -> ScenarioConfig:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    cfg = replace(PRESETS[name], **overrides)
    cfg.validate()
    return cfg


def build_constellation(config: ScenarioConfig) -> Constellation:
    if config.constellation == "planet":
        base = geometry.planet_constellation()
    elif config.constellation == "walker":
        base = geometry.walker_constellation()
    else:
        planes = tuple(OrbitalPlane(**p) for p in config.custom_planes)
        base = Constellation(planes, 45.0, config.memory_bytes)
    off_nadir = config.max_off_nadir_deg
    if off_nadir is None:
        off_nadir = base.max_off_nadir_deg
    return Constellation(base.planes, off_nadir, config.memory_bytes)


def sample_targets(config: ScenarioConfig, seed: int) -> list[Target]:
    if config.targets_path:
        return load_targets(config.targets_path)
    rng = random.Random(f"targets:{seed}")
    targets = []
    for i in range(config.target_count):
        # populated-latitude band; matches where observation demand is
        lat = rng.uniform(-60.0, 72.0)
        lon = rng.uniform(-180.0, 180.0)
        targets.append(Target(i, round(lat, 6), round(lon, 6)))
    return targets


def load_targets(path: str) -> list[Target]:
    """CSV with header id,lat,lon, or lat,lon with ids numbered by data row
    from 0. Every data row has the first row's field count; a malformed row,
    a repeated id or an out-of-range latitude is a ConfigError naming its line.
    """
    targets: list[Target] = []
    ids: set[int] = set()
    width = None
    try:
        lines = Path(path).read_text().split("\n")
    except (OSError, ValueError) as exc:
        raise ConfigError(f"targets_path: {path}: unreadable: {exc}") from None
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.lower().startswith(("id", "lat", "#")):
            continue
        parts = [p.strip() for p in line.split(",")]
        where = f"targets_path: {path} line {lineno}"
        if len(parts) not in (2, 3) or len(parts) != (width or len(parts)):
            raise ConfigError(f"{where}: expected {width or '2 or 3'} fields, got {len(parts)}")
        width = len(parts)
        try:
            tid = int(parts[0]) if width == 3 else len(targets)
            target = Target(tid, float(parts[-2]), float(parts[-1]))
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from None
        if tid in ids:
            raise ConfigError(f"{where}: duplicate target id {tid}")
        ids.add(tid)
        targets.append(target)
    if not targets:
        raise ConfigError(f"targets_path: no targets found in {path}")
    return targets


@dataclass
class Scenario:
    config: ScenarioConfig
    index: int
    targets: list[Target]
    problem: DynamicProblem

    @property
    def label(self) -> str:
        return f"{self.config.name}-{self.index:03d}"


def generate_scenario(config: ScenarioConfig, index: int = 0) -> Scenario:
    """Deterministically build scenario ``index`` of this config.

    The scenario seed is ``SCENARIO_SEED`` plus the index; every stream
    (targets, campaign, volumes, dynamics, epoch) is derived from it by a
    fixed label so the pieces stay independent. The assembled problem is
    checked with :meth:`DynamicProblem.validate`, so every generated or
    loaded scenario satisfies its structural invariants. A config whose
    campaign is too small to generate, or whose problem breaks an invariant,
    is a ConfigError naming the scenario.
    """
    config.validate()
    seed = SCENARIO_SEED + index
    constellation = build_constellation(config)
    targets = sample_targets(config, seed)

    campaign = generate_campaign(
        targets, DAY_S, _parse_range("periodicity", config.periodicity), random.Random(f"campaign:{seed}")
    )
    vol_lo, vol_hi = _parse_range("volatility", config.volatility)
    volatility = random.Random(f"volatility:{seed}").randint(vol_lo, vol_hi)
    label = f"{config.name}-{index:03d}"
    try:
        snapshots = generate_dynamics(
            campaign, volatility, DAY_S, random.Random(f"dynamics:{seed}")
        )
    except GenerationError as exc:
        raise ConfigError(f"{label}: {exc}") from None
    try:
        problem = _assemble_problem(constellation, targets, campaign, snapshots, seed)
        problem.validate()
    except ValueError as exc:
        raise ConfigError(f"{label}: {exc}") from None
    return Scenario(config=config, index=index, targets=targets, problem=problem)


def _assemble_problem(
    constellation: Constellation,
    targets: list[Target],
    campaign: list[Request],
    snapshots: list[Snapshot],
    seed: int,
) -> DynamicProblem:
    sats = constellation.satellites()
    epoch_offset = random.Random(f"epoch:{seed}").uniform(0.0, DAY_S)  # reference epoch to horizon start, s
    access, passes = geometry.batch_windows(
        constellation, targets, list(geometry.DEFAULT_STATIONS), DAY_S, epoch_offset
    )

    downlinks_by_agent: dict[int, list[Downlink]] = {}
    next_dl = 0
    for sat in sats:
        dls = []
        for start, end, capacity in passes[sat.agent_id]:
            dls.append(Downlink(next_dl, sat.agent_id, start, end, capacity))
            next_dl += 1
        downlinks_by_agent[sat.agent_id] = dls

    tasks_by_agent: dict[int, list] = {}
    next_task = 0
    campaign = sorted(campaign, key=lambda r: r.request_id)  # the order generate_tasks takes
    for sat in sats:
        windows_by_target = {
            t.target_id: access[(sat.agent_id, t.target_id)] for t in targets
        }
        agent_tasks = generate_tasks(
            sat.agent_id,
            campaign,
            windows_by_target,
            random.Random(f"tasks:{seed}:{sat.agent_id}"),
            id_start=next_task,
        )
        next_task += len(agent_tasks)
        tasks_by_agent[sat.agent_id] = agent_tasks

    return DynamicProblem(
        horizon_s=DAY_S,
        agents=sats,
        requests={r.request_id: r for r in campaign},
        tasks_by_agent=tasks_by_agent,
        downlinks_by_agent=downlinks_by_agent,
        snapshots=snapshots,
    )


# ---------------------------------------------------------------------------
# serialization


def scenario_to_dict(sc: Scenario) -> dict:
    snaps = sc.problem.snapshots
    return {
        "format_version": SCENARIO_FORMAT_VERSION,
        "config": sc.config.to_dict(),
        "index": sc.index,
        "seed": SCENARIO_SEED + sc.index,
        "targets": [[t.target_id, t.latitude_deg, t.longitude_deg] for t in sc.targets],
        "requests": [
            [r.request_id, r.target_id, r.start, r.end]
            for r in sorted(sc.problem.requests.values(), key=lambda r: r.request_id)
        ],
        "initial_active": sorted(snaps[0].active),
        "events": [
            [cur.start, sorted(cur.active - prev.active), sorted(prev.active - cur.active)]
            for prev, cur in zip(snaps, snaps[1:])
        ],
    }


def save_scenario(sc: Scenario, path: str | Path) -> None:
    Path(path).write_text(json.dumps(scenario_to_dict(sc), sort_keys=True, indent=1) + "\n")


def read_json_object(path: str | Path, what: str) -> dict:
    """The JSON object in ``path``; a file that cannot be read or parsed, or
    holds no object, is a ConfigError naming ``what`` and the path."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{what} {path}: unreadable: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{what} {path}: expected a JSON object, got {type(data).__name__}")
    return data


def load_scenario(path: str | Path) -> Scenario:
    """Rebuild a scenario from file; derived data is regenerated from seeds.

    The recorded campaign and timeline are cross-checked against the
    regenerated ones, so silent drift between writer and reader fails loudly.
    A file that cannot be read, or is not a scenario of this format, is a
    ConfigError naming the path.
    """
    data = read_json_object(path, "scenario file")
    if data.get("format_version") != SCENARIO_FORMAT_VERSION:
        raise ConfigError(
            f"scenario file {path}: unsupported scenario format {data.get('format_version')}"
        )
    compared = ("seed", "targets", "requests", "initial_active", "events")
    missing = [key for key in ("config", "index", *compared) if key not in data]
    if missing:
        raise ConfigError(f"scenario file {path}: missing {', '.join(missing)}")
    if not isinstance(data["config"], dict):
        raise ConfigError(f"scenario file {path}: config: expected an object")
    try:
        check_kind("index", data["index"], int)
    except ValueError as exc:
        raise ConfigError(f"scenario file {path}: {exc}") from None
    config = ScenarioConfig.from_dict(data["config"])
    sc = generate_scenario(config, data["index"])
    recorded = scenario_to_dict(sc)
    for key in compared:
        if recorded[key] != data[key]:
            raise ConfigError(f"scenario file {path} does not match regeneration ({key})")
    return sc
