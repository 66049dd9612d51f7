import dataclasses
import hashlib
import json
import math
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from cosched import geometry, solvers
from cosched.geometry import OrbitalPlane
from cosched.oracle import ORACLE_MODES
from cosched.scenarios import (
    ConfigError,
    PRESETS,
    ScenarioConfig,
    _parse_range,
    build_constellation,
    generate_scenario,
    load_scenario,
    load_targets,
    preset,
    sample_targets,
    save_scenario,
)
from cosched.solvers import _KIND_NAMES, SolverConfig, check_fields

from conftest import pinned_digests


def test_presets_validate():
    for name in PRESETS:
        preset(name).validate()


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError):
        preset("medium-mars")


def test_range_strings_parsed():
    assert _parse_range("periodicity", "uniform-3-5") == (3, 5)
    assert _parse_range("volatility", "fixed-2") == (2, 2)


@pytest.mark.parametrize("bad", ["fixed-0", "uniform-5-3", "weekly", "uniform-3", ""])
def test_malformed_ranges_rejected(bad):
    with pytest.raises(ConfigError):
        preset("tiny", volatility=bad).validate()


def test_reference_constellation_sizes():
    assert len(build_constellation(preset("planet")).satellites()) == 200
    assert len(build_constellation(preset("walker")).satellites()) == 108


def test_sampled_targets_deterministic_and_bounded():
    c = preset("tiny", target_count=40)
    a = sample_targets(c, 7)
    b = sample_targets(c, 7)
    assert a == b and len(a) == 40
    assert sample_targets(c, 8) != a
    for t in a:
        assert -60.0 <= t.latitude_deg <= 72.0
        assert -180.0 <= t.longitude_deg <= 180.0


def test_scenario_generation_deterministic():
    c = preset("tiny")
    a = generate_scenario(c, 0)
    b = generate_scenario(c, 0)
    assert a.problem.requests == b.problem.requests
    assert a.problem.tasks == b.problem.tasks
    assert a.problem.snapshots == b.problem.snapshots
    assert a.targets == b.targets
    # a different index reseeds everything
    other = generate_scenario(c, 1)
    assert other.problem.requests != a.problem.requests or other.targets != a.targets


def test_scenario_label_and_validation():
    sc = generate_scenario(preset("tiny"), 3)
    assert sc.label == "tiny-003"
    sc.problem.validate()
    assert len(sc.problem.agents) == 8


def test_generation_rejects_overlapping_downlinks(monkeypatch):
    batch_windows = geometry.batch_windows

    def overlapping(constellation, *args):
        access, _ = batch_windows(constellation, *args)
        passes = [(100.0, 400.0, 1e9), (300.0, 600.0, 1e9)]
        return access, {s.agent_id: passes for s in constellation.satellites()}

    monkeypatch.setattr(geometry, "batch_windows", overlapping)
    # validate()'s ValueError comes back as a ConfigError naming the scenario
    with pytest.raises(ConfigError, match="tiny-000: agent 0 has overlapping downlinks"):
        generate_scenario(preset("tiny", target_count=2), 0)


def test_save_load_roundtrip(tmp_path):
    sc = generate_scenario(preset("tiny"), 0)
    path = tmp_path / "tiny-000.json"
    save_scenario(sc, path)
    loaded = load_scenario(path)
    assert loaded.problem.tasks == sc.problem.tasks
    assert loaded.problem.snapshots == sc.problem.snapshots
    assert loaded.targets == sc.targets


def test_load_detects_drifted_record(tmp_path):
    sc = generate_scenario(preset("tiny"), 0)
    path = tmp_path / "tiny-000.json"
    save_scenario(sc, path)
    doc = json.loads(path.read_text())
    doc["initial_active"] = doc["initial_active"][:-1]
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError):
        load_scenario(path)


@pytest.mark.parametrize(
    "tamper, message",
    [
        (lambda doc: doc.update(config=5), "config: expected an object"),
        (lambda doc: doc.update(index="0"), "index: expected an integer, got '0'"),
        (lambda doc: (doc.pop("events"), doc.pop("seed")), "missing seed, events"),
    ],
    ids=["config-not-an-object", "index-a-string", "no-seed-or-events"],
)
def test_load_names_the_malformed_field(tmp_path, tamper, message):
    """A scenario file whose config or index is of the wrong kind, or that
    lacks a key, is a ConfigError naming the file and the field."""
    sc = generate_scenario(preset("tiny"), 0)
    path = tmp_path / "tiny-000.json"
    save_scenario(sc, path)
    doc = json.loads(path.read_text())
    tamper(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError) as err:
        load_scenario(path)
    assert str(err.value) == f"scenario file {path}: {message}"


def test_version_one_file_is_an_unsupported_format(tmp_path):
    """Format 1 carried the unused ``gnd_seed``; such a file is refused by
    its version, not by the field the current config no longer has."""
    sc = generate_scenario(preset("tiny"), 0)
    path = tmp_path / "tiny-000.json"
    save_scenario(sc, path)
    doc = json.loads(path.read_text())
    doc["format_version"] = 1
    doc["config"]["gnd_seed"] = 2
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match="unsupported scenario format 1"):
        load_scenario(path)


def test_solver_config_reflects_overrides():
    c = preset("tiny", solver=SolverConfig(p_u=0.5, max_iters=7))
    sc = c.solver_config()
    assert sc == SolverConfig(p_u=0.5, max_iters=7)
    # a fresh copy: editing it leaves the config (and the preset) alone
    sc.run_all_iterations = True
    assert not c.solver.run_all_iterations
    assert preset("tiny").solver == SolverConfig(neighborhood_size=4)


def test_version_two_file_is_an_unsupported_format(tmp_path):
    """Format 2 copied the solver settings into the scenario config; format 3
    nests them in one ``solver`` block, and an older file is refused."""
    sc = generate_scenario(preset("tiny"), 0)
    path = tmp_path / "tiny-000.json"
    save_scenario(sc, path)
    doc = json.loads(path.read_text())
    doc["format_version"] = 2
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match="unsupported scenario format 2"):
        load_scenario(path)


def test_version_three_file_is_an_unsupported_format(tmp_path):
    """Format 3 stored the solvers to run in the scenario config; format 4
    leaves that choice to ``bench``, and such a file is refused by its
    version, not by the field the current config no longer has."""
    sc = generate_scenario(preset("tiny"), 0)
    path = tmp_path / "tiny-000.json"
    save_scenario(sc, path)
    doc = json.loads(path.read_text())
    doc["format_version"] = 3
    doc["config"]["solvers"] = ["random", "greedy", "dnss", "0nss", "ddsa", "0dsa"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match="unsupported scenario format 3"):
        load_scenario(path)


def test_version_four_file_is_an_unsupported_format(tmp_path):
    """Format 4 carried ``horizon_s`` and ``scenario_seed``, which no caller
    varied; format 5 plans one day from seed 2005 + index, and such a file is
    refused by its version, not by the fields the current config no longer
    has."""
    sc = generate_scenario(preset("tiny"), 0)
    path = tmp_path / "tiny-000.json"
    save_scenario(sc, path)
    doc = json.loads(path.read_text())
    doc["format_version"] = 4
    doc["config"].update(horizon_s=86400.0, scenario_seed=2005)
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match="unsupported scenario format 4"):
        load_scenario(path)


@pytest.mark.parametrize("cls", [ScenarioConfig, SolverConfig, OrbitalPlane])
def test_every_setting_kind_comes_from_its_annotation(cls, monkeypatch):
    """``check_fields`` checks every field of the three settings classes,
    in declaration order, with a kind ``check_kind`` knows, and skips only
    the field that holds a dataclass."""
    checked = {}
    monkeypatch.setattr(solvers, "check_kind", lambda name, value, kind, optional=False: checked.setdefault(name, kind))
    names = [f.name for f in dataclasses.fields(cls)]
    check_fields(cls, dict.fromkeys(names))
    assert list(checked) == [n for n in names if n != "solver"]
    assert set(checked.values()) <= set(_KIND_NAMES)
    assert ("solver" in names) == (cls is ScenarioConfig)


def test_an_annotation_without_a_kind_check_is_a_type_error():
    @dataclasses.dataclass
    class Odd:
        weights: dict

    with pytest.raises(TypeError, match="Odd.weights: no kind check"):
        check_fields(Odd, {"weights": {}})


def test_each_solver_setting_is_declared_once():
    scenario_fields = set(ScenarioConfig.__dataclass_fields__)
    assert not scenario_fields & set(SolverConfig.__dataclass_fields__)
    assert ScenarioConfig().solver == SolverConfig()


@pytest.mark.parametrize(
    "text, expected",
    [
        ("id,lat,lon\n7,10.5,20.0\n# comment\n\n3,-45.0,170.0\n", [(7, 10.5, 20.0), (3, -45.0, 170.0)]),
        ("lat,lon\n10.5,20.0\n\n-45.0,170.0\n", [(0, 10.5, 20.0), (1, -45.0, 170.0)]),
    ],
    ids=["explicit-ids", "implicit-ids"],
)
def test_load_targets_reads_both_formats(tmp_path, text, expected):
    path = tmp_path / "targets.csv"
    path.write_text(text)
    targets = load_targets(str(path))
    assert [(t.target_id, t.latitude_deg, t.longitude_deg) for t in targets] == expected


@pytest.mark.parametrize(
    "text, message",
    [
        ("id,lat,lon\n0,10,20\n0,30,40\n", "line 3: duplicate target id 0"),
        ("id,lat,lon\n0,10,20,5\n", "line 2: expected 2 or 3 fields, got 4"),
        ("id,lat,lon\n0,10,20\n1,30\n", "line 3: expected 3 fields, got 2"),
        ("lat,lon\n10,20\n95,30\n", "line 3: latitude outside [-90, 90]"),
        ("id,lat,lon\n0,north,20\n", "line 2: could not convert string to float"),
        # float() reads "nan", and a NaN latitude passed abs(lat) > 90
        ("id,lat,lon\n0,nan,20.0\n", "line 2: latitude outside [-90, 90], got nan"),
        ("id,lat,lon\n0,10.0,20.0\n1,10.0,nan\n", "line 3: longitude must be finite, got nan"),
    ],
    ids=["duplicate-id", "four-fields", "mixed-widths", "latitude-out-of-range", "not-a-number",
         "latitude-nan", "longitude-nan"],
)
def test_load_targets_rejects_malformed_rows(tmp_path, text, message):
    path = tmp_path / "targets.csv"
    path.write_text(text)
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_targets(str(path))


def test_targets_path_feeds_generation(tmp_path):
    path = tmp_path / "targets.csv"
    path.write_text("id,lat,lon\n5,10,20\n9,40,-70\n")
    sc = generate_scenario(preset("tiny", targets_path=str(path)), 0)
    assert [t.target_id for t in sc.targets] == [5, 9]
    assert {r.target_id for r in sc.problem.requests.values()} == {5, 9}


# SHA-256 of ``save_scenario`` output for tiny-000 ... tiny-004. A scenario
# file holds the config, targets, campaign and timeline but no geometry
# output, so these digests do not depend on the platform's floats.
TINY_FILE_DIGESTS = pinned_digests("tiny_scenario_files")


@pytest.mark.parametrize("index", range(len(TINY_FILE_DIGESTS)))
def test_scenario_files_match_pinned_digests(tmp_path, index):
    path = tmp_path / f"tiny-{index:03d}.json"
    save_scenario(generate_scenario(preset("tiny"), index), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == TINY_FILE_DIGESTS[index]


# SHA-256 over every task and downlink of a generated problem, one line per
# record with each float written by ``float.hex``, so a change to the scan,
# the edge refinement or the task tiling that moves any value by one bit
# fails here. Unlike the file digests above these include geometry output,
# so they hold for the numpy and libm the floats were computed with.
# walker-000 has 634 targets and two stations through one pass per satellite
PROBLEM_DIGESTS = {
    (name, index): digest
    for name, digests in pinned_digests("generated_problems").items()
    for index, digest in enumerate(digests)
}


def problem_digest(problem) -> str:
    h = hashlib.sha256()
    for t in problem.tasks.values():
        fields = (t.start, t.end, t.volume_bytes)
        h.update(f"t {t.task_id} {t.agent_id} {t.request_id} {' '.join(map(float.hex, fields))}\n".encode())
    for dls in problem.downlinks_by_agent.values():
        for d in dls:
            fields = (d.start, d.end, d.capacity_bytes)
            h.update(f"d {d.downlink_id} {d.agent_id} {' '.join(map(float.hex, fields))}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize("name, index", list(PROBLEM_DIGESTS), ids=lambda v: str(v))
def test_generated_problems_match_pinned_digests(name, index):
    problem = generate_scenario(preset(name), index).problem
    assert problem_digest(problem) == PROBLEM_DIGESTS[(name, index)]


# ---------------------------------------------------------------------------
# property: every config dict ends in a valid scenario or a ConfigError


def _numbers(lo, hi, *extremes):
    """Floats and ints in [lo, hi], and the given extreme values."""
    return st.one_of(st.floats(lo, hi), st.integers(math.ceil(lo), math.floor(hi)), st.sampled_from(extremes))


_RANGE_SPECS = st.one_of(
    st.builds("fixed-{}".format, st.integers(1, 6)),
    st.builds("uniform-{}-{}".format, st.integers(1, 3), st.integers(3, 6)),
)

# Each draw builds at most 2 planes of 2 satellites and 5 targets over the one
# day every scenario plans, so it builds in milliseconds: the constellation is
# always custom, and the target count, whose default is large, is always drawn.
# Only a deleted key falls back to its default (the 200-satellite planet
# constellation or 634 targets); such draws are rare and build in under a
# second.
_IN_RANGE = st.fixed_dictionaries(
    {
        "constellation": st.just("custom"),
        "custom_planes": st.lists(
            st.fixed_dictionaries({
                "inclination_deg": _numbers(0.0, 180.0, 0.0, 180.0),
                "altitude_km": _numbers(300.0, 2000.0, 1e-9, 35_786.0, 1e6),
                "raan_deg": _numbers(-360.0, 360.0, 1e6),
                "count": st.sampled_from([1, 2]),
            }),
            max_size=2,
        ),
        "target_count": st.integers(1, 5),
    },
    optional={
        "name": st.text(max_size=6),
        "max_off_nadir_deg": st.one_of(st.none(), _numbers(1.0, 89.0, 1e-9, 89.999)),
        "memory_bytes": _numbers(1e6, 1e12, 1.0, 1e300),
        "targets_path": st.sampled_from([None, "", "missing", "valid", "empty"]),
        "periodicity": _RANGE_SPECS,
        "volatility": _RANGE_SPECS,
        "solver": st.fixed_dictionaries({}, optional={
            "p_u": st.floats(0.0, 1.0), "max_iters": st.integers(1, 30), "run_all_iterations": st.booleans(),
        }),
        "oracle": st.sampled_from([*ORACLE_MODES, "none"]),
    },
)

# a wrong kind, NaN, infinity, an out-of-range number or a malformed string
BAD_VALUES = (None, True, "x", "fixed-0", "uniform-3-1", [], {}, -1, 0, 0.0, 1.5, 1e300,
              math.nan, math.inf, -math.inf)
_DELETE = object()


@st.composite
def config_dicts(draw):
    """An in-range config dict, or one with one value, at any depth, deleted or
    replaced by one of ``BAD_VALUES``."""
    data = draw(_IN_RANGE)
    if draw(st.booleans()):
        parents = [data, *(p for p in data["custom_planes"]), *([data["solver"]] if "solver" in data else [])]
        parent = draw(st.sampled_from(parents))
        key = draw(st.sampled_from(sorted(parent) + ["unknown"]))
        value = draw(st.sampled_from((_DELETE, *BAD_VALUES)))
        if value is _DELETE:
            parent.pop(key, None)
        else:
            parent[key] = value
    return data


@pytest.fixture(scope="module")
def target_files(tmp_path_factory):
    """What a drawn ``targets_path`` names: no file, a CSV of three targets,
    or an empty file."""
    root = tmp_path_factory.mktemp("targets")
    (root / "valid.csv").write_text("id,lat,lon\n0,10.0,20.0\n1,-30.5,100.0\n2,45.0,-75.0\n")
    (root / "empty.csv").write_text("")
    return {"missing": str(root / "missing.csv"), "valid": str(root / "valid.csv"), "empty": str(root / "empty.csv")}


def _one_plane(**plane):
    plane = {"inclination_deg": 97.0, "altitude_km": 500.0, "raan_deg": 0.0, "count": 2, **plane}
    return {"constellation": "custom", "custom_planes": [plane], "target_count": 2}


@settings(max_examples=500, deadline=None)
@given(data=config_dicts())
@example(data=_one_plane(count=1.5))  # was a TypeError from range()
@example(data=_one_plane(altitude_km=1e300))  # was an OverflowError from the orbital period
@example(data=dict(_one_plane(), targets_path="missing"))  # was a FileNotFoundError
@example(data=_one_plane(inclination_deg=True, raan_deg=False, count=True))  # was one satellite at 1° inclination
def test_every_config_gives_a_valid_scenario_or_a_config_error(target_files, data):
    if isinstance(data.get("targets_path"), str):
        data["targets_path"] = target_files.get(data["targets_path"], data["targets_path"])
    try:
        sc = generate_scenario(ScenarioConfig.from_dict(data))
    except ConfigError:
        return
    sc.problem.validate()
    # JSON's true is 1 to Python; an accepted plane holds numbers
    for plane in sc.config.custom_planes or []:
        assert not any(isinstance(v, bool) for v in plane.values()), plane
