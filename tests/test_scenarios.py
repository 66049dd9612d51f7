import dataclasses
import json

import pytest

from cosched import geometry
from cosched.intervals import TimeInterval
from cosched.scenarios import (
    ConfigError,
    PRESETS,
    ScenarioConfig,
    build_constellation,
    generate_scenario,
    load_scenario,
    preset,
    sample_targets,
    save_scenario,
)


def test_presets_validate():
    for name in PRESETS:
        preset(name).validate()


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError):
        preset("medium-mars")


def test_range_strings_parsed():
    c = preset("tiny", periodicity="uniform-3-5", volatility="fixed-2")
    assert c._periodicity_range() == (3, 5)
    assert c._volatility_range() == (2, 2)


@pytest.mark.parametrize("bad", ["fixed-0", "uniform-5-3", "weekly", "uniform-3", ""])
def test_malformed_ranges_rejected(bad):
    with pytest.raises(ConfigError):
        preset("tiny", volatility=bad).validate()


def test_invalid_solver_name_rejected():
    with pytest.raises(ConfigError) as e:
        preset("tiny", solvers=("dnss", "tabu")).validate()
    assert "solvers" in str(e.value)


def test_reference_constellation_sizes():
    assert build_constellation(preset("planet")).size == 200
    assert build_constellation(preset("walker")).size == 108


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
    def overlapping(constellation, *args):
        passes = [(TimeInterval(100.0, 400.0), 1e9), (TimeInterval(300.0, 600.0), 1e9)]
        return {s.agent_id: passes for s in constellation.satellites()}

    monkeypatch.setattr(geometry, "batch_downlink_windows", overlapping)
    with pytest.raises(ValueError, match="overlapping downlinks"):
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
    c = preset("tiny", p_u=0.5, max_iters=7)
    sc = c.solver_config()
    assert sc.p_u == 0.5 and sc.max_iters == 7
    assert sc.neighborhood_size == c.neighborhood_size
