import math

import numpy as np
import pytest

from cosched.geometry import (
    DEFAULT_STATIONS,
    EARTH_RADIUS_KM,
    EARTH_ROT_RAD_S,
    Constellation,
    GroundStation,
    OrbitalPlane,
    SCAN_STEP_S,
    Target,
    batch_access_windows,
    batch_downlink_windows,
    batch_windows,
    elevation_deg,
    latlon_to_ecef,
    off_nadir_deg,
    planet_constellation,
    propagate,
    time_grid,
    visible,
    walker_constellation,
    _scan,
)
from cosched.scenarios import build_constellation, preset, sample_targets

POLAR = OrbitalPlane(inclination_deg=90.0, altitude_km=500.0, raan_deg=0.0, count=1)
EQUATORIAL = OrbitalPlane(inclination_deg=0.0, altitude_km=500.0, raan_deg=0.0, count=1)
DAY_S = 86400.0


def one_sat(plane, max_off_nadir=45.0):
    return Constellation((plane,), max_off_nadir_deg=max_off_nadir, memory_bytes=1.25e11)


def access(plane, max_off_nadir, target):
    """One day's access windows of the single satellite of ``plane`` over one target."""
    out = batch_access_windows(one_sat(plane, max_off_nadir), [target], DAY_S)
    assert list(out) == [(0, target.target_id)]
    return out[(0, target.target_id)]


def sees(sat_pos, point, max_off_nadir):
    """Target visibility: inside the sensor cone and above the horizon."""
    return visible(sat_pos, point, point / np.linalg.norm(point), max_off_nadir, 0.0)


def ecef_to_eci(pos, t):
    theta = EARTH_ROT_RAD_S * t
    c, s = math.cos(theta), math.sin(theta)
    x, y, z = pos
    return np.array([x * c - y * s, x * s + y * c, z])


def test_initial_position_on_reference_axis():
    pos = propagate(EQUATORIAL, 0, 0.0)
    r = EQUATORIAL.radius_km
    assert pos == pytest.approx([r, 0.0, 0.0])


def test_orbit_periodic_in_inertial_frame():
    t0, t1 = 123.0, 123.0 + POLAR.period_s
    a = ecef_to_eci(propagate(POLAR, 0, t0), t0)
    b = ecef_to_eci(propagate(POLAR, 0, t1), t1)
    assert np.allclose(a, b, atol=1e-6)


def test_altitude_constant_along_orbit():
    times = np.linspace(0.0, 2 * POLAR.period_s, 500)
    radii = np.linalg.norm(propagate(POLAR, 0, times), axis=1)
    assert np.allclose(radii, POLAR.radius_km, atol=1e-9)


def test_polar_orbit_crosses_equator_twice_per_period():
    # 1 s sampling over one full period (offset avoids the exact t=0 node)
    times = np.arange(0.5, 0.5 + POLAR.period_s + 1.0, 1.0)
    z = propagate(POLAR, 0, times)[:, 2]
    crossings = int(np.sum(np.signbit(z[:-1]) != np.signbit(z[1:])))
    assert crossings == 2


def test_ground_speed_bounds_position_change():
    # consecutive positions differ by at most orbital speed x dt x 1.1
    speed = 2 * math.pi * POLAR.radius_km / POLAR.period_s
    dt = 1e-3
    times = np.array([0.0, 1000.0, 2851.7])
    for t in times:
        d = np.linalg.norm(propagate(POLAR, 0, t + dt) - propagate(POLAR, 0, t))
        assert d <= speed * dt * 1.1


def test_pole_target_invisible_from_equatorial_orbit():
    tgt = Target(0, 90.0, 0.0)
    assert access(EQUATORIAL, 60.0, tgt) == []


def test_nadir_point_has_zero_off_nadir_and_90_elevation():
    pos = propagate(POLAR, 0, 0.0)
    ground = pos / np.linalg.norm(pos) * 6378.137
    assert off_nadir_deg(pos, ground) == pytest.approx(0.0, abs=1e-6)
    assert elevation_deg(pos, ground) == pytest.approx(90.0, abs=1e-6)
    assert bool(sees(pos, ground, 5.0))


def test_target_beyond_horizon_not_visible():
    pos = propagate(EQUATORIAL, 0, 0.0)
    antipode = latlon_to_ecef(0.0, 180.0)
    # wide cone but the planet is in the way
    assert not bool(sees(pos, antipode, 89.0))


def subpoint(plane, slot, t, epoch_offset_s):
    """(lat, lon) directly below a satellite at time ``t``."""
    x, y, z = propagate(plane, slot, t, epoch_offset_s)
    return math.degrees(math.asin(z / math.hypot(x, y, z))), math.degrees(math.atan2(y, x))


def assert_sorted_disjoint_pairs(windows):
    """Each window is a (float, float) pair with start < end, and each ends
    at or before the next one starts: sorted by start, pairwise disjoint."""
    for w in windows:
        assert type(w) is tuple and len(w) == 2 and all(type(x) is float for x in w), w
        assert w[0] < w[1], w
    for (_, end), (start, _) in zip(windows, windows[1:]):
        assert end <= start, (end, start)


def assert_matches_dense(windows, dense, pos_at, seen):
    """Windows agree with visibility ``seen(positions)`` sampled every second:
    same run count, visible midpoints, and every hit inside a window (1 s slack)."""
    assert_sorted_disjoint_pairs(windows)
    mask = seen(pos_at(dense))
    runs = int(np.sum(mask[1:] & ~mask[:-1])) + int(mask[0])
    assert len(windows) == runs
    for start, end in windows:
        assert bool(seen(pos_at(0.5 * (start + end))))
    hits = dense[mask]
    starts = np.array([start for start, _ in windows]) - 1.0
    ends = np.array([end for _, end in windows]) + 1.0
    i = np.searchsorted(starts, hits, side="right") - 1
    assert np.all(i >= 0) and np.all(hits <= ends[i])


def test_access_windows_match_dense_sampling():
    tgt = Target(0, 40.0, -100.0)
    windows = access(POLAR, 60.0, tgt)
    assert windows, "mid-latitude target should be seen by a polar satellite"
    for start, end in windows:
        assert 0.0 <= start and end <= DAY_S
    point = latlon_to_ecef(tgt.latitude_deg, tgt.longitude_deg)
    assert_matches_dense(
        windows,
        np.arange(0.0, 86400.0, 1.0),
        lambda t: propagate(POLAR, 0, t),
        lambda p: sees(p, point, 60.0),
    )


def test_batch_windows_match_dense_sampling_per_pair():
    """Every (satellite, point) column of one batch call over targets and
    stations together matches its own dense scan, so no edge is credited to
    another satellite or point, and each point keeps its own cone and minimum
    elevation."""
    cfg = preset("tiny")
    constellation = build_constellation(cfg)
    horizon_s = 21600.0
    epoch = 1234.5
    plane0 = constellation.planes[0]
    targets = sample_targets(cfg, 7)[:6]
    # sub-points of satellite 0 at the horizon ends pin windows to both ends
    targets.append(Target(100, *subpoint(plane0, 0, 0.0, epoch)))
    targets.append(Target(101, *subpoint(plane0, 0, horizon_s, epoch)))
    # a third station with its own antenna mask and rate
    stations = [*DEFAULT_STATIONS, GroundStation("cape", -40.0, 20.0, 20.0, 10e6)]
    access_out, passes_out = batch_windows(constellation, targets, stations, horizon_s, epoch)
    assert batch_access_windows(constellation, targets, horizon_s, epoch) == access_out
    assert batch_downlink_windows(constellation, stations, horizon_s, epoch) == passes_out

    assert access_out[(0, 100)][0][0] == 0.0
    assert access_out[(0, 101)][-1][1] == horizon_s
    assert all(passes_out.values()), "every satellite should pass a station in 6 h"

    dense = np.arange(0.0, horizon_s + 1.0, 1.0)
    cone = constellation.max_off_nadir_deg
    station_points = [latlon_to_ecef(st.latitude_deg, st.longitude_deg) for st in stations]
    for sat in constellation.satellites():
        plane = constellation.planes[sat.plane_index]

        def pos_at(t, plane=plane, slot=sat.slot):
            return propagate(plane, slot, t, epoch)

        for tgt in targets:
            point = latlon_to_ecef(tgt.latitude_deg, tgt.longitude_deg)
            assert_matches_dense(
                access_out[(sat.agent_id, tgt.target_id)],
                dense,
                pos_at,
                lambda p, point=point: sees(p, point, cone),
            )

        # merged passes: each belongs to exactly one station and carries its rate
        passes = passes_out[sat.agent_id]
        owners = []
        for start, end, cap in passes:
            mid = pos_at(0.5 * (start + end))
            (k,) = [
                k for k, st in enumerate(stations)
                if elevation_deg(mid, station_points[k]) >= st.min_elevation_deg
            ]
            owners.append(k)
            assert cap == (end - start) * stations[k].downlink_rate_bps
        for k, st in enumerate(stations):
            assert_matches_dense(
                [(start, end) for (start, end, _), o in zip(passes, owners) if o == k],
                dense,
                pos_at,
                lambda p, k=k, st=st: elevation_deg(p, station_points[k]) >= st.min_elevation_deg,
            )


def test_pruned_scan_matches_visible_on_every_sample():
    """The coarse pass and the central-angle prefilter only skip samples
    ``visible`` rejects, whatever the orbit, point, cone (narrow, wider than
    the horizon, or a station's 180°), minimum elevation (including below the
    horizon) and horizon (a day, or not a multiple of the grid step or the
    coarse stride, down to two samples)."""
    rng = np.random.default_rng(20261018)
    n = 40
    lat = np.degrees(np.arcsin(rng.uniform(-1.0, 1.0, n)))
    lat[:2] = 90.0, -90.0
    lon = rng.uniform(-180.0, 180.0, n)
    ecef = np.array([latlon_to_ecef(a, b) for a, b in zip(lat, lon)])
    up = ecef / np.linalg.norm(ecef, axis=1, keepdims=True)
    for horizon_s in (86400.0, 21603.7, 95.0, 5.0):
        times = time_grid(horizon_s)
        seen = 0
        for _ in range(16):
            plane = OrbitalPlane(
                inclination_deg=rng.uniform(0.0, 180.0),
                altitude_km=rng.uniform(200.0, 3000.0),
                raan_deg=rng.uniform(0.0, 360.0),
                count=1,
            )
            epoch = rng.uniform(0.0, 86400.0)
            pos = propagate(plane, 0, times, epoch)
            cone = np.where(rng.random(n) < 0.2, 180.0, rng.uniform(1e-3, 90.0 - 1e-3, n))
            min_el = rng.uniform(-30.0, 40.0, n)
            point, first, last = _scan(plane, 0, times, (ecef, up, cone, min_el), epoch)
            mask = np.zeros((n, len(times)), dtype=bool)
            for j, a, b in zip(point, first, last):
                assert not mask[j, max(a - 1, 0):b + 2].any(), "runs overlap, touch or repeat"
                mask[j, a:b + 1] = True
            assert list(zip(point, first)) == sorted(zip(point, first))
            full = np.array([visible(pos, ecef[j], up[j], cone[j], min_el[j]) for j in range(n)])
            assert np.array_equal(mask, full)
            seen += full.any()
        assert seen >= 12  # most orbits see some point, even over two samples


def test_windows_match_dense_sampling_without_cone_limit():
    """Windows where the scan bound drops the cone limit: a station masked
    below the horizon, and a sensor cone wider than the horizon cone."""
    horizon_s = 21600.0
    plane = OrbitalPlane(inclination_deg=70.0, altitude_km=500.0, raan_deg=20.0, count=2)
    assert 80.0 > math.degrees(math.asin(EARTH_RADIUS_KM / plane.radius_km))
    constellation = Constellation((plane,), max_off_nadir_deg=80.0, memory_bytes=1.25e11)
    station = GroundStation("low", 60.0, 10.0, min_elevation_deg=-2.0, downlink_rate_bps=62.5e6)
    targets = [Target(i, lat, lon) for i, (lat, lon) in enumerate([(55.0, 5.0), (-30.0, 150.0), (90.0, 0.0)])]
    access_out = batch_access_windows(constellation, targets, horizon_s)
    passes_out = batch_downlink_windows(constellation, [station], horizon_s)
    assert all(access_out.values()), "every satellite should see every target in 6 h"

    dense = np.arange(0.0, horizon_s + 1.0, 1.0)
    station_point = latlon_to_ecef(station.latitude_deg, station.longitude_deg)
    for sat in constellation.satellites():
        def pos_at(t, slot=sat.slot):
            return propagate(plane, slot, t)

        passes = [(start, end) for start, end, _ in passes_out[sat.agent_id]]
        assert passes
        assert_matches_dense(
            passes, dense, pos_at, lambda p: elevation_deg(p, station_point) >= -2.0
        )
        for tgt in targets:
            point = latlon_to_ecef(tgt.latitude_deg, tgt.longitude_deg)
            assert_matches_dense(
                access_out[(sat.agent_id, tgt.target_id)],
                dense,
                pos_at,
                lambda p, point=point: sees(p, point, 80.0),
            )


def test_wider_sensor_cone_contains_narrow_cone_windows():
    tgt = Target(0, 40.0, -100.0)
    narrow = access(POLAR, 30.0, tgt)
    wide = access(POLAR, 60.0, tgt)
    assert narrow, "need at least one pass to make the test meaningful"
    for w in narrow:
        assert any(
            v[0] <= w[0] + 1e-6 and w[1] - 1e-6 <= v[1] for v in wide
        ), f"{w} not contained in any wide-cone window"


def test_no_ground_points_give_no_windows():
    assert batch_access_windows(one_sat(POLAR), [], DAY_S) == {}
    assert batch_downlink_windows(one_sat(POLAR), [], DAY_S) == {0: []}


def test_access_windows_deterministic():
    tgt = Target(0, 40.0, -100.0)
    assert access(POLAR, 60.0, tgt) == access(POLAR, 60.0, tgt)


def test_downlink_capacity_is_duration_times_rate():
    station = GroundStation("fairbanks", 64.86, -147.85, 5.0, 62.5e6)
    passes = batch_downlink_windows(one_sat(POLAR), [station], DAY_S)[0]
    assert passes, "polar orbit must see a high-latitude station daily"
    for start, end, cap in passes:
        assert cap == pytest.approx((end - start) * 62.5e6)
    # arithmetic check: a 160 s pass at 62.5 MB/s carries 10 000 MB
    assert 160.0 * 62.5e6 == pytest.approx(1e10)


def test_passes_over_stations_in_view_at_once_merge():
    """A satellite downlinks to one station at a time: a pass over a second,
    co-located station with a higher mask and rate lies inside a pass over
    the first and merges into it at the higher rate; the other passes keep
    the first station's rate."""
    low = GroundStation("low", 64.86, -147.85, 5.0, 1e6)
    high = GroundStation("high", 64.86, -147.85, 20.0, 3e6)
    alone = batch_downlink_windows(one_sat(POLAR), [low], DAY_S)[0]
    nested = batch_downlink_windows(one_sat(POLAR), [high], DAY_S)[0]
    both = batch_downlink_windows(one_sat(POLAR), [low, high], DAY_S)[0]
    assert nested and len(nested) < len(alone), "need passes with and without a nested pass"
    assert [(a, b) for a, b, _ in both] == [(a, b) for a, b, _ in alone]
    for a, b, cap in both:
        rate = 3e6 if any(a <= c and d <= b for c, d, _ in nested) else 1e6
        assert cap == (b - a) * rate
    assert all(p[1] <= q[0] for p, q in zip(both, both[1:]))


def test_time_grid_covers_horizon():
    grid = time_grid(95.0)
    assert grid[0] == 0.0 and grid[-1] == 95.0
    assert np.all(np.diff(grid) > 0)
    assert np.all(np.diff(grid) <= SCAN_STEP_S)


def test_constellation_enumeration_is_plane_major_and_sized():
    c = Constellation(
        planes=(
            OrbitalPlane(90.0, 500.0, 0.0, 2),
            OrbitalPlane(52.0, 500.0, 40.0, 3),
        ),
        max_off_nadir_deg=45.0,
        memory_bytes=1.0,
    )
    sats = c.satellites()
    assert len(sats) == 5
    assert [s.agent_id for s in sats] == [0, 1, 2, 3, 4]
    assert [(s.plane_index, s.slot) for s in sats] == [
        (0, 0), (0, 1), (1, 0), (1, 1), (1, 2),
    ]


def test_reference_constellation_sizes():
    assert len(planet_constellation().satellites()) == 200
    assert len(walker_constellation().satellites()) == 108
