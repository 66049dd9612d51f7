"""Circular-orbit constellation propagation and visibility windows.

Two-body circular Keplerian orbits over a spherical, uniformly rotating
Earth. No J2, drag, or SGP4: the scheduling experiments depend on the
structure of the visibility windows, not on ephemeris fidelity, and the
idealized model keeps every window computation an exactly reproducible pure
function of its inputs.

All positions are Earth-fixed (ECEF) kilometers; all times are seconds since
the start of the scheduling horizon. A per-scenario ``epoch_offset_s`` shifts
the constellation along its orbits and the Earth in its rotation, which is
how randomized horizon starts are realized.

Access windows (targets) and downlink passes (stations) come from one path.
A ground point is visible when it lies inside an off-nadir cone and at or
above a minimum elevation; targets use the satellite's sensor cone and the
horizon, stations a 180° cone and their antenna mask. Per satellite, each
point is scanned on a ``SCAN_STEP_S`` time grid, and then every rising and
falling edge of every point is bisected in lockstep, one propagation per
halving, until each bracket is at most 1 s wide.

The scan evaluates ``visible`` only where it can pass. A point is visible
only while the Earth-central angle λ between it and the satellite is at most
λ_max. With orbit radius r, Earth radius R, cone η and minimum elevation ε,
the elevation limit gives λ_el = arccos(R cos ε / r) − ε, and, when η < 90°,
r sin η / R < 1 and ε ≥ 0, the cone limit gives λ_cone = arcsin(r sin η / R)
− η; λ_max is the smaller of those that apply. The cone limit needs ε ≥ 0:
below the horizon the cone's far-side intersection with the Earth can pass.
Samples with cos λ below cos λ_max, padded far beyond rounding error, are
invisible without evaluating ``visible``, so the windows are exactly those
of the full scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .intervals import TimeInterval

EARTH_RADIUS_KM = 6378.137
MU_KM3_S2 = 398600.4418
EARTH_ROT_RAD_S = 7.2921159e-5
SCAN_STEP_S = 10.0  # visibility scan grid spacing before edge refinement


@dataclass(frozen=True)
class OrbitalPlane:
    """One circular orbital plane; satellites are evenly spaced along it."""

    inclination_deg: float
    altitude_km: float
    raan_deg: float
    count: int

    def __post_init__(self):
        if not 0.0 <= self.inclination_deg <= 180.0:
            raise ValueError(f"inclination {self.inclination_deg} outside [0, 180]")
        if self.count < 1:
            raise ValueError("plane must hold at least one satellite")
        if not 0 < self.altitude_km < math.inf:
            raise ValueError(f"altitude must be positive and finite, got {self.altitude_km}")
        if not math.isfinite(self.raan_deg):
            raise ValueError(f"raan must be finite, got {self.raan_deg}")

    @property
    def radius_km(self) -> float:
        return EARTH_RADIUS_KM + self.altitude_km

    @property
    def period_s(self) -> float:
        return 2.0 * math.pi * math.sqrt(self.radius_km**3 / MU_KM3_S2)

    @property
    def mean_motion_rad_s(self) -> float:
        return 2.0 * math.pi / self.period_s

    def slot_phase_rad(self, slot: int) -> float:
        # evenly spaced true anomalies, 360/count apart
        return math.radians(360.0 * slot / self.count)


@dataclass(frozen=True)
class SatelliteSpec:
    agent_id: int
    plane_index: int
    slot: int
    max_off_nadir_deg: float
    memory_bytes: float

    def __post_init__(self):
        if not 0.0 < self.max_off_nadir_deg < 90.0:
            raise ValueError("max off-nadir angle must lie in (0, 90) degrees")
        if self.memory_bytes <= 0:
            raise ValueError("memory capacity must be positive")


@dataclass(frozen=True)
class Constellation:
    name: str
    planes: tuple[OrbitalPlane, ...]
    max_off_nadir_deg: float
    memory_bytes: float

    def satellites(self) -> list[SatelliteSpec]:
        sats = []
        agent_id = 0
        for pi, plane in enumerate(self.planes):
            for slot in range(plane.count):
                sats.append(
                    SatelliteSpec(
                        agent_id=agent_id,
                        plane_index=pi,
                        slot=slot,
                        max_off_nadir_deg=self.max_off_nadir_deg,
                        memory_bytes=self.memory_bytes,
                    )
                )
                agent_id += 1
        return sats

    @property
    def size(self) -> int:
        return sum(p.count for p in self.planes)


@dataclass(frozen=True)
class GroundStation:
    name: str
    latitude_deg: float
    longitude_deg: float
    min_elevation_deg: float
    downlink_rate_bps: float  # bytes per second

    def __post_init__(self):
        if abs(self.latitude_deg) > 90.0:
            raise ValueError("latitude outside [-90, 90]")
        if self.downlink_rate_bps <= 0:
            raise ValueError("downlink rate must be positive")


@dataclass(frozen=True)
class Target:
    target_id: int
    latitude_deg: float
    longitude_deg: float

    def __post_init__(self):
        if abs(self.latitude_deg) > 90.0:
            raise ValueError("latitude outside [-90, 90]")


def latlon_to_ecef(lat_deg: float, lon_deg: float) -> np.ndarray:
    lat = math.radians(lat_deg)
    lon = math.radians(lon_deg)
    return EARTH_RADIUS_KM * np.array(
        [math.cos(lat) * math.cos(lon), math.cos(lat) * math.sin(lon), math.sin(lat)]
    )


def propagate(
    plane: OrbitalPlane, slot: int, times, epoch_offset_s: float = 0.0
) -> np.ndarray:
    """ECEF position(s) in km of one satellite at the given time(s).

    ``times`` may be a scalar or an array; the result has shape (3,) or
    (N, 3). Deterministic pure function of its inputs.
    """
    t = np.asarray(times, dtype=float)
    scalar = t.ndim == 0
    t_abs = t + epoch_offset_s

    r = plane.radius_km
    u = plane.slot_phase_rad(slot) + plane.mean_motion_rad_s * t_abs
    inc = math.radians(plane.inclination_deg)
    raan = math.radians(plane.raan_deg)

    cu, su = np.cos(u), np.sin(u)
    # inertial frame: rotate the in-plane circle by inclination, then RAAN
    xi = r * (cu * math.cos(raan) - su * math.cos(inc) * math.sin(raan))
    yi = r * (cu * math.sin(raan) + su * math.cos(inc) * math.cos(raan))
    zi = r * (su * math.sin(inc))

    theta = EARTH_ROT_RAD_S * t_abs
    ct, st = np.cos(theta), np.sin(theta)
    xe = xi * ct + yi * st
    ye = -xi * st + yi * ct

    pos = np.stack([xe, ye, zi], axis=-1)
    return pos[()] if not scalar else pos


def off_nadir_deg(sat_pos: np.ndarray, point_ecef: np.ndarray) -> np.ndarray:
    """Angle between the nadir direction and the line of sight to a ground point."""
    to_point = point_ecef - sat_pos
    nadir = -sat_pos
    num = np.sum(to_point * nadir, axis=-1)
    den = np.linalg.norm(to_point, axis=-1) * np.linalg.norm(nadir, axis=-1)
    cosang = np.clip(num / den, -1.0, 1.0)
    return np.degrees(np.arccos(cosang))


def elevation_deg(sat_pos: np.ndarray, point_ecef: np.ndarray) -> np.ndarray:
    """Elevation of the satellite above the local horizon of one ground point."""
    return _elevation_deg(sat_pos, point_ecef, point_ecef / np.linalg.norm(point_ecef))


def _elevation_deg(sat_pos: np.ndarray, point_ecef: np.ndarray, up: np.ndarray) -> np.ndarray:
    rel = sat_pos - point_ecef
    sinel = np.sum(rel * up, axis=-1) / np.linalg.norm(rel, axis=-1)
    return np.degrees(np.arcsin(np.clip(sinel, -1.0, 1.0)))


def visible(
    sat_pos: np.ndarray,
    point_ecef: np.ndarray,
    up: np.ndarray,
    max_off_nadir_deg: float | np.ndarray,
    min_elevation_deg: float | np.ndarray,
) -> np.ndarray:
    """Within the off-nadir cone and at or above the minimum elevation.

    ``up`` is the point's unit radial vector. Arguments broadcast row-wise, so
    one call scans one point over a time grid or many (time, point) pairs.
    """
    within = off_nadir_deg(sat_pos, point_ecef) <= max_off_nadir_deg
    return within & (_elevation_deg(sat_pos, point_ecef, up) >= min_elevation_deg)


def time_grid(horizon: TimeInterval) -> np.ndarray:
    """Scan grid covering the horizon; last sample pinned to the horizon end."""
    n = int(math.ceil(horizon.duration / SCAN_STEP_S))
    times = horizon.start + SCAN_STEP_S * np.arange(n + 1, dtype=float)
    times[-1] = horizon.end
    return times


def _ground(latlons) -> tuple[np.ndarray, np.ndarray]:
    """ECEF positions and unit up vectors of ground points given as (lat, lon)."""
    ecef = np.array([latlon_to_ecef(lat, lon) for lat, lon in latlons])
    return ecef, np.array([p / np.linalg.norm(p) for p in ecef])


def _max_central_angle(radius_km: float, cone_deg: np.ndarray, min_el_deg: np.ndarray) -> np.ndarray:
    """Largest Earth-central angle (rad) at which each ground point can pass
    ``visible`` from an orbit of radius ``radius_km``."""
    eps = np.radians(min_el_deg)
    eta = np.radians(cone_deg)
    lam = np.arccos(EARTH_RADIUS_KM * np.cos(eps) / radius_km) - eps
    # the cone limit holds on the near side only, which ε ≥ 0 guarantees
    s = radius_km * np.sin(eta) / EARTH_RADIUS_KM
    cone_limits = (cone_deg < 90.0) & (s < 1.0) & (min_el_deg >= 0.0)
    lam_cone = np.arcsin(np.where(cone_limits, s, 0.0)) - eta
    return np.where(cone_limits, np.minimum(lam, lam_cone), lam)


def _scan(pos: np.ndarray, radius_km: float, points: tuple) -> np.ndarray:
    """Visibility of each ground point (rows) from each satellite position
    (columns) on a circular orbit of radius ``radius_km``.

    ``visible`` runs only on the positions whose central angle to the point
    is within the point's λ_max (see the module docstring) plus 1e-6 rad,
    with a further 1e-6 off its cosine; every other entry is False. The
    result equals ``visible`` over every position, bit for bit.
    """
    ecef, up, cone, min_el = points
    shat = pos / np.linalg.norm(pos, axis=1, keepdims=True)
    lam_max = _max_central_angle(radius_km, cone, min_el)
    cos_min = np.cos(np.minimum(lam_max + 1e-6, np.pi)) - 1e-6
    mask = np.zeros((len(ecef), len(pos)), dtype=bool)
    for j in range(len(ecef)):
        cand = np.flatnonzero(shat @ up[j] >= cos_min[j])
        mask[j, cand] = visible(pos[cand], ecef[j], up[j], cone[j], min_el[j])
    return mask


def _satellite_windows(
    plane: OrbitalPlane, slot: int, points: tuple, times: np.ndarray, epoch_offset_s: float
) -> list[list[TimeInterval]]:
    """Visibility windows of one satellite over every ground point.

    ``points`` holds row-aligned arrays: ECEF position, unit up vector, cone
    and minimum elevation. Each point is scanned on ``times``, evaluating
    ``visible`` only on the samples within the point's central-angle bound
    λ_max (``_scan``). Then every rising and falling edge of every point is
    bisected in lockstep until its bracket is at most 1 s wide. A rising edge
    keeps its visible (late) end, a falling edge its visible (early) end; runs
    touching the first or last sample end there.
    """
    ecef, up, cone, min_el = points
    mask = _scan(propagate(plane, slot, times, epoch_offset_s), plane.radius_km, points)
    k, e = np.nonzero(mask[:, 1:] != mask[:, :-1])
    rising = ~mask[k, e]
    lo, hi = times[e], times[e + 1]
    while True:
        live = np.flatnonzero(hi - lo > 1.0)
        if not live.size:
            break
        mid = 0.5 * (lo[live] + hi[live])
        kl = k[live]
        pos = propagate(plane, slot, mid, epoch_offset_s)
        to_hi = visible(pos, ecef[kl], up[kl], cone[kl], min_el[kl]) == rising[live]
        hi[live[to_hi]] = mid[to_hi]
        lo[live[~to_hi]] = mid[~to_hi]
    edge = np.where(rising, hi, lo)

    windows = []
    for j in range(len(ecef)):
        mine = k == j
        starts = ([times[0]] if mask[j, 0] else []) + list(edge[mine & rising])
        ends = list(edge[mine & ~rising]) + ([times[-1]] if mask[j, -1] else [])
        windows.append([TimeInterval(a, b) for a, b in zip(starts, ends) if b > a])
    return windows


def batch_access_windows(
    constellation: Constellation,
    targets: list[Target],
    horizon: TimeInterval,
    epoch_offset_s: float = 0.0,
) -> dict[tuple[int, int], list[TimeInterval]]:
    """Maximal intervals during which each target lies inside each satellite's
    sensor cone and above its horizon."""
    times = time_grid(horizon)
    ecef, up = _ground((t.latitude_deg, t.longitude_deg) for t in targets)
    min_el = np.zeros(len(targets))
    out: dict[tuple[int, int], list[TimeInterval]] = {}
    for sat in constellation.satellites():
        points = (ecef, up, np.full(len(targets), sat.max_off_nadir_deg), min_el)
        plane = constellation.planes[sat.plane_index]
        wins = _satellite_windows(plane, sat.slot, points, times, epoch_offset_s)
        for target, w in zip(targets, wins):
            out[(sat.agent_id, target.target_id)] = w
    return out


def batch_downlink_windows(
    constellation: Constellation,
    stations: list[GroundStation],
    horizon: TimeInterval,
    epoch_offset_s: float = 0.0,
) -> dict[int, list[tuple[TimeInterval, float]]]:
    """Merged, time-sorted station passes per satellite, each with its
    capacity (duration x downlink rate).

    A station antenna is not a sensor cone: its 180° cone admits every
    direction, so only the minimum elevation applies.
    """
    times = time_grid(horizon)
    ecef, up = _ground((s.latitude_deg, s.longitude_deg) for s in stations)
    points = (ecef, up, np.full(len(stations), 180.0), np.array([s.min_elevation_deg for s in stations]))
    out: dict[int, list[tuple[TimeInterval, float]]] = {}
    for sat in constellation.satellites():
        plane = constellation.planes[sat.plane_index]
        wins = _satellite_windows(plane, sat.slot, points, times, epoch_offset_s)
        passes = [
            (w, w.duration * station.downlink_rate_bps)
            for station, ws in zip(stations, wins)
            for w in ws
        ]
        passes.sort(key=lambda wc: (wc[0].start, wc[0].end))
        out[sat.agent_id] = passes
    return out


# Constellations modeled after operational low-Earth-orbit systems. The paper
# sources give plane counts and inclinations; altitudes are our defaults.
def planet_constellation() -> Constellation:
    planes = []
    for i in range(2):
        planes.append(OrbitalPlane(95.0, 475.0, raan_deg=180.0 * i, count=95))
    for i in range(2):
        planes.append(OrbitalPlane(52.0, 475.0, raan_deg=90.0 + 180.0 * i, count=5))
    return Constellation("planet", tuple(planes), max_off_nadir_deg=60.0, memory_bytes=125e9)


def walker_constellation() -> Constellation:
    planes = []
    for i in range(6):
        planes.append(OrbitalPlane(88.0, 500.0, raan_deg=30.0 * i, count=14))
    for i in range(2):
        planes.append(OrbitalPlane(51.6, 500.0, raan_deg=15.0 + 90.0 * i, count=12))
    return Constellation("walker", tuple(planes), max_off_nadir_deg=45.0, memory_bytes=125e9)


DEFAULT_STATIONS = (
    GroundStation("fairbanks", 64.86, -147.85, min_elevation_deg=5.0, downlink_rate_bps=62.5e6),
    GroundStation("guam", 13.62, 144.86, min_elevation_deg=5.0, downlink_rate_bps=62.5e6),
)
