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

Access windows (targets) and downlink passes (stations) come from one pass
over the constellation and every ground point (``batch_windows``). A ground
point is visible when it lies inside an off-nadir cone and at or above a
minimum elevation; targets use the satellite's sensor cone and the horizon,
stations a 180° cone and their antenna mask, so the targets and stations are
stacked into one set of points, each with its own cone and minimum elevation.
Per satellite, one scan finds the runs of ``SCAN_STEP_S`` grid samples at
which each point is visible. Then the rising and falling edges of every run
of every satellite are bisected together, one lockstep refinement for the
whole constellation (in blocks of satellites beyond ``REFINE_PAIRS``
satellite-point pairs, to bound its memory), until each bracket is at most
1 s wide: each halving computes every live edge's position in one call to
the row-wise form of the propagation formula, which reads each edge's orbit
constants by index from a table of one row per satellite. The scan computes
positions only at the samples it reads: the coarse samples, then each
sample of the gaps near some point once.

Both stages evaluate ``visible`` only where the Earth-central angle λ between
the point and the satellite cannot decide it. With orbit radius r, Earth
radius R, cone η and minimum elevation ε, the elevation limit gives
λ_el = arccos(R cos ε / r) − ε, and, when η < 90°, r sin η / R < 1 and ε ≥ 0,
the cone limit gives λ_cone = arcsin(r sin η / R) − η; λ_max is the smaller
of those that apply, and no point beyond λ_max is visible. For ε ≥ 0 the
converse holds too: visible ⇔ λ ≤ λ_max. A point at or above the horizon
lies on the near side of the Earth, where elevation falls and the off-nadir
angle grows with λ, so each limit is crossed once, at λ_el and λ_cone. When
η ≥ 90° or r sin η / R ≥ 1, the cone holds the whole disk above the horizon
(whose off-nadir angles are at most arcsin(R / r) ≤ η), so only λ_el limits.
Below the horizon (ε < 0) the off-nadir angle falls again as λ grows, the
cone's far-side intersection with the Earth can pass, and λ ≤ λ_max does not
imply ``visible``: those points always go to ``visible``. So a pair is
invisible for certain when λ > λ_max, visible for certain when ε ≥ 0 and
λ < λ_max, and only the band around λ_max is left to ``visible``.

The sub-satellite point moves at most n + ω_E rad/s over the Earth (mean
motion plus Earth rotation), so by the triangle inequality on the sphere λ
changes by at most (n + ω_E) h within h seconds. A coarse pass tests every
``COARSE_STRIDE``-th sample and the last against λ_max + (n + ω_E) h, with h
the largest half gap between coarse samples: each sample lies within h of a
coarse one, so a gap whose ends both fail holds no sample within λ_max. The
samples of the other gaps are tested against λ_max itself. Every bound is
padded by 1e-6 rad and 1e-6 off its cosine, far beyond rounding error, so
the windows are exactly those of ``visible`` on every sample and at every
bisection midpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

EARTH_RADIUS_KM = 6378.137
MU_KM3_S2 = 398600.4418
EARTH_ROT_RAD_S = 7.2921159e-5
SCAN_STEP_S = 10.0  # visibility scan grid spacing before edge refinement
COARSE_STRIDE = 12  # grid samples per gap of the coarse visibility pass
REFINE_PAIRS = 1 << 12  # satellite-point pairs whose window edges are bisected in one lockstep


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
        if not isinstance(self.count, int) or self.count < 1:
            raise ValueError(f"plane must hold a whole number of satellites, at least one, got {self.count!r}")
        if not 0 < self.altitude_km < 1.5e6:  # about the Earth's Hill sphere: no Earth orbit lies beyond
            raise ValueError(f"altitude must lie in (0, 1.5e6) km, got {self.altitude_km}")
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
    planes: tuple[OrbitalPlane, ...]
    max_off_nadir_deg: float
    memory_bytes: float

    def satellites(self) -> list[SatelliteSpec]:
        slots = [(pi, slot) for pi, plane in enumerate(self.planes) for slot in range(plane.count)]
        return [
            SatelliteSpec(aid, pi, slot, self.max_off_nadir_deg, self.memory_bytes)
            for aid, (pi, slot) in enumerate(slots)
        ]


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
        if not -90.0 <= self.latitude_deg <= 90.0:  # NaN too
            raise ValueError(f"latitude outside [-90, 90], got {self.latitude_deg}")
        if not math.isfinite(self.longitude_deg):
            raise ValueError(f"longitude must be finite, got {self.longitude_deg}")


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
    return _positions(np.array([_orbit(plane, slot)]), 0, np.asarray(times, dtype=float) + epoch_offset_s)


def _orbit(plane: OrbitalPlane, slot: int) -> tuple[float, ...]:
    """The constants ``_positions`` reads for satellite ``slot`` of ``plane``:
    radius, slot phase, mean motion, cos and sin of the RAAN, cos and sin of
    the inclination."""
    inc = math.radians(plane.inclination_deg)
    raan = math.radians(plane.raan_deg)
    return (
        plane.radius_km, plane.slot_phase_rad(slot), plane.mean_motion_rad_s,
        math.cos(raan), math.sin(raan), math.cos(inc), math.sin(inc),
    )


def _positions(orbits: np.ndarray, sat, t_abs: np.ndarray) -> np.ndarray:
    """ECEF positions in km at the absolute times ``t_abs`` (horizon time plus
    epoch offset). ``orbits`` holds one row of ``_orbit`` constants per
    satellite; ``sat`` is one row index, for any shape of ``t_abs``, or an
    array of them, one per time. Each constant is read by index where it is
    used, never tiled per time, and the formula is element-wise, so a
    position is the same float either way."""
    r, phase, n, cos_raan, sin_raan, cos_inc, sin_inc = orbits.T
    u = phase[sat] + n[sat] * t_abs
    cu, su = np.cos(u), np.sin(u)
    # inertial frame: rotate the in-plane circle by inclination, then RAAN
    xi = r[sat] * (cu * cos_raan[sat] - su * cos_inc[sat] * sin_raan[sat])
    yi = r[sat] * (cu * sin_raan[sat] + su * cos_inc[sat] * cos_raan[sat])
    zi = r[sat] * (su * sin_inc[sat])

    theta = EARTH_ROT_RAD_S * t_abs
    ct, st = np.cos(theta), np.sin(theta)
    xe = xi * ct + yi * st
    ye = -xi * st + yi * ct

    return np.stack([xe, ye, zi], axis=-1)


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


def time_grid(horizon_s: float) -> np.ndarray:
    """Scan grid covering [0, horizon_s]; last sample pinned to the horizon end."""
    n = int(math.ceil(horizon_s / SCAN_STEP_S))
    times = SCAN_STEP_S * np.arange(n + 1, dtype=float)
    times[-1] = horizon_s
    return times


def _ground(latlons) -> tuple[np.ndarray, np.ndarray]:
    """ECEF positions and unit up vectors of ground points given as (lat, lon)."""
    ecef = np.array([latlon_to_ecef(lat, lon) for lat, lon in latlons]).reshape(-1, 3)
    return ecef, np.array([p / np.linalg.norm(p) for p in ecef]).reshape(-1, 3)


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


def _cos_band(lam_max: np.ndarray, min_el_deg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cos_in, cos_out) per ground point: a point whose cos λ is at least
    ``cos_in`` is ``visible`` for certain, and one whose cos λ is below
    ``cos_out`` is not; only the band between needs ``visible``. Points below
    the horizon (ε < 0) are never visible for certain (module docstring)."""
    cos_out = np.cos(np.minimum(lam_max + 1e-6, np.pi)) - 1e-6
    cos_in = np.where(min_el_deg >= 0.0, np.cos(np.maximum(lam_max - 1e-6, 0.0)) + 1e-6, np.inf)
    return cos_in, cos_out


def _unit(pos: np.ndarray) -> np.ndarray:
    return pos / np.linalg.norm(pos, axis=1, keepdims=True)


def _scan(plane: OrbitalPlane, slot: int, times: np.ndarray, points: tuple, epoch_offset_s: float):
    """Runs of consecutive samples on ``times`` at which each ground point is
    ``visible`` from satellite ``slot`` of ``plane``: the point, first and last
    sample of each run, in (point, first) order, exactly as ``visible`` on
    every sample gives them (the coarse pass is in the module docstring).

    Positions are propagated only at the coarse samples and, once each, at
    the samples of the gaps near some point; ``propagate`` is elementwise, so
    they equal the full grid's rows bit for bit."""
    ecef, up, cone, min_el = points
    n = len(times)
    lam_max = _max_central_angle(plane.radius_km, cone, min_el)
    coarse = np.append(np.arange(0, n - 1, COARSE_STRIDE), n - 1)
    half_gap = 0.5 * np.max(np.diff(times[coarse]), initial=0.0)
    drift = (plane.mean_motion_rad_s + EARTH_ROT_RAD_S) * half_gap
    coarse_min = _cos_band(lam_max + drift, min_el)[1]
    cos_in, cos_out = _cos_band(lam_max, min_el)
    near = _unit(propagate(plane, slot, times[coarse], epoch_offset_s)) @ up.T >= coarse_min
    # gap g holds samples coarse[g] up to, not including, coarse[g + 1]; the last one also n - 1
    j, g = np.nonzero((near[:-1] | near[1:]).T)
    first = coarse[g]
    size = np.append(coarse[1:-1], n)[g] - first
    i = np.arange(size.sum()) + np.repeat(first - (np.cumsum(size) - size), size)
    j = np.repeat(j, size)
    # each sample of a near gap is propagated once; pair k reads row[k] of pos
    take = np.zeros(n, dtype=bool)
    take[i] = True
    row = (np.cumsum(take) - 1)[i]
    pos = propagate(plane, slot, times[take], epoch_offset_s)
    cos_lam = np.einsum("ij,ij->i", _unit(pos)[row], up[j])
    within = cos_lam >= cos_out[j]
    i, j, row, cos_lam = i[within], j[within], row[within], cos_lam[within]
    seen = cos_lam >= cos_in[j]
    band = np.flatnonzero(~seen)
    if band.size:  # rarely: the band around λ_max is a few µrad wide
        jb = j[band]
        seen[band] = visible(pos[row[band]], ecef[jb], up[jb], cone[jb], min_el[jb])
    i, j = i[seen], j[seen]
    new = np.ones(len(i), dtype=bool)
    new[1:] = (j[1:] != j[:-1]) | (i[1:] != i[:-1] + 1)
    heads = np.flatnonzero(new)
    return j[heads], i[heads], np.append(i[heads[1:] - 1], i[-1:])


def _windows(
    constellation: Constellation, points: tuple, times: np.ndarray, epoch_offset_s: float
) -> list[list[list[tuple[float, float]]]]:
    """Visibility windows of every satellite over every ground point, indexed
    [agent][point].

    ``points`` holds row-aligned arrays: ECEF position, unit up vector, cone
    and minimum elevation. Each satellite's runs of visible samples on
    ``times`` come from its own ``_scan``; then every edge of every run of a
    block of satellites is bisected in lockstep until its bracket is at most
    1 s wide, keeping its visible end; runs touching the first or last sample
    end there. A block is the whole constellation up to ``REFINE_PAIRS``
    satellite-point pairs; a larger one is refined ``REFINE_PAIRS // points``
    satellites at a time, which keeps the refinement's arrays near the size
    of one satellite's scan. Each edge is bisected on its own, so the block
    size moves no float. Each point's windows are (start, end) pairs, sorted
    by start and pairwise disjoint: an invisible sample separates consecutive
    runs, and each bisected edge stays within one grid step of its run.
    """
    ecef, up, cone, min_el = points
    planes = constellation.planes
    sats = constellation.satellites()
    # one row of orbit constants per satellite; bands[plane, :, point] is (cos_in, cos_out)
    orbits = np.array([_orbit(planes[s.plane_index], s.slot) for s in sats])
    plane_of = np.array([s.plane_index for s in sats], dtype=np.intp)
    bands = np.array([_cos_band(_max_central_angle(p.radius_km, cone, min_el), min_el) for p in planes])
    windows: list[list[list[tuple[float, float]]]] = []
    block = max(1, REFINE_PAIRS // max(len(ecef), 1))
    for b in range(0, len(sats), block):
        scans = [_scan(planes[s.plane_index], s.slot, times, points, epoch_offset_s) for s in sats[b:b + block]]
        sat = b + np.repeat(np.arange(len(scans)), [len(first) for _, first, _ in scans])
        run_k, first, last = np.hstack([np.array(scan) for scan in scans])
        # each run's rising edge precedes ``first``, its falling edge follows ``last``
        edges = np.flatnonzero(np.stack([first > 0, last < len(times) - 1], axis=1))
        rising, run = edges % 2 == 0, edges // 2
        k, e, edge_sat = run_k[run], np.where(rising, first[run] - 1, last[run]), sat[run]
        edge_plane = plane_of[edge_sat]
        lo, hi = times[e], times[e + 1]
        while True:
            live = np.flatnonzero(hi - lo > 1.0)
            if not live.size:
                break
            mid = 0.5 * (lo[live] + hi[live])
            kl, pl = k[live], edge_plane[live]
            pos = _positions(orbits, edge_sat[live], mid + epoch_offset_s)
            cos_lam = np.einsum("ij,ij->i", _unit(pos), up[kl])
            seen = cos_lam >= bands[pl, 0, kl]
            band = np.flatnonzero(~seen & (cos_lam >= bands[pl, 1, kl]))
            if band.size:
                kb = kl[band]
                seen[band] = visible(pos[band], ecef[kb], up[kb], cone[kb], min_el[kb])
            to_hi = seen == rising[live]
            hi[live[to_hi]] = mid[to_hi]
            lo[live[~to_hi]] = mid[~to_hi]
        bounds = np.tile([times[0], times[-1]], (len(run_k), 1))
        np.put(bounds, edges, np.where(rising, hi, lo))
        block_windows = [[[] for _ in range(len(ecef))] for _ in scans]
        # two flat lists of floats, not a [start, end] list per run: a block's
        # worth of short-lived lists would drive the cyclic collector into
        # extra passes that then fall in later phases
        for s, j, start, end in zip((sat - b).tolist(), run_k.tolist(), *bounds.T.tolist()):
            if end > start:
                block_windows[s][j].append((start, end))
        windows += block_windows
    return windows


def batch_windows(
    constellation: Constellation,
    targets: list[Target],
    stations: list[GroundStation],
    horizon_s: float,
    epoch_offset_s: float = 0.0,
) -> tuple[dict[tuple[int, int], list[tuple[float, float]]], dict[int, list[tuple[float, float, float]]]]:
    """Access windows and downlink passes over [0, horizon_s] seconds, from
    one pass over the constellation and every target and station.

    ``access[(agent, target)]`` holds the maximal (start, end) intervals
    during which the target lies inside the satellite's sensor cone and above
    its horizon. ``passes[agent]`` holds the station passes as (start, end,
    capacity) triples, sorted by start. A satellite downlinks to one station
    at a time, so passes that strictly overlap (two stations in view at
    once, seen from a high orbit) merge into one, whose capacity is its
    duration x the highest downlink rate among its stations; any other
    pass's capacity is its duration x its station's rate. Passes that only
    abut stay apart. A station antenna is not a sensor cone: its 180° cone
    admits every direction, so only the minimum elevation applies.
    """
    times = time_grid(horizon_s)
    ecef, up = _ground(
        [(t.latitude_deg, t.longitude_deg) for t in targets]
        + [(s.latitude_deg, s.longitude_deg) for s in stations]
    )
    n = len(targets)
    cone = np.array([constellation.max_off_nadir_deg] * n + [180.0] * len(stations))
    min_el = np.array([0.0] * n + [s.min_elevation_deg for s in stations])
    access: dict[tuple[int, int], list[tuple[float, float]]] = {}
    passes: dict[int, list[tuple[float, float, float]]] = {}
    windows = _windows(constellation, (ecef, up, cone, min_el), times, epoch_offset_s)
    for sat, wins in zip(constellation.satellites(), windows):
        for target, w in zip(targets, wins):
            access[(sat.agent_id, target.target_id)] = w
        rated = sorted(((a, b, st.downlink_rate_bps) for st, ws in zip(stations, wins[n:]) for a, b in ws),
                       key=lambda p: p[:2])
        merged: list[tuple[float, float, float]] = []
        for a, b, rate in rated:
            if merged and a < merged[-1][1]:
                a0, b0, rate0 = merged[-1]
                merged[-1] = (a0, max(b0, b), max(rate0, rate))
            else:
                merged.append((a, b, rate))
        passes[sat.agent_id] = [(a, b, (b - a) * rate) for a, b, rate in merged]
    return access, passes


def batch_access_windows(
    constellation: Constellation, targets: list[Target], horizon_s: float, epoch_offset_s: float = 0.0
) -> dict[tuple[int, int], list[tuple[float, float]]]:
    """The access windows of ``batch_windows`` over targets alone."""
    return batch_windows(constellation, targets, [], horizon_s, epoch_offset_s)[0]


def batch_downlink_windows(
    constellation: Constellation, stations: list[GroundStation], horizon_s: float, epoch_offset_s: float = 0.0
) -> dict[int, list[tuple[float, float, float]]]:
    """The downlink passes of ``batch_windows`` over stations alone."""
    return batch_windows(constellation, [], stations, horizon_s, epoch_offset_s)[1]


# Constellations modeled after operational low-Earth-orbit systems. The paper
# sources give plane counts and inclinations; altitudes are our defaults.
def planet_constellation() -> Constellation:
    planes = [OrbitalPlane(95.0, 475.0, raan_deg=180.0 * i, count=95) for i in range(2)]
    planes += [OrbitalPlane(52.0, 475.0, raan_deg=90.0 + 180.0 * i, count=5) for i in range(2)]
    return Constellation(tuple(planes), max_off_nadir_deg=60.0, memory_bytes=125e9)


def walker_constellation() -> Constellation:
    planes = [OrbitalPlane(88.0, 500.0, raan_deg=30.0 * i, count=14) for i in range(6)]
    planes += [OrbitalPlane(51.6, 500.0, raan_deg=15.0 + 90.0 * i, count=12) for i in range(2)]
    return Constellation(tuple(planes), max_off_nadir_deg=45.0, memory_bytes=125e9)


DEFAULT_STATIONS = (
    GroundStation("fairbanks", 64.86, -147.85, min_elevation_deg=5.0, downlink_rate_bps=62.5e6),
    GroundStation("guam", 13.62, 144.86, min_elevation_deg=5.0, downlink_rate_bps=62.5e6),
)
