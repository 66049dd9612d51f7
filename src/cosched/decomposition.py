"""Geometric neighborhood decomposition.

Splits the constellation into neighborhoods of phase-contiguous satellites
and allocates each request to the n neighborhoods with the best ratio of
supply (member satellites that can actually observe it) to temporal
conflicts (requests already allocated there whose windows overlap). Runs
with zero inter-agent communication: every input is derivable onboard from
the shared scenario definition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .geometry import SatelliteSpec, Target
from .problem import Request

TILE_DEG = 10.0  # lat/lon tile edge that picks a request's bias agent


@dataclass
class Neighborhood:
    nid: int
    agents: tuple[int, ...]
    requests: set[int] = field(default_factory=set)
    bias: dict[int, int] = field(default_factory=dict)  # request -> member agent


@dataclass
class Allocation:
    neighborhoods: list[Neighborhood]
    unallocatable: set[int]


def partition_agents(
    satellites: list[SatelliteSpec], neighborhood_size: int
) -> list[Neighborhood]:
    """Phase-contiguous groups of the given size within each orbital plane.

    The last group of a plane may be smaller. "Same neighborhood" is an
    equivalence relation: groups are disjoint and cover every satellite.
    """
    if neighborhood_size < 1:
        raise ValueError("neighborhood size must be >= 1")
    by_plane: dict[int, list[SatelliteSpec]] = {}
    for sat in satellites:
        by_plane.setdefault(sat.plane_index, []).append(sat)
    neighborhoods: list[Neighborhood] = []
    nid = 0
    for plane_index in sorted(by_plane):
        members = sorted(by_plane[plane_index], key=lambda s: s.slot)
        for i in range(0, len(members), neighborhood_size):
            chunk = members[i : i + neighborhood_size]
            neighborhoods.append(
                Neighborhood(nid, tuple(s.agent_id for s in chunk))
            )
            nid += 1
    return neighborhoods


def allocate(
    requests: dict[int, Request],
    targets: dict[int, Target],
    neighborhoods: list[Neighborhood],
    candidates: dict[int, set[int]],
    n: int,
) -> Allocation:
    """Assign each request to its top-n neighborhoods by supply/conflict ratio.

    ``candidates[r]`` is the set of agents with at least one candidate task
    for r; a neighborhood's supply is the number of its members in that set.
    Requests are processed in ascending total supply (scarce requests claim
    uncontested neighborhoods first). Within a neighborhood a request is
    biased to one member agent by hashing its target's ``TILE_DEG`` lat/lon
    tile; the bias is diagnostic and deterministic. Requests with zero supply
    everywhere are reported as unallocatable rather than dropped.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    for nb in neighborhoods:
        nb.requests = set()
        nb.bias = {}
    member_sets = {nb.nid: set(nb.agents) for nb in neighborhoods}
    allocated_intervals: dict[int, list[tuple[float, float]]] = {
        nb.nid: [] for nb in neighborhoods
    }
    by_nid = {nb.nid: nb for nb in neighborhoods}
    unallocatable: set[int] = set()

    order = sorted(requests, key=lambda rid: (len(candidates.get(rid, ())), rid))
    lon_tiles = int(math.ceil(360.0 / TILE_DEG))
    for rid in order:
        req = requests[rid]
        cand = candidates.get(rid, set())
        scored = []
        for nb in neighborhoods:
            ns = len(cand & member_sets[nb.nid])
            if ns == 0:
                continue
            conflicts = sum(
                1
                for (s, e) in allocated_intervals[nb.nid]
                if s < req.end and req.start < e
            )
            scored.append((-ns / (1.0 + conflicts), nb.nid))
        if not scored:
            unallocatable.add(rid)
            continue
        scored.sort()
        for _, nid in scored[:n]:
            nb = by_nid[nid]
            nb.requests.add(rid)
            allocated_intervals[nid].append((req.start, req.end))
            tgt = targets[req.target_id]
            tile = (
                int((tgt.latitude_deg + 90.0) // TILE_DEG) * lon_tiles
                + int((tgt.longitude_deg + 180.0) % 360.0 // TILE_DEG)
            )
            nb.bias[rid] = nb.agents[tile % len(nb.agents)]
    return Allocation(neighborhoods, unallocatable)


def gnd(
    requests: dict[int, Request],
    targets: dict[int, Target],
    satellites: list[SatelliteSpec],
    candidates: dict[int, set[int]],
    *,
    n: int = 2,
    neighborhood_size: int = 10,
) -> Allocation:
    """Full decomposition: partition agents, then allocate requests."""
    neighborhoods = partition_agents(satellites, neighborhood_size)
    return allocate(requests, targets, neighborhoods, candidates, n)
