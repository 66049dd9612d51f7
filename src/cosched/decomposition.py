"""Geometric neighborhood decomposition.

Splits the constellation into neighborhoods of phase-contiguous satellites
and allocates each request to the n neighborhoods with the best ratio of
supply (member satellites that can actually observe it) to temporal
conflicts (requests already allocated there whose windows overlap). Runs
with zero inter-agent communication: every input is derivable onboard from
the shared scenario definition.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass

from .geometry import SatelliteSpec
from .problem import Request


@dataclass(frozen=True)
class SearchGroup:
    """One synchronized search unit: a neighborhood (or the whole fleet)."""

    agents: tuple[int, ...]
    requests: frozenset[int] = frozenset()


@dataclass
class Allocation:
    neighborhoods: list[SearchGroup]
    unallocatable: set[int]


def partition_agents(
    satellites: list[SatelliteSpec], neighborhood_size: int
) -> list[SearchGroup]:
    """Phase-contiguous groups of the given size within each orbital plane,
    each with no requests yet.

    The last group of a plane may be smaller. "Same neighborhood" is an
    equivalence relation: groups are disjoint and cover every satellite.
    """
    if neighborhood_size < 1:
        raise ValueError("neighborhood size must be >= 1")
    by_plane: dict[int, list[SatelliteSpec]] = {}
    for sat in satellites:
        by_plane.setdefault(sat.plane_index, []).append(sat)
    neighborhoods: list[SearchGroup] = []
    for plane_index in sorted(by_plane):
        members = sorted(by_plane[plane_index], key=lambda s: s.slot)
        for i in range(0, len(members), neighborhood_size):
            chunk = members[i : i + neighborhood_size]
            neighborhoods.append(SearchGroup(tuple(s.agent_id for s in chunk)))
    return neighborhoods


def allocate(
    requests: dict[int, Request],
    neighborhoods: list[SearchGroup],
    candidates: dict[int, set[int]],
    n: int,
) -> Allocation:
    """Assign each request to its top-n neighborhoods by supply/conflict ratio.

    ``candidates[r]`` is the set of agents with at least one candidate task
    for r; a neighborhood's supply is the number of its members in that set.
    Requests are processed in ascending total supply (scarce requests claim
    uncontested neighborhoods first). Only the groups' agents are read; the
    result holds new groups, in the same order, with the requests allocated
    to each. Requests with zero supply everywhere are reported as
    unallocatable rather than dropped. A request's conflicts in a
    neighborhood are the allocated windows overlapping its own; every
    request window must have start < end.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    member_sets = [set(nb.agents) for nb in neighborhoods]
    allocated: list[set[int]] = [set() for _ in neighborhoods]
    # sorted starts and ends of each neighborhood's allocated request windows
    starts: list[list[float]] = [[] for _ in neighborhoods]
    ends: list[list[float]] = [[] for _ in neighborhoods]
    unallocatable: set[int] = set()

    order = sorted(requests, key=lambda rid: (len(candidates.get(rid, ())), rid))
    for rid in order:
        req = requests[rid]
        cand = candidates.get(rid, set())
        scored = []
        for i, members in enumerate(member_sets):
            ns = len(cand & members)
            if ns == 0:
                continue
            # windows that start before req.end, less those that end by req.start
            # (each of which also starts before req.end, as start < end)
            conflicts = bisect_left(starts[i], req.end) - bisect_right(ends[i], req.start)
            scored.append((-ns / (1.0 + conflicts), i))
        if not scored:
            unallocatable.add(rid)
            continue
        scored.sort()
        for _, i in scored[:n]:
            allocated[i].add(rid)
            insort(starts[i], req.start)
            insort(ends[i], req.end)
    groups = [SearchGroup(nb.agents, frozenset(rs)) for nb, rs in zip(neighborhoods, allocated)]
    return Allocation(groups, unallocatable)


def gnd(
    requests: dict[int, Request],
    satellites: list[SatelliteSpec],
    candidates: dict[int, set[int]],
    *,
    n: int,
    neighborhood_size: int,
) -> Allocation:
    """Full decomposition: partition agents, then allocate requests. No
    target position is read: only windows, orbital slots and ``candidates``."""
    neighborhoods = partition_agents(satellites, neighborhood_size)
    return allocate(requests, neighborhoods, candidates, n)
