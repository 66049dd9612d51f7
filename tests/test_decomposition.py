import random

import pytest

from cosched.decomposition import Allocation, SearchGroup, allocate, gnd, partition_agents
from cosched.geometry import SatelliteSpec
from cosched.problem import Request


def sats(per_plane: list[int]) -> list[SatelliteSpec]:
    out = []
    aid = 0
    for pi, n in enumerate(per_plane):
        for slot in range(n):
            out.append(SatelliteSpec(aid, pi, slot, 45.0, 1e11))
            aid += 1
    return out


def test_partition_is_disjoint_cover_of_each_plane():
    agents = sats([95, 95, 5, 5])
    nbs = partition_agents(agents, 10)
    seen: set[int] = set()
    for nb in nbs:
        assert not (set(nb.agents) & seen)
        seen |= set(nb.agents)
    assert seen == {s.agent_id for s in agents}
    # 95 sats in groups of 10 -> nine full groups and one of five
    sizes = sorted(len(nb.agents) for nb in nbs)
    assert sizes == [5, 5, 5, 5, 10] + [10] * 17
    plane_of = {s.agent_id: s.plane_index for s in agents}
    for nb in nbs:
        assert len({plane_of[a] for a in nb.agents}) == 1  # never spans planes


def test_partition_groups_are_phase_contiguous():
    agents = sats([7])
    nbs = partition_agents(agents, 3)
    slots = [[a for a in nb.agents] for nb in nbs]
    assert slots == [[0, 1, 2], [3, 4, 5], [6]]


def test_partition_size_one_is_singletons():
    agents = sats([4])
    nbs = partition_agents(agents, 1)
    assert [nb.agents for nb in nbs] == [(0,), (1,), (2,), (3,)]


def test_partition_rejects_nonpositive_size():
    with pytest.raises(ValueError):
        partition_agents(sats([3]), 0)


def mk_requests(windows):
    return {i: Request(i, i, s, e) for i, (s, e) in enumerate(windows)}


def test_allocation_prefers_higher_supply_neighborhood():
    agents = sats([2, 2])  # nb0 = {0,1}, nb1 = {2,3}
    reqs = mk_requests([(0, 100)])
    candidates = {0: {0, 2, 3}}  # supply 1 in nb0, 2 in nb1
    alloc = gnd(reqs, agents, candidates, n=1, neighborhood_size=2)
    assert alloc.neighborhoods[1].requests == {0}
    assert alloc.neighborhoods[0].requests == set()


def test_scarce_requests_are_allocated_first():
    # request 1 can only go to nb0; placed first, it pushes the overlapping
    # request 0 to nb1. In request-id order both would land in nb0.
    agents = sats([2, 2])  # nb0 = {0,1}, nb1 = {2,3}
    reqs = mk_requests([(0, 100), (50, 150)])
    candidates = {0: {0, 1, 2, 3}, 1: {0}}
    alloc = gnd(reqs, agents, candidates, n=1, neighborhood_size=2)
    assert [nb.requests for nb in alloc.neighborhoods] == [{1}, {0}]


def test_temporal_conflicts_divert_to_empty_neighborhood():
    # both neighborhoods can serve everything; three same-window requests
    # should not all pile onto one neighborhood
    agents = sats([2, 2])
    reqs = mk_requests([(0, 100), (0, 100), (0, 100)])
    candidates = {r: {0, 1, 2, 3} for r in reqs}
    alloc = gnd(reqs, agents, candidates, n=1, neighborhood_size=2)
    per_nb = [len(nb.requests) for nb in alloc.neighborhoods]
    assert sorted(per_nb) == [1, 2]


def test_disjoint_windows_do_not_conflict():
    agents = sats([2, 2])
    reqs = mk_requests([(0, 100), (100, 200), (200, 300)])
    candidates = {r: {0, 1, 2, 3} for r in reqs}
    alloc = gnd(reqs, agents, candidates, n=1, neighborhood_size=2)
    # no overlap anywhere: ties all break to the first neighborhood
    assert alloc.neighborhoods[0].requests == {0, 1, 2}


def test_each_request_lands_in_min_n_positive_supply_neighborhoods():
    agents = sats([2, 2, 2])
    reqs = mk_requests([(0, 50), (60, 120)])
    candidates = {0: {0, 1, 2}, 1: {0}}
    alloc = gnd(reqs, agents, candidates, n=2, neighborhood_size=2)
    homes0 = [i for i, nb in enumerate(alloc.neighborhoods) if 0 in nb.requests]
    homes1 = [i for i, nb in enumerate(alloc.neighborhoods) if 1 in nb.requests]
    assert len(homes0) == 2  # supply in two neighborhoods, n=2
    assert homes1 == [0]  # only one neighborhood has supply
    assert alloc.unallocatable == set()


def test_zero_supply_requests_reported_not_dropped():
    agents = sats([2])
    reqs = mk_requests([(0, 50), (50, 100)])
    candidates = {0: {0}, 1: set()}
    alloc = gnd(reqs, agents, candidates, n=2, neighborhood_size=2)
    assert alloc.unallocatable == {1}
    assert all(1 not in nb.requests for nb in alloc.neighborhoods)


def test_allocation_deterministic():
    agents = sats([4, 4])
    reqs = mk_requests([(i * 30.0, i * 30.0 + 100.0) for i in range(6)])
    candidates = {r: {0, 1, 4, 5} for r in reqs}
    a = gnd(reqs, agents, candidates, n=2, neighborhood_size=2)
    b = gnd(reqs, agents, candidates, n=2, neighborhood_size=2)
    assert [nb.requests for nb in a.neighborhoods] == [nb.requests for nb in b.neighborhoods]


def test_locality_bound_each_request_in_at_most_n_neighborhoods():
    agents = sats([5, 5])
    reqs = mk_requests([(i * 10.0, i * 10.0 + 200.0) for i in range(12)])
    candidates = {r: set(range(10)) for r in reqs}
    for n in (1, 2, 3):
        alloc = gnd(reqs, agents, candidates, n=n, neighborhood_size=3)
        for rid in reqs:
            homes = sum(1 for nb in alloc.neighborhoods if rid in nb.requests)
            assert homes <= n


def linear_allocate(requests, neighborhoods, candidates, n):
    """Reference: ``allocate`` counting each conflict with a scan over every
    request already allocated to the neighborhood."""
    member_sets = [set(nb.agents) for nb in neighborhoods]
    allocated = [{} for _ in neighborhoods]
    unallocatable = set()
    for rid in sorted(requests, key=lambda rid: (len(candidates.get(rid, ())), rid)):
        req = requests[rid]
        cand = candidates.get(rid, set())
        scored = []
        for i, members in enumerate(member_sets):
            ns = len(cand & members)
            if ns == 0:
                continue
            conflicts = sum(1 for s, e in allocated[i].values() if s < req.end and req.start < e)
            scored.append((-ns / (1.0 + conflicts), i))
        if not scored:
            unallocatable.add(rid)
            continue
        scored.sort()
        for _, i in scored[:n]:
            allocated[i][rid] = (req.start, req.end)
    groups = [SearchGroup(nb.agents, frozenset(rs)) for nb, rs in zip(neighborhoods, allocated)]
    return Allocation(groups, unallocatable)


@pytest.mark.parametrize("seed", range(20))
def test_bisected_conflict_count_matches_linear_scan(seed):
    """Windows on a 50 s lattice make equal, nested and abutting windows
    common, where ``s < end`` against ``start < e`` decides a conflict."""
    rng = random.Random(seed)
    agents = sats([rng.randint(1, 7) for _ in range(rng.randint(1, 3))])
    neighborhoods = partition_agents(agents, rng.randint(1, 4))
    ids = [a.agent_id for a in agents]
    requests = {}
    candidates = {}
    for rid in range(rng.randint(1, 60)):
        start = 50.0 * rng.randrange(20)
        requests[rid] = Request(rid, rid % 7, start, start + 50.0 * rng.randint(1, 4))
        candidates[rid] = set(rng.sample(ids, rng.randint(0, min(4, len(ids)))))
    for n in (1, 2, 3):
        assert allocate(requests, neighborhoods, candidates, n) == linear_allocate(
            requests, neighborhoods, candidates, n
        )
