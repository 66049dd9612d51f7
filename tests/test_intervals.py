import pytest
from hypothesis import given, strategies as st

from cosched.intervals import TimeInterval, disjoint_sorted


def ivs():
    return st.tuples(
        st.floats(-1e6, 1e6, allow_nan=False), st.floats(0, 1e6, allow_nan=False)
    ).map(lambda p: TimeInterval(p[0], p[0] + p[1]))


def test_invalid_interval_rejected():
    with pytest.raises(ValueError):
        TimeInterval(5.0, 4.0)


def test_abutting_intervals_do_not_overlap():
    a, b = TimeInterval(0, 63), TimeInterval(63, 126)
    assert not a.overlaps(b)
    assert not b.overlaps(a)
    assert a.intersect(b) is None
    assert disjoint_sorted([a, b])


@given(ivs(), ivs())
def test_overlap_symmetric_and_matches_intersect(a, b):
    assert a.overlaps(b) == b.overlaps(a)
    inter = a.intersect(b)
    if a.overlaps(b):
        assert inter is not None
        assert inter.duration > 0
        assert a.contains(inter) and b.contains(inter)
    else:
        assert inter is None


@given(ivs())
def test_interval_self_relations(a):
    assert a.contains(a)
    if a.duration > 0:
        assert a.overlaps(a)
        assert a.intersect(a) == a
    else:
        assert not a.overlaps(a)


def positive_ivs():
    # disjoint_sorted's adjacent-pair check is specified for positive-length
    # intervals only (every task, window and downlink has positive duration)
    return st.tuples(
        st.floats(-1e6, 1e6, allow_nan=False), st.floats(1e-3, 1e6, allow_nan=False)
    ).map(lambda p: TimeInterval(p[0], p[0] + p[1]))


@given(st.lists(positive_ivs(), max_size=8))
def test_disjoint_sorted_agrees_with_bruteforce(intervals):
    sorted_by_start = sorted(intervals, key=lambda i: (i.start, i.end))
    brute = not any(
        x.overlaps(y)
        for k, x in enumerate(sorted_by_start)
        for y in sorted_by_start[k + 1 :]
    )
    assert disjoint_sorted(sorted_by_start) == brute
