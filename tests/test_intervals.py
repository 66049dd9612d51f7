from hypothesis import given, strategies as st

from cosched.problem import TimeInterval


def ivs():
    return st.tuples(
        st.floats(-1e6, 1e6, allow_nan=False), st.floats(0, 1e6, allow_nan=False)
    ).map(lambda p: TimeInterval(p[0], p[0] + p[1]))


def test_abutting_intervals_do_not_overlap():
    a, b = TimeInterval(0, 63), TimeInterval(63, 126)
    assert not a.overlaps(b)
    assert not b.overlaps(a)


@given(ivs(), ivs())
def test_overlap_is_symmetric(a, b):
    assert a.overlaps(b) == b.overlaps(a)


@given(ivs())
def test_interval_self_relations(a):
    assert a.overlaps(a) == (a.end > a.start)
