import pytest

from matroidkit import (
    BoundExceededError,
    Matroid,
    closed_sets,
    closure,
    closure_by_intersection,
    is_closed,
    is_loop_free,
    uniform,
)
from matroidkit.catalog import triangle

from conftest import powerset


def test_is_closed_examples():
    m = uniform(4, 2)
    assert is_closed(m, {0})
    assert not is_closed(m, {0, 1})  # rank stays 2 when anything is added
    assert is_closed(m, set())  # loop-free: empty set closed


def test_empty_set_closed_iff_loop_free(suite6):
    for m in suite6:
        assert is_closed(m, set()) == is_loop_free(m), m.name


def test_whole_set_always_closed(suite6):
    for m in suite6:
        assert is_closed(m, set(range(m.n))), m.name


def test_closure_examples():
    m = uniform(4, 2)
    assert closure(m, {0, 1}) == (0, 1, 2, 3)
    assert closure(m, {0}) == (0,)
    assert closure(triangle(), {0}) == (0,)


def test_closure_idempotent_and_contains(suite6):
    for m in suite6:
        for a in powerset(range(m.n)):
            cl = closure(m, a)
            assert set(a) <= set(cl)
            assert closure(m, cl) == cl
            assert is_closed(m, cl), m.name


def test_closure_by_intersection_examples():
    m = uniform(4, 2)
    assert closure_by_intersection(m, {0, 1}) == (0, 1, 2, 3)
    assert closure_by_intersection(triangle(), {0}) == (0,)
    assert closure_by_intersection(m, set(range(4))) == (0, 1, 2, 3)


def test_closure_routes_agree(suite6):
    for m in suite6:
        for a in powerset(range(m.n)):
            assert closure(m, a) == closure_by_intersection(m, a), m.name


def test_closure_by_intersection_bound():
    big = Matroid(13, lambda a: a.bit_count())
    with pytest.raises(BoundExceededError):
        closure_by_intersection(big, set())


def test_closed_sets_ordering():
    assert closed_sets(uniform(3, 2)) == [(), (0,), (1,), (2,), (0, 1, 2)]
    assert closed_sets(uniform(3, 1)) == [(), (0, 1, 2)]
