import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matroidkit import (
    BoundExceededError,
    Matroid,
    OrderedBase,
    all_bases,
    closure,
    closure_by_intersection,
    is_closed,
    is_loop_free,
    uniform,
)
from matroidkit.catalog import triangle
from matroidkit.closure import _closed_masks
from matroidkit.core import bits

from conftest import (
    circuit_base_part,
    closed_sets,
    fundamental_circuit_bruteforce,
    powerset,
    random_matroid,
)


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


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(["uniform", "graphic", "gf2", "gf3"]),
    n=st.integers(1, 7),
    seed=st.integers(0, 2**32 - 1),
)
def test_closure_routes_match_definitions_on_random_matroids(kind, n, seed):
    m = random_matroid(random.Random(seed), kind, n)
    closed = []
    for mask in range(1 << m.n):
        x = tuple(bits(mask))
        flat = {y for y in range(m.n) if m.rank(x + (y,)) == m.rank(x)}
        cl = closure(m, x)
        assert cl == closure_by_intersection(m, x) == tuple(sorted(set(x) | flat)), x
        assert is_closed(m, x) == (cl == x), x
        if cl == x:
            closed.append(x)
    assert closed_sets(m) == sorted(closed, key=lambda z: (len(z), z))
    assert [tuple(bits(z)) for z in _closed_masks(m)] == closed_sets(m)
    for b in all_bases(m):
        ob = OrderedBase(b)
        for x in range(m.n):
            if x not in ob:
                want = fundamental_circuit_bruteforce(m, ob, x).members
                assert tuple(sorted([x, *circuit_base_part(m, ob, x)])) == want
