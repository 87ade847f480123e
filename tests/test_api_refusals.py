"""A derandomized fuzz of the library's refusal contract.

Malformed arguments go to every public route that takes them: listings
whose lists cannot be iterated or are one-shot iterators, mappings whose
lookup answers for an id they do not hold, id collections that cannot be
iterated, bases that are no ``OrderedBase``, colors that cannot be
hashed in listings and colorings, and ``OrderedBase`` values that are no
sequence or hold an unhashable member.  Each call must answer or raise a
``MatroidError`` subclass; nothing else may escape.
"""

import random
from collections import Counter, UserDict, defaultdict

import pytest

from matroidkit import (
    GroundSetError,
    MatroidError,
    OrderedBase,
    anchor_classes,
    chain_from_matroids,
    closure,
    closure_by_intersection,
    color_from_base,
    contract,
    contracted_rank_by_minimization,
    distinct_color_fallback,
    extend_coloring,
    find_monochromatic_circuit,
    first_uncolorable_level,
    graphic,
    greedy_base,
    is_base,
    is_closed,
    is_list_colorable,
    is_proper,
    uniform,
)
from matroidkit.compactness import growing_uniform

CASES = 300
COLORS = ("a", "b", "c", 0, 1, True, 2.5)
NOT_ITERABLE = (None, 5, 2.5, True, object())
UNHASHABLE = ([0], {"a": 1}, (0, [1]), {"b"})


class Answering(UserDict):
    """A mapping whose lookup answers for a missing id without storing it."""

    def __missing__(self, key):
        return ["a", "b"]


def _matroids():
    return [
        uniform(4, 2),
        uniform(3, 3),
        graphic([(0, "u", "v"), (1, "v", "w"), (2, "u", "w"), (3, "w", "x")]),
    ]


def _list(rng: random.Random):
    """One element's list: a readable collection, a one-shot iterator, or
    something that cannot be iterated."""
    colors = rng.sample(COLORS, rng.randint(0, 4))
    shape = rng.randrange(6)
    if shape == 0:
        return rng.choice(NOT_ITERABLE)
    if shape == 1:
        return iter(colors)
    if shape == 2:
        return (c for c in colors)
    if shape == 3:
        return frozenset(colors)
    return colors if shape == 4 else tuple(colors)


def _listing(rng: random.Random, n: int):
    """A listing over range(n), some ids dropped or added, held by a plain
    dict or by a mapping whose lookup answers for a missing id."""
    keys = [x for x in range(n + rng.randint(0, 2)) if rng.random() < 0.85]
    held = {x: _list(rng) for x in keys}
    kind = rng.randrange(4)
    if kind == 0:
        return held
    if kind == 1:
        return defaultdict(lambda: ["a", "b"], held)
    if kind == 2:
        return Counter(held)
    return Answering(held)


def _subset(rng: random.Random, n: int):
    if rng.random() < 0.5:
        return rng.choice(NOT_ITERABLE)
    return rng.sample(range(n + 1), rng.randint(0, n))


def _base(rng: random.Random, m):
    elements = tuple(greedy_base(m))
    shape = rng.randrange(4)
    if shape == 0:
        return OrderedBase(elements)
    if shape == 1:
        return elements
    if shape == 2:
        return list(elements)
    return rng.choice(NOT_ITERABLE)


def _calls(rng: random.Random, m):
    """(name, thunk) for every route, each on freshly drawn arguments."""
    n = m.n
    subset = _subset(rng, n)
    listing = _listing(rng, n)
    yield "is_list_colorable", lambda: is_list_colorable(m, listing)
    yield "distinct_color_fallback", lambda: distinct_color_fallback(m, listing)
    yield "color_from_base", lambda: color_from_base(m, _base(rng, m), listing)
    yield "anchor_classes", lambda: anchor_classes(m, _base(rng, m))
    yield "extend_coloring", lambda: extend_coloring(chain_from_matroids([m]), listing, 0)
    yield "first_uncolorable_level", lambda: first_uncolorable_level(
        growing_uniform(), _listing(rng, 5), rng.randint(0, 2)
    )
    yield "rank", lambda: m.rank(subset)
    yield "is_independent", lambda: m.is_independent(subset)
    yield "closure", lambda: closure(m, subset)
    yield "closure_by_intersection", lambda: closure_by_intersection(m, subset)
    yield "is_closed", lambda: is_closed(m, subset)
    yield "contract", lambda: contract(m, subset)
    yield "contracted_rank_by_minimization", lambda: contracted_rank_by_minimization(
        m, subset, _subset(rng, n)
    )
    yield "is_base", lambda: is_base(m, subset)
    yield "greedy_base", lambda: greedy_base(m, _subset(rng, n))


def test_malformed_arguments_raise_only_matroid_errors():
    rng = random.Random(40)
    refused = Counter()
    for _ in range(CASES):
        m = rng.choice(_matroids())
        for name, call in _calls(rng, m):
            try:
                call()
            except MatroidError:
                refused[name] += 1
    # every route met input that it refused
    assert set(refused) == {name for name, _ in _calls(rng, uniform(2, 1))}


def _mixed_list(rng: random.Random):
    """One element's list: hashable colors with, most often, an unhashable one."""
    colors = rng.sample(COLORS, rng.randint(0, 3))
    if rng.random() < 0.7:
        colors.insert(rng.randint(0, len(colors)), rng.choice(UNHASHABLE))
    return colors if rng.random() < 0.5 else tuple(colors)


def _mixed_listing(rng: random.Random, n: int):
    return {x: _mixed_list(rng) for x in range(n)}


def _mixed_coloring(rng: random.Random, n: int):
    """A total coloring whose colors are hashable or, now and then, not."""
    return {x: rng.choice(UNHASHABLE) if rng.random() < 0.3 else rng.choice(COLORS) for x in range(n)}


def _unusable_base(rng: random.Random, m):
    """An ``OrderedBase`` of a base, of a base with an unhashable member, or
    of a value that is no sequence; built when the route is called."""
    elements = list(greedy_base(m))
    shape = rng.randrange(4)
    if shape == 0:
        return OrderedBase(tuple(elements))
    if shape == 1:
        elements.insert(rng.randint(0, len(elements)), rng.choice(UNHASHABLE))
        return OrderedBase(tuple(elements))
    if shape == 2:
        return OrderedBase(x for x in elements)
    return OrderedBase(rng.choice(NOT_ITERABLE))


def _hashing_calls(rng: random.Random, m):
    """(name, thunk) for every listing, coloring and base route."""
    n = m.n
    listing = _mixed_listing(rng, n)
    coloring = _mixed_coloring(rng, n)
    yield "is_list_colorable", lambda: is_list_colorable(m, listing)
    yield "distinct_color_fallback", lambda: distinct_color_fallback(m, listing)
    yield "color_from_base", lambda: color_from_base(m, _unusable_base(rng, m), listing)
    yield "anchor_classes", lambda: anchor_classes(m, _unusable_base(rng, m))
    yield "extend_coloring", lambda: extend_coloring(chain_from_matroids([m]), listing, 0)
    yield "first_uncolorable_level", lambda: first_uncolorable_level(
        growing_uniform(), _mixed_listing(rng, 5), rng.randint(0, 2)
    )
    yield "is_proper", lambda: is_proper(m, coloring)
    yield "find_monochromatic_circuit", lambda: find_monochromatic_circuit(m, coloring)


def test_unhashable_colors_and_unusable_bases_raise_only_matroid_errors():
    rng = random.Random(41)
    refused = Counter()
    for _ in range(CASES):
        m = rng.choice(_matroids())
        for name, call in _hashing_calls(rng, m):
            try:
                call()
            except MatroidError:
                refused[name] += 1
    # every route met input that it refused
    assert set(refused) == {name for name, _ in _hashing_calls(rng, uniform(2, 1))}


_UNHASHABLE_LISTS = {x: [[x]] for x in range(3)}


@pytest.mark.parametrize(
    "call, error",
    [
        (
            lambda m: is_list_colorable(m, _UNHASHABLE_LISTS),
            "list of element 0 holds an unhashable color of type list",
        ),
        (
            lambda m: is_list_colorable(m, {0: ["a", "b"], 1: [2, (0, [1])], 2: [{}]}),
            "list of element 1 holds an unhashable color of type tuple",
        ),
        (
            lambda m: distinct_color_fallback(m, {0: "abc", 1: "abc", 2: ["a", {"b": 1}]}),
            "list of element 2 holds an unhashable color of type dict",
        ),
        (
            lambda m: color_from_base(m, OrderedBase((0, 1)), _UNHASHABLE_LISTS),
            "list of element 0 holds an unhashable color of type list",
        ),
        (
            lambda m: extend_coloring(chain_from_matroids([m]), _UNHASHABLE_LISTS, 0),
            "list of element 0 holds an unhashable color of type list",
        ),
        (lambda m: is_proper(m, {0: "a", 1: ["b"], 2: "c"}), "color of element 1 is unhashable: list"),
        (
            lambda m: find_monochromatic_circuit(m, {0: "a", 1: "b", 2: {}}),
            "color of element 2 is unhashable: dict",
        ),
        (lambda m: OrderedBase(5), "an ordered base must be a sequence of element ids, got int"),
        (
            lambda m: OrderedBase(x for x in (0, 1)),
            "an ordered base must be a sequence of element ids, got generator",
        ),
        (lambda m: OrderedBase((0, [1])), "ordered base member [1] is not an element id"),
    ],
    ids=[
        "is_list_colorable", "is_list_colorable-mixed", "distinct_color_fallback", "color_from_base",
        "extend_coloring", "is_proper", "find_monochromatic_circuit", "OrderedBase-int",
        "OrderedBase-generator", "OrderedBase-member",
    ],
)
def test_unhashable_colors_and_unusable_ordered_bases_are_refused(call, error):
    with pytest.raises(GroundSetError) as err:
        call(uniform(3, 2))
    assert str(err.value) == error


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda m: closure(m, 5), "a subset must be a collection of element ids, got int"),
        (lambda m: contract(m, 5), "a subset must be a collection of element ids, got int"),
        (lambda m: is_base(m, 3), "a subset must be a collection of element ids, got int"),
        (lambda m: is_closed(m, None), "a subset must be a collection of element ids, got NoneType"),
        (lambda m: m.rank(3), "a subset must be a collection of element ids, got int"),
        (lambda m: greedy_base(m, 5), "order must be a permutation of the ground set"),
        (lambda m: anchor_classes(m, (0, 1)), "base must be an OrderedBase, got tuple"),
        (
            lambda m: color_from_base(m, [0, 1], {x: "abc" for x in range(3)}),
            "base must be an OrderedBase, got list",
        ),
    ],
    ids=["closure", "contract", "is_base", "is_closed", "rank", "greedy_base", "anchor_classes", "color_from_base"],
)
def test_unusable_subsets_orders_and_bases_are_refused(call, error):
    with pytest.raises(GroundSetError) as err:
        call(uniform(3, 2))
    assert str(err.value) == error


def test_a_base_refusal_follows_the_cache_test():
    # a cache hit takes no step for the type test; a tuple never hits
    m = uniform(3, 2)
    b = OrderedBase((0, 1))
    assert anchor_classes(m, b) is anchor_classes(m, OrderedBase((0, 1)))
    with pytest.raises(GroundSetError):
        anchor_classes(m, (0, 1))
    assert m._anchor_cache.base == b
