import random
from collections import Counter, defaultdict

import pytest

from matroidkit import (
    BUILTIN_FAMILIES,
    BoundExceededError,
    ChainError,
    GroundSetError,
    Matroid,
    MatroidChain,
    chain_from_matroids,
    extend_coloring,
    first_uncolorable_level,
    is_list_colorable,
    is_proper,
    uniform,
)
from matroidkit import compactness
from matroidkit.compactness import disjoint_triangles, growing_cycle, growing_uniform

from conftest import brute_list_colorings, prefix, random_matroid


def two_lists(n, colors=("a", "b")):
    return {x: frozenset(colors) for x in range(n)}


def test_families_are_consistent_chains():
    for name, factory in BUILTIN_FAMILIES.items():
        chain = factory()
        sizes = [chain.level(i).n for i in range(4)]
        assert sizes == sorted(set(sizes)), name  # strictly increasing


def test_family_shapes():
    assert [disjoint_triangles().level(i).n for i in range(3)] == [3, 6, 9]
    assert [growing_cycle().level(i).n for i in range(3)] == [3, 5, 7]
    assert [growing_uniform().level(i).n for i in range(3)] == [3, 4, 5]
    assert growing_uniform(3).level(0).n == 4


def test_extend_coloring_one_triangle():
    chain = disjoint_triangles()
    m0 = chain.level(0)
    every = brute_list_colorings(m0, two_lists(3), range(3))
    assert len(every) == 6  # 2^3 assignments minus the two monochromatic ones
    phi = extend_coloring(chain, two_lists(3), 0)
    assert phi == every[0]
    assert is_proper(m0, phi)


def test_free_chain_with_single_lists_is_colored_by_them():
    chain = MatroidChain("free", lambda i: uniform(i + 1, i + 1))
    for i in range(3):
        lists = {x: frozenset(["z"]) for x in range(i + 1)}
        assert extend_coloring(chain, lists, i) == {x: "z" for x in range(i + 1)}
        assert first_uncolorable_level(chain, lists, i) is None


def test_forced_monochromatic_triangle_is_uncolorable():
    chain = disjoint_triangles()
    lists = {x: frozenset(["a"]) for x in range(3)}
    assert extend_coloring(chain, lists, 0) is None
    assert first_uncolorable_level(chain, lists, 0) == 0


def test_extend_coloring_depth3():
    chain = disjoint_triangles()
    lists = two_lists(chain.level(3).n)
    phi = extend_coloring(chain, lists, 3)
    assert phi is not None and len(phi) == 12
    for i in range(4):
        mi = chain.level(i)
        assert is_proper(mi, {x: phi[x] for x in range(mi.n)})
        # each triangle is bichromatic
    for t in range(4):
        assert len({phi[3 * t], phi[3 * t + 1], phi[3 * t + 2]}) == 2


def test_extend_coloring_depth0():
    chain = disjoint_triangles()
    phi = extend_coloring(chain, two_lists(3), 0)
    assert phi == brute_list_colorings(chain.level(0), two_lists(3), range(3))[0]


def test_extend_coloring_uncolorable_level():
    chain = disjoint_triangles()
    lists = two_lists(chain.level(3).n)
    for x in (6, 7, 8):  # the triangle introduced at level 2
        lists[x] = frozenset(["a"])
    assert extend_coloring(chain, lists, 3) is None
    assert first_uncolorable_level(chain, lists, 3) == 2
    # monotone failure: deeper searches fail too, shallower ones succeed
    assert extend_coloring(chain, lists, 2) is None
    assert extend_coloring(chain, lists, 1) is not None


def test_every_chain_query_refuses_a_negative_depth_before_building_a_level():
    built = []
    chain = MatroidChain("counted", lambda i: built.append(i) or uniform(i + 2, 1))
    queries = [extend_coloring, first_uncolorable_level]
    for query in queries:
        with pytest.raises(GroundSetError, match="^chain levels are indexed from 0$"):
            query(chain, two_lists(2), -1)
    assert built == []


@pytest.mark.parametrize("depth", [True, 1.0, "1"], ids=["True", "1.0", "str"])
def test_every_chain_query_refuses_a_depth_that_is_no_int(depth):
    # True and 1.0 equal 1, but a depth is an int, as an element id is
    built = []
    chain = MatroidChain("counted", lambda i: built.append(i) or uniform(i + 2, 1))
    for query in (extend_coloring, first_uncolorable_level):
        with pytest.raises(GroundSetError, match=rf"^chain depth must be an int, got {depth!r}$"):
            query(chain, two_lists(3), depth)
    assert built == []


def test_every_chain_query_refuses_a_depth_above_the_table_bound_before_building_a_level():
    # level i has at least i elements, so a depth above 16 has a level the
    # mask table refuses
    built = []
    chain = MatroidChain("counted", lambda i: built.append(i) or uniform(i + 2, 1))
    queries = [extend_coloring, first_uncolorable_level]
    for query in queries:
        with pytest.raises(BoundExceededError, match="^chain levels need depth <= 16, got 17$"):
            query(chain, two_lists(2), 17)
    with pytest.raises(BoundExceededError, match="^chain levels need depth <= 16, got 3000$"):
        chain.level(3000)
    assert built == []


def test_each_level_oracle_is_called_once_per_mask():
    # the consistency check builds each level's table, and the queries read
    # those tables: 2^n oracle calls per level, none more
    calls = Counter()

    def level(i):
        n = i + 3
        return Matroid(n, lambda a: calls.update([n]) or min(2, a.bit_count()))

    chain = MatroidChain("counted-uniform", level)
    assert chain.level(3).n == 6
    lists = two_lists(6, ("a", "b", "c"))
    assert extend_coloring(chain, lists, 0) is not None
    assert extend_coloring(chain, lists, 3) is not None
    assert first_uncolorable_level(chain, lists, 3) is None
    assert calls == {n: 1 << n for n in (3, 4, 5, 6)}


def test_first_uncolorable_level_sorts_each_list_once(monkeypatch):
    sorted_ids = []
    real = compactness._sorted_lists
    monkeypatch.setattr(
        compactness, "_sorted_lists", lambda lists, ids: sorted_ids.extend(ids) or real(lists, ids)
    )
    chain = growing_cycle()
    lists = two_lists(chain.level(3).n, ("a", "b", "c"))
    assert first_uncolorable_level(chain, lists, 3) is None
    assert sorted_ids == list(range(chain.level(3).n))


def test_first_uncolorable_level_stops_at_the_first_failing_level():
    # level 0 of growing_uniform(2) is uniform(3, 2): one color cannot cover it
    built = []
    chain = MatroidChain("counted", lambda i: built.append(i) or uniform(3 + i, 2))
    lists = {x: ("a",) for x in range(5)}  # covers level 2
    assert first_uncolorable_level(chain, lists, 2) == 0
    assert built == [0, 1, 2]


def test_first_uncolorable_level_searches_once(monkeypatch):
    # levels of 3, 4, 5 and 6 elements, rank 2: two colors cover 4
    calls = []
    real = compactness._first_list_coloring
    monkeypatch.setattr(
        compactness, "_first_list_coloring", lambda *args: calls.append(1) or real(*args)
    )
    assert first_uncolorable_level(growing_uniform(2), two_lists(6), 3) == 2
    assert len(calls) == 1


@pytest.mark.parametrize(
    "colors, empty, colored, level",
    [
        ("ab", None, 4, 2),  # two colors color exactly level 1's 4 elements
        ("ab", 5, 4, 2),  # an empty list past the failure changes nothing
        ("abc", 4, 4, 2),  # an empty list inside level 2
        ("abc", 5, 5, 3),  # an empty list inside level 3 only
    ],
)
def test_the_first_uncolorable_level_is_the_first_longer_than_the_colored_prefix(
    monkeypatch, colors, empty, colored, level
):
    results = []
    real = compactness._first_list_coloring
    monkeypatch.setattr(
        compactness, "_first_list_coloring", lambda *args: results.append(real(*args)) or results[-1]
    )
    chain = growing_uniform(2)  # levels of 3, 4, 5 and 6 elements, rank 2
    lists = two_lists(6, tuple(colors))
    if empty is not None:
        lists[empty] = frozenset()
    assert first_uncolorable_level(chain, lists, 3) == level
    assert results == [(None, colored)]
    assert chain.level(level - 1).n <= colored < chain.level(level).n


def test_first_uncolorable_level_refuses_the_first_level_it_does_not_cover():
    built = []
    chain = MatroidChain("counted", lambda i: built.append(i) or uniform(3 + i, 2))
    lists = two_lists(4)  # levels 0 and 1 (3 and 4 elements) colorable, level 2 uncovered
    with pytest.raises(GroundSetError, match="^listing does not cover element 4$"):
        first_uncolorable_level(chain, lists, 3)
    assert built == [0, 1, 2, 3]


def test_chain_routes_refuse_an_empty_defaultdict_and_leave_it_empty():
    # the lookup pass would fill every key of growing_cycle's level 1 (5
    # elements); is_list_colorable refuses the same listing as missing them
    for route in (extend_coloring, first_uncolorable_level):
        lists = defaultdict(lambda: ("a", "b"))
        with pytest.raises(GroundSetError, match="^listing does not cover element 0$"):
            route(growing_cycle(), lists, 1)
        assert len(lists) == 0
    lists = defaultdict(lambda: ("a", "b"))
    with pytest.raises(GroundSetError, match=r"^listing must cover the ground set exactly: missing \{0,1,2,3,4\}$"):
        is_list_colorable(growing_cycle().level(1), lists)
    assert len(lists) == 0


@pytest.mark.parametrize(
    "keys, error",
    [
        ((0, True, 2, 4), "element True outside ground set of size 5"),  # gaps at 1 and 3
        ((0, 2, 1.0), "element 1.0 outside ground set of size 5"),
        ((0, 2, 4, 9), "listing does not cover element 1"),
        ((0, 1, 2, 4), "listing does not cover element 3"),
        ((4, 3, 2, 1), "listing does not cover element 0"),
    ],
)
def test_level_lists_name_a_non_int_key_before_the_first_gap(keys, error):
    m = uniform(5, 2)
    lists = {x: ("b", "a") for x in keys}
    with pytest.raises(GroundSetError) as err:
        compactness._level_lists(m, lists)
    assert str(err.value) == error
    with pytest.raises(GroundSetError) as err:
        extend_coloring(chain_from_matroids([m]), lists, 0)
    assert str(err.value) == error


def test_growing_cycle_extension():
    chain = growing_cycle()
    lists = two_lists(chain.level(3).n, ("x", "y"))
    phi = extend_coloring(chain, lists, 3)
    assert phi is not None
    for i in range(4):
        mi = chain.level(i)
        assert is_proper(mi, {x: phi[x] for x in range(mi.n)})


def test_growing_uniform_needs_enough_colors():
    chain = growing_uniform(2)  # rank 2: color classes hold at most 2 elements
    lists5 = {x: frozenset(["a", "b"]) for x in range(chain.level(2).n)}
    assert extend_coloring(chain, lists5, 2) is None  # 5 elements, 2 colors
    assert first_uncolorable_level(chain, lists5, 2) == 2
    lists4 = {x: frozenset(["a", "b"]) for x in range(chain.level(1).n)}
    assert extend_coloring(chain, lists4, 1) is not None


def test_inconsistent_chain_rejected():
    def level(i):
        # level 1 pretends the pair {0, 1} is independent while level 0 puts
        # a cap of 1 on it: not restrictions of one matroid
        return uniform(2, 1) if i == 0 else uniform(3, 3)

    chain = MatroidChain("broken", level)
    with pytest.raises(ChainError) as err:
        chain.level(1)
    assert "{0,1}" in str(err.value)


def test_inconsistency_on_a_small_subset_of_a_large_level_rejected():
    # level 1 is a parallel extension at {1,2}: every subset of the 13
    # elements is checked, not a sample of them
    levels = [
        uniform(13, 3),
        Matroid(14, lambda a: min(3, a.bit_count() - (a & 0b110 == 0b110))),
    ]
    chain = MatroidChain("parallel-pair", lambda i: levels[i])
    with pytest.raises(ChainError) as err:
        chain.level(1)
    assert "{1,2}" in str(err.value)


def test_inconsistency_is_named_at_the_first_subset_by_size():
    # level 1 disagrees at {0,1} (mask 3) and at {2} (mask 4); {2} is the
    # smaller subset, so it is named though its mask comes later
    levels = [uniform(3, 2), Matroid(4, lambda a: min(1, (a & ~0b100).bit_count()))]
    chain = MatroidChain("loop-at-2", lambda i: levels[i])
    with pytest.raises(ChainError, match=r"^level 1 disagrees with level 0 on \{2\}: 0 vs 1$"):
        chain.level(1)


def test_a_top_level_above_the_table_bound_is_refused_by_the_table():
    chain = chain_from_matroids([uniform(16, 2), uniform(17, 2)])
    with pytest.raises(BoundExceededError, match="^mask table needs n <= 16, got 17$"):
        chain.level(1)


def test_consistency_check_refuses_above_level_size_bound():
    chain = MatroidChain("wide", lambda i: uniform(17 + i, 2))
    assert chain.level(0).n == 17
    with pytest.raises(BoundExceededError):
        chain.level(1)


def test_non_growing_chain_rejected():
    chain = MatroidChain("flat", lambda i: uniform(3, 2))
    with pytest.raises(ChainError):
        chain.level(1)


def test_chain_from_matroids():
    chain = chain_from_matroids([uniform(3, 2), uniform(4, 2), uniform(5, 2)])
    assert chain.level(2).n == 5
    phi = extend_coloring(chain, two_lists(5, ("a", "b", "c")), 2)
    assert phi is not None


def _check_against_bruteforce(chain, lists, depth):
    """Chain queries against a product sweep of each level on its own."""
    every = [
        brute_list_colorings(chain.level(i), lists, range(chain.level(i).n))
        for i in range(depth + 1)
    ]
    for i in range(depth + 1):
        assert extend_coloring(chain, lists, i) == (every[i][0] if every[i] else None), (chain.name, i)
    first_empty = next((i for i in range(depth + 1) if not every[i]), None)
    assert first_uncolorable_level(chain, lists, depth) == first_empty
    return first_empty


def _random_lists(rng, n, palette="abcd", sizes=(1, 2, 2, 3)):
    return {x: frozenset(rng.sample(palette, rng.choice(sizes))) for x in range(n)}


def test_chain_search_matches_bruteforce_on_builtin_families():
    # the first coloring of the deepest level, and the first level without
    # one, each against a sweep over the product of that level's lists
    rng = random.Random(29)
    outcomes = set()
    for name, factory in BUILTIN_FAMILIES.items():
        chain = factory()
        for depth in range(3):
            for _ in range(8):
                lists = _random_lists(rng, chain.level(depth).n, "ab", (1, 2))
                outcomes.add(_check_against_bruteforce(chain, lists, depth))
    assert None in outcomes and len(outcomes) > 2  # colorable runs and failures at several levels


def test_chain_search_matches_bruteforce_on_random_prefix_chains():
    # levels are prefix restrictions of one random matroid (n <= 8), so the
    # chain is consistent by construction and may contain loops
    rng = random.Random(31)
    outcomes = set()
    for kind in ("uniform", "graphic", "gf2", "gf3"):
        for _ in range(10):
            top = random_matroid(rng, kind, rng.randint(2, 8))
            sizes = sorted(rng.sample(range(1, top.n + 1), rng.randint(1, min(3, top.n))))
            levels = [prefix(top, k) for k in sizes]
            chain = chain_from_matroids(levels, name=f"{top.name} prefixes")
            depth = len(levels) - 1
            lists = _random_lists(rng, levels[-1].n)
            outcomes.add(_check_against_bruteforce(chain, lists, depth))
    assert None in outcomes and len(outcomes) > 2
