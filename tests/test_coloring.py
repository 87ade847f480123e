import itertools
import random
from collections import Counter, defaultdict
from enum import IntEnum
from types import MappingProxyType

import pytest

from matroidkit import (
    BoundExceededError,
    Matroid,
    GroundSetError,
    ListDeficitError,
    LoopError,
    MatroidError,
    OrderedBase,
    chain_from_matroids,
    chromatic_number,
    circuits,
    closure,
    color_from_base,
    distinct_color_fallback,
    extend_coloring,
    find_monochromatic_circuit,
    first_uncolorable_level,
    graphic,
    greedy_base,
    is_list_colorable,
    is_proper,
    list_chromatic_number,
    ordered_bases,
    uniform,
)
from matroidkit import coloring
from matroidkit.catalog import triangle
from matroidkit.compactness import disjoint_triangles, growing_cycle, growing_uniform
from matroidkit.core import is_loop_free, loops, validate_axioms
from matroidkit.lemmas import (
    check_flat_extension_count,
    check_flat_extension_dependence,
    run_lemma_battery,
)

from conftest import (
    brute_list_colorings,
    chain_coloring_by_levels,
    check_total_by_sets,
    chromatic_by_deepening,
    color_from_base_by_steps,
    distinct_color_fallback_by_steps,
    is_list_colorable_by_recursion,
    is_proper_by_ranks,
    list_chromatic_by_sweep,
    list_colorings_by_recursion,
    perturbed_tables,
    powerset,
    random_matroid,
)


def test_is_proper_examples():
    m = uniform(4, 2)
    assert is_proper(m, {0: "a", 1: "a", 2: "b", 3: "b"})
    assert not is_proper(m, {0: "a", 1: "a", 2: "a", 3: "b"})
    loopy = uniform(3, 0)
    assert not is_proper(loopy, {0: "a", 1: "b", 2: "c"})


def test_is_proper_requires_total():
    with pytest.raises(GroundSetError):
        is_proper(uniform(3, 2), {0: "a"})


@pytest.mark.parametrize("odd_id", [True, 1.0])
def test_properness_routes_refuse_ids_that_only_equal_an_int(odd_id):
    # {True, 0, 2} and {1.0, 0, 2} equal {0, 1, 2} as sets, so the coloring
    # looks total; both routes must still refuse the id, not read it as 1
    phi = {odd_id: "a", 0: "a", 2: "b"}
    for route in (is_proper, find_monochromatic_circuit):
        with pytest.raises(GroundSetError, match=r"^element .* outside ground set of size 3$"):
            route(uniform(3, 1), phi)


@pytest.mark.parametrize("odd_id", [True, 1.0])
@pytest.mark.parametrize(
    "route",
    [
        is_list_colorable,
        lambda m, lists: color_from_base(m, OrderedBase((0,)), lists),
        distinct_color_fallback,
        lambda m, lists: extend_coloring(chain_from_matroids([m]), lists, 0),
    ],
    ids=["is_list_colorable", "color_from_base", "distinct_color_fallback", "extend_coloring"],
)
def test_listing_routes_refuse_ids_that_only_equal_an_int(route, odd_id):
    # the listing {True, 0, 2} covers {0, 1, 2} as a set; each route refuses
    # the id before it reads a rank, rather than return a coloring keyed by 1
    calls = []
    m = Matroid(3, lambda a: calls.append(a) or min(1, a.bit_count()))
    lists = {odd_id: ("a", "b", "c"), 0: ("a", "b", "c"), 2: ("a", "b", "c")}
    with pytest.raises(GroundSetError, match=r"^element .* outside ground set of size 3$"):
        route(m, lists)
    assert calls == []


def test_properness_routes_agree(suite6):
    import itertools

    for m in suite6:
        if m.n == 0 or m.n > 4:
            continue
        for values in itertools.product(range(2), repeat=m.n):
            phi = dict(enumerate(values))
            assert is_proper(m, phi) == (
                find_monochromatic_circuit(m, phi) is None
            ), m.name


def test_chromatic_examples():
    res = chromatic_number(uniform(4, 2))
    assert res.value == 2
    assert is_proper(uniform(4, 2), res.coloring)
    assert chromatic_number(uniform(5, 1)).value == 5
    assert chromatic_number(uniform(3, 3)).value == 1
    assert chromatic_number(triangle()).value == 2
    assert chromatic_number(uniform(0, 0)).value == 0


def _outcome(fn, m):
    try:
        res = fn(m)
    except MatroidError as e:
        return type(e).__name__, str(e)
    return res.value, res.coloring


def test_chromatic_matches_the_deepening_reference(suite7):
    rng = random.Random(5)
    seeded = [random_matroid(rng, kind, n) for kind in ("uniform", "graphic", "gf2", "gf3") for n in range(1, 9)]
    for m in [*suite7, *seeded]:
        assert _outcome(chromatic_number, m) == _outcome(chromatic_by_deepening, m), m.name
    outcomes = set()
    for label, n, table in perturbed_tables(seed=4, per_base=10):
        m = Matroid(n, lambda a, t=table: t[a])
        if loops(m) or validate_axioms(m).ok:
            continue
        got = _outcome(chromatic_number, m)
        assert got == _outcome(chromatic_by_deepening, m), label
        outcomes.add(got[0] if isinstance(got[0], str) else "colored")
    # both a coloring and the no-coloring error are compared
    assert outcomes == {"colored", "MatroidError"}


def test_chromatic_starts_at_n_over_the_largest_independent_set(monkeypatch):
    calls = []
    real = coloring._first_list_coloring
    monkeypatch.setattr(
        coloring, "_first_list_coloring", lambda *args: calls.append(1) or real(*args)
    )
    assert chromatic_number(uniform(12, 2)).value == 6
    assert len(calls) == 1


@pytest.mark.parametrize(
    "search, n, error",
    [
        (chromatic_number, 13, "chromatic search needs n <= 12, got 13"),
        (lambda m: chromatic_number(m, max_n=99999999), 17, "mask table needs n <= 16, got 17"),
        (list_chromatic_number, 13, "chromatic search needs n <= 12, got 13"),
    ],
)
def test_size_refusals_come_before_any_oracle_call(search, n, error):
    # every element is a loop, yet the bound is refused before loops are read
    calls = []
    m = Matroid(n, lambda a: calls.append(a) or 0)
    with pytest.raises(BoundExceededError) as err:
        search(m)
    assert str(err.value) == error
    assert calls == []


def test_chromatic_rejects_loops():
    with pytest.raises(LoopError):
        chromatic_number(uniform(3, 0))


def test_chromatic_minimality(suite6):
    # no proper coloring with one color fewer may exist, and the witness is
    # the lexicographically first proper coloring with k colors
    import itertools

    rng = random.Random(23)
    seeded = [
        random_matroid(rng, kind, n)
        for kind in ("uniform", "graphic", "gf2", "gf3")
        for n in range(1, 8)
        for _ in range(2)
    ]
    for m in [*suite6, *seeded]:
        if not is_loop_free(m) or m.n == 0:
            continue
        result = chromatic_number(m)
        k = result.value
        first = brute_list_colorings(m, {x: range(k) for x in range(m.n)}, range(m.n))[0]
        assert result.coloring == first, m.name
        if k <= 1 or m.n > 4:
            continue
        smaller = k - 1
        found = any(
            is_proper(m, dict(enumerate(values)))
            for values in itertools.product(range(smaller), repeat=m.n)
        )
        assert not found, m.name


def test_is_list_colorable_first_solution():
    m = uniform(4, 2)
    lists = {x: {"a", "b"} for x in range(4)}
    phi = is_list_colorable(m, lists)
    assert phi == {0: "a", 1: "a", 2: "b", 3: "b"}
    assert is_proper(m, phi)


def test_is_list_colorable_forced_failure():
    m = uniform(4, 2)
    assert is_list_colorable(m, {0: {"a"}, 1: {"a"}, 2: {"a"}, 3: {"b"}}) is None


def test_is_list_colorable_singleton():
    assert is_list_colorable(uniform(1, 1), {0: {"c"}}) == {0: "c"}


def test_is_list_colorable_empty_list():
    assert is_list_colorable(uniform(2, 2), {0: set(), 1: {"a"}}) is None


def test_list_searches_match_bruteforce():
    # the one list-coloring search against a sweep over the product of the
    # lists: the first coloring in id order for extend_coloring, the first
    # one in (list size, id) order for is_list_colorable
    rng = random.Random(17)
    checked = colorable = 0
    for kind in ("uniform", "graphic", "gf2", "gf3"):
        for n in range(1, 8):
            for _ in range(3):
                m = random_matroid(rng, kind, n)
                lists = {x: frozenset(rng.sample("abcd", rng.choice((1, 2, 2, 3)))) for x in range(n)}
                if rng.random() < 0.1:
                    lists[rng.randrange(n)] = frozenset()
                every = brute_list_colorings(m, lists, range(n))
                got = extend_coloring(chain_from_matroids([m]), lists, 0)
                assert got == (every[0] if every else None), m.name
                order = sorted(range(n), key=lambda x: (len(lists[x]), x))
                first = brute_list_colorings(m, lists, order)[:1]
                assert is_list_colorable(m, lists) == (first[0] if first else None), m.name
                checked += 1
                colorable += bool(every)
    assert checked == 84 and 0 < colorable < checked


def test_is_list_colorable_above_the_circuit_bound():
    # independence is read from the rank table, so the ceiling is the
    # table's own (16), not the circuit enumeration's (12)
    rng = random.Random(5)
    m = random_matroid(rng, "gf2", 14)
    while not is_loop_free(m):
        m = random_matroid(rng, "gf2", 14)
    k = chromatic_number(m, max_n=14).value
    lists = {x: frozenset(rng.sample("abcdefgh", k)) for x in range(m.n)}
    phi = is_list_colorable(m, lists)
    assert phi is not None and is_proper(m, phi)
    assert all(phi[x] in lists[x] for x in range(m.n))
    big = uniform(17, 9)
    with pytest.raises(BoundExceededError):
        is_list_colorable(big, {x: {"a", "b"} for x in range(big.n)})


def test_list_chromatic_examples():
    assert list_chromatic_number(uniform(4, 2), kmax=3).value == 2
    assert list_chromatic_number(uniform(3, 3), kmax=3).value == 1
    assert list_chromatic_number(uniform(3, 1), kmax=3).value == 3


def test_list_chromatic_kmax_exhausted():
    res = list_chromatic_number(uniform(4, 1), kmax=3)
    assert res.value is None
    assert res.lower_bound == 4
    assert set(res.bad_listings) == {1, 2, 3}


def test_list_chromatic_bad_witnesses_verified():
    m = uniform(4, 2)
    res = list_chromatic_number(m, kmax=3)
    for k, listing in res.bad_listings.items():
        assert all(len(v) == k for v in listing.values())
        assert is_list_colorable(m, {x: set(v) for x, v in listing.items()}) is None


def test_list_chromatic_rejects_loops():
    with pytest.raises(LoopError):
        list_chromatic_number(uniform(3, 0))


def test_list_chromatic_max_n_cannot_pass_the_ceiling():
    with pytest.raises(BoundExceededError, match="mask table needs n <= 16, got 17"):
        list_chromatic_number(uniform(17, 3), max_n=17)


def test_list_chromatic_refuses_kmax_below_one_after_the_size_bound_before_loops():
    loopy = uniform(3, 0)
    with pytest.raises(BoundExceededError, match="^kmax must be at least 1, got 0$"):
        list_chromatic_number(loopy, kmax=0)
    with pytest.raises(BoundExceededError, match="^chromatic search needs n <= 12, got 13$"):
        list_chromatic_number(uniform(13, 0), kmax=0)
    with pytest.raises(LoopError, match=r"^no list coloring exists: loops \{0,1,2\}$"):
        list_chromatic_number(loopy, kmax=1)


# each route that takes a bound, with the name of that bound
_BOUND_ROUTES = {
    "chromatic_number": ("max_n", lambda v: chromatic_number(uniform(4, 2), max_n=v)),
    "circuits": ("max_n", lambda v: circuits(uniform(4, 2), max_n=v)),
    "run_lemma_battery": ("max_n", lambda v: run_lemma_battery(uniform(4, 2), max_n=v)),
    "list_chromatic_number": ("max_n", lambda v: list_chromatic_number(uniform(4, 2), max_n=v)),
    "list_chromatic_number:kmax": ("kmax", lambda v: list_chromatic_number(uniform(4, 2), kmax=v)),
}


@pytest.mark.parametrize("route", sorted(_BOUND_ROUTES))
@pytest.mark.parametrize("bound", ["9", 9.0, 2.5, True, False], ids=repr)
def test_bounds_that_are_no_int_are_refused(route, bound):
    # a bool equals 0 or 1 and a float may equal an int, but neither is
    # read as a bound; None stays max_n's default
    name, run = _BOUND_ROUTES[route]
    with pytest.raises(BoundExceededError) as err:
        run(bound)
    assert str(err.value) == f"{name} must be an int, got {bound!r}"
    if name == "max_n":
        assert run(None) == run(9)


@pytest.mark.parametrize("route", sorted(r for r, (name, _) in _BOUND_ROUTES.items() if name == "max_n"))
@pytest.mark.parametrize("bound", [-1, -3, -(10**30)])
def test_a_negative_max_n_is_refused(route, bound):
    # no ground set is smaller than 0: a negative bound only names a size
    # that no instance meets.  0 stays a bound, and uniform(4, 2) is above it
    _, run = _BOUND_ROUTES[route]
    with pytest.raises(BoundExceededError) as err:
        run(bound)
    assert str(err.value) == f"max_n must be nonnegative, got {bound}"
    if route == "run_lemma_battery":
        assert {r.detail for r in run(0)} == {"skipped (size 4 > 0)"}
    else:
        with pytest.raises(BoundExceededError, match=r"needs n <= 0, got 4$"):
            run(0)


def test_list_chromatic_answers_past_the_old_listing_bounds():
    # kmax has no upper limit: there are at most chi - 1 bad listings
    res = list_chromatic_number(uniform(6, 1), kmax=9)
    assert res.value == 6 and sorted(res.bad_listings) == [1, 2, 3, 4, 5]
    res = list_chromatic_number(uniform(12, 4))
    assert res.value == 3
    assert res.bad_listings == {k: {x: tuple(range(k)) for x in range(12)} for k in (1, 2)}
    assert list_chromatic_number(uniform(14, 7), max_n=14).value == 2


def test_chromatic_at_most_list_chromatic(suite6):
    # against the capped listing sweep, which reads no chromatic number
    for m in suite6:
        if not is_loop_free(m) or m.n > 4:
            continue
        chrom = chromatic_number(m).value
        lres = list_chromatic_by_sweep(m, kmax=4)
        assert lres.lower_bound >= chrom, m.name


def test_seymour_equality_small(suite6):
    # chromatic numbers equal the list-chromatic numbers of the capped sweep
    for m in suite6:
        if not is_loop_free(m) or m.n > 4:
            continue
        chrom = chromatic_number(m).value
        lres = list_chromatic_by_sweep(m, kmax=4)
        assert lres.value == chrom, m.name


def test_color_from_base_examples():
    m = uniform(4, 2)
    lists = {x: {"p", "q", "r"} for x in range(4)}
    phi = color_from_base(m, OrderedBase((0, 1)), lists)
    assert is_proper(m, phi)
    assert len({phi[1], phi[2], phi[3]}) == 3  # the big class is rainbow

    free = uniform(3, 3)
    phi = color_from_base(free, OrderedBase((0, 1, 2)), {x: {f"c{x}"} for x in range(3)})
    assert phi == {0: "c0", 1: "c1", 2: "c2"}

    t = triangle()
    phi = color_from_base(t, OrderedBase((0, 1)), {x: {"a", "b"} for x in range(3)})
    assert is_proper(t, phi)


def test_color_from_base_deficit_error():
    m = uniform(4, 2)
    lists = {0: {"p"}, 1: {"p", "q"}, 2: {"p", "q"}, 3: {"p", "q"}}
    with pytest.raises(ListDeficitError) as err:
        color_from_base(m, OrderedBase((0, 1)), lists)
    assert "short by 1" in str(err.value)


def test_color_from_base_all_ordered_bases(suite6):
    import random

    rng = random.Random(7)
    pool = [f"c{i}" for i in range(10)]
    for m in suite6:
        if not is_loop_free(m) or not 0 < m.n <= 5:
            continue
        for ob in ordered_bases(m):
            from matroidkit import anchor_classes

            d = anchor_classes(m, ob)
            for _ in range(5):
                lists = {}
                for b, members in d.classes.items():
                    for x in members:
                        lists[x] = frozenset(rng.sample(pool, len(members)))
                phi = color_from_base(m, ob, lists)
                assert is_proper(m, phi), m.name
                assert all(phi[x] in lists[x] for x in range(m.n))


def test_color_from_base_refuses_a_list_that_repeats_a_color():
    # the lists of 1 and 2 have three entries for a class of three, but one
    # color; element 2 finds it taken by 1 and is short by two colors
    m = uniform(4, 2)
    lists = {0: ["a", "b"], 1: ["a", "a", "a"], 2: ["a", "a", "a"], 3: ["a", "b", "c"]}
    with pytest.raises(ListDeficitError) as err:
        color_from_base(m, greedy_base(m), lists)
    assert str(err.value) == (
        "class of base element 1 has 3 members but element 2 lists only 1 distinct colors "
        "(short by 2)"
    )


def _result(route, *args):
    """A route's value, or the type and text of what it raised."""
    try:
        return "value", route(*args)
    except Exception as err:
        return type(err), str(err)


def _check_color_from_base(m, b, lists):
    """color_from_base against its step-by-step reference; a repeated color,
    StopIteration in the reference, is a ListDeficitError here."""
    got = _result(color_from_base, m, b, lists)
    want = _result(color_from_base_by_steps, m, b, lists)
    if want[0] is StopIteration:
        assert got[0] is ListDeficitError and " distinct colors " in got[1], (m.name, b, lists)
    else:
        assert got == want, (m.name, b, lists)
    return got[0]


def _no_table(m):
    """m's ranks through a new matroid whose table is never built."""
    return Matroid(m.n, m.rank_of_mask, m.name)


class _Id(IntEnum):
    ONE = 1


@pytest.mark.parametrize(
    "n, keys",
    [
        (3, (0, 1, 2)),
        (3, (2, 0, 1)),
        (3, (0, True, 2)),
        (3, (0, 1.0, 2)),
        (3, (0, _Id.ONE, 2)),
        (3, ("0", 1, 2)),
        (3, (0, -1, 2)),
        (3, (-1, -2, -3)),
        (3, (0, 1, 2, 3)),
        (3, (0, 1, 2, 7, 9)),
        (3, (0, 1)),
        (1, (True,)),
        (0, ()),
        (0, (0,)),
    ],
)
def test_key_sets_match_the_set_reference(n, keys):
    m = uniform(n, min(n, 2))
    b = greedy_base(m)
    mapping = {x: ("a", "b", "c") for x in keys}
    assert _result(coloring._check_total, m, mapping, "listing") == _result(
        check_total_by_sets, m, mapping, "listing"
    )
    phi = {x: i % 2 for i, x in enumerate(keys)}
    for route in (m, _no_table(m)):
        assert _result(is_proper, route, phi) == _result(is_proper_by_ranks, route, phi)
        _check_color_from_base(route, b, mapping)


def _seeded_lists(rng, n, palette):
    """Lists of 1 to 4 colors; one in five a tuple with its first color twice."""
    lists = {}
    for x in range(n):
        colors = rng.sample(palette, rng.randint(1, 4))
        lists[x] = (colors[0], *colors) if rng.random() < 0.2 else frozenset(colors)
    return lists


def test_color_from_base_matches_the_reference_on_every_desk_ordered_base(suite6):
    rng = random.Random(29)
    palette = ["a", "b", "c", "d", "e"]
    seen = Counter()
    for m in suite6:
        for ob in ordered_bases(m):
            for route in (m, _no_table(m)):
                for _ in range(2):
                    seen[_check_color_from_base(route, ob, _seeded_lists(rng, m.n, palette))] += 1
    # colorings, short lists, repeated colors and loops all occur
    assert seen["value"] and seen[ListDeficitError] and seen[LoopError], seen


def test_color_from_base_matches_the_reference_on_perturbed_tables():
    rng = random.Random(290)
    palette = ["a", "b", "c", "d", "e"]
    seen = Counter()
    for _, n, table in perturbed_tables(29, 4):
        cold = Matroid(n, table.__getitem__)
        warm = Matroid(n, table.__getitem__)
        warm.mask_table()
        for route in (cold, warm):
            for ob in itertools.islice(ordered_bases(route), 3):
                seen[_check_color_from_base(route, ob, _seeded_lists(rng, n, palette))] += 1
            phi = {x: rng.randrange(2) for x in range(n)}
            assert _result(is_proper, route, phi) == _result(is_proper_by_ranks, route, phi)
    assert seen["value"] and seen[MatroidError], seen


def test_coloring_keeps_the_oracle_checks_on_faulting_oracles():
    # with no table, every class rank is a rank_of_mask call, so a rank
    # that is not a nonnegative int is refused with the oracle's message
    lists = {x: ("a", "b", "c") for x in range(4)}
    refused = Counter()
    for clean in (uniform(3, 2), uniform(4, 2)):
        bases = list(itertools.islice(ordered_bases(clean), 3))
        for bad, mask in itertools.product((-1, True, 1.5), range(1 << clean.n)):
            table = list(clean.mask_table())
            table[mask] = bad
            m = Matroid(clean.n, table.__getitem__)
            for ob in bases:
                outcome = _check_color_from_base(m, ob, {x: lists[x] for x in range(m.n)})
                refused["color_from_base"] += outcome is MatroidError
            for phi in ({x: x % 2 for x in range(m.n)}, {x: 0 for x in range(m.n)}):
                got = _result(is_proper, m, phi)
                assert got == _result(is_proper_by_ranks, m, phi)
                refused["is_proper"] += got[0] is MatroidError and got[1].startswith("oracle returned")
    assert refused["color_from_base"] and refused["is_proper"], refused


def test_color_from_base_refusals_on_perturbed_uniform_tables():
    # every +-1 change of one entry of uniform(n, k), n = 3..5, under the
    # first ordered bases that the changed table admits
    refused = 0
    for n in (3, 4, 5):
        lists = {x: ("a", "b", "c", "d", "e") for x in range(n)}
        for k in range(1, n + 1):
            base = uniform(n, k).mask_table()
            for mask, delta in itertools.product(range(1 << n), (-1, 1)):
                if base[mask] + delta < 0:
                    continue
                table = list(base)
                table[mask] += delta
                m = Matroid(n, table.__getitem__)
                for ob in itertools.islice(ordered_bases(m), 4):
                    got = _result(color_from_base, m, ob, lists)
                    assert got == _result(color_from_base_by_steps, m, ob, lists)
                    refused += got == (
                        MatroidError, "not a matroid: a class-injective coloring is not proper"
                    )
    assert refused


def _is_forest(edges, mask):
    """Reference independence for a graph: no cycle among the edges in mask."""
    parent = {}

    def root(v):
        while parent.get(v, v) != v:
            v = parent[v]
        return v

    for i in range(len(edges)):
        if mask >> i & 1:
            a, b = root(edges[i][0]), root(edges[i][1])
            if a == b:
                return False
            parent[a] = b
    return True


# a path on 101 vertices with every edge doubled: 200 edges, above VALIDATION_BOUND
_DOUBLED_PATH = [(f"v{i // 2}", f"v{i // 2 + 1}") for i in range(200)]


@pytest.mark.parametrize(
    "m, independent, palette",
    [
        (uniform(20, 3), lambda mask: mask.bit_count() <= 3, 18),
        (uniform(6, 2), lambda mask: mask.bit_count() <= 2, 5),
        (
            graphic([(i, *e) for i, e in enumerate(_DOUBLED_PATH)]),
            lambda mask: _is_forest(_DOUBLED_PATH, mask),
            2,
        ),
    ],
    ids=["uniform(20,3)", "uniform(6,2)", "doubled-path(101)"],
)
def test_coloring_reads_ranks_without_building_the_table(m, independent, palette):
    # above VALIDATION_BOUND, or below it with no table built, properness is
    # read rank by rank and the table stays unbuilt
    assert m._mask_table is None
    rng = random.Random(m.n)
    colors = [f"c{i}" for i in range(palette)]
    phi = color_from_base(m, greedy_base(m), {x: colors for x in range(m.n)})
    assert set(phi) == set(range(m.n))
    fixed = [phi, {x: x % 2 for x in range(m.n)}, {x: x // 2 for x in range(m.n)}]
    answers = Counter()
    for psi in fixed + [{x: rng.randrange(2) for x in range(m.n)} for _ in range(20)]:
        classes = Counter()
        for x, c in psi.items():
            classes[c] |= 1 << x
        proper = is_proper(m, psi)
        assert proper == all(map(independent, classes.values()))
        answers[proper] += 1
    assert is_proper(m, phi) and answers[True] > 1 and answers[False]
    assert m._mask_table is None


def test_distinct_color_fallback():
    m = uniform(4, 2)
    lists = {x: {f"c{i}" for i in range(4)} for x in range(4)}
    phi = distinct_color_fallback(m, lists)
    assert len(set(phi.values())) == 4
    assert is_proper(m, phi)


def _flat_extension_degrees(m, a):
    """Elements outside A that keep A's rank, read through closure, with
    both degree facts: every (|A|+1)-subset of them is dependent, and there
    are at most Chr * |A| of them."""
    flat = tuple(x for x in closure(m, a) if x not in a)
    chrom = chromatic_number(m).value
    dependent = all(
        m.rank(combo) < len(combo) for combo in itertools.combinations(flat, len(a) + 1)
    )
    return flat, chrom, dependent and len(flat) <= chrom * len(a)


def test_degree_bound_examples():
    m = uniform(4, 2)
    assert _flat_extension_degrees(m, {0, 1}) == ((2, 3), 2, True)
    assert _flat_extension_degrees(m, set()) == ((), 2, True)
    flat, chrom, ok = _flat_extension_degrees(uniform(5, 1), {0})
    assert ok and len(flat) == 4 and chrom == 5
    for m in (uniform(4, 2), uniform(5, 1), triangle()):
        assert check_flat_extension_dependence(m).status == "pass", m.name
        assert check_flat_extension_count(m).status == "pass", m.name


def test_degree_bound_all_subsets(suite6):
    # through closure and the rank oracle, apart from L18 and L19-analog,
    # which read both facts off the mask table
    for m in suite6:
        if not is_loop_free(m) or m.n > 5:
            continue
        for a in powerset(range(m.n)):
            assert _flat_extension_degrees(m, a)[2], (m.name, a)


def _typed(phi):
    """phi as (x, type(c), c) triples in insertion order, or None: colors
    are compared with their types, since 1, True and 1.0 are equal keys."""
    return None if phi is None else [(x, type(c), c) for x, c in phi.items()]


def _assert_kernel_is_the_reference(table, order, lists):
    """The kernel's coloring is the reference generator's first, and its
    colored length is the longest prefix of `order` that the reference
    colors; True when there is a coloring."""
    order = tuple(order)
    got, colored = coloring._first_list_coloring(table, order, lists)
    assert _typed(got) == _typed(next(list_colorings_by_recursion(table, order, lists), None))
    first_uncolorable = next(
        (k for k in range(len(order) + 1)
         if next(list_colorings_by_recursion(table, order[:k], lists), None) is None),
        len(order) + 1,
    )
    assert colored == first_uncolorable - 1
    return got is not None


def _random_lists(rng, n, colors="abcd"):
    return {x: tuple(rng.sample(colors, rng.choice((1, 2, 2, 3)))) for x in range(n)}


def test_list_search_returns_the_reference_first_coloring_on_desk_matroids(suite6):
    rng = random.Random(41)
    outcomes = Counter()
    for m in suite6:
        if not is_loop_free(m):
            continue
        table = m.mask_table()
        for k in range(1, m.n + 1):  # chromatic_number's lists
            lists = {x: range(min(x + 1, k)) for x in range(m.n)}
            outcomes[_assert_kernel_is_the_reference(table, range(m.n), lists)] += 1
        order = list(range(m.n))
        rng.shuffle(order)
        outcomes[_assert_kernel_is_the_reference(table, order, _random_lists(rng, m.n))] += 1
    assert outcomes[True] >= 100 and outcomes[False] >= 30


def test_list_search_returns_the_reference_first_coloring_on_random_matroids():
    rng = random.Random(43)
    outcomes = Counter()
    for j in range(60):
        m = random_matroid(rng, ("uniform", "graphic", "gf2", "gf3")[j % 4], rng.randint(1, 8))
        order = list(range(m.n))
        rng.shuffle(order)
        outcomes[_assert_kernel_is_the_reference(m.mask_table(), order, _random_lists(rng, m.n))] += 1
    assert outcomes[True] >= 25 and outcomes[False] >= 25


def test_list_search_returns_the_reference_first_coloring_on_perturbed_tables():
    rng = random.Random(47)
    outcomes = Counter()
    for label, n, table in perturbed_tables(seed=6, per_base=3):
        for k in (2, 3):
            lists = {x: range(min(x + 1, k)) for x in range(n)}
            outcomes[_assert_kernel_is_the_reference(table, range(n), lists)] += 1
        order = list(range(n))
        rng.shuffle(order)
        outcomes[_assert_kernel_is_the_reference(table, order, _random_lists(rng, n))] += 1
    assert outcomes[True] >= 70 and outcomes[False] >= 70


@pytest.mark.parametrize(
    "order, lists, colorable",
    [
        ((), {}, True),  # nothing to color: the empty coloring
        ((0, 1, 2, 3), {0: ("a",), 1: (), 2: ("a", "b"), 3: ("b",)}, False),
        ((0, 2, 3), {0: ("a", "b"), 1: (), 2: ("a", "b"), 3: ("b", "a")}, True),
        ((3, 1, 0, 2), {x: ["b", "a", "b", "a"] for x in range(4)}, True),
        ((2, 0, 3, 1), {x: [1, True, 1.0, "1", 0] for x in range(4)}, True),
        # 2 finds class a full, so the search undoes 1 and then 0 before
        # 0 moves on to b
        ((0, 1, 2, 3), {0: ("a", "b"), 1: ("a",), 2: ("a",), 3: ("b",)}, True),
        # every list nonempty, yet the search runs out of colors at the root
        ((0, 1, 2), {x: ("a",) for x in range(3)}, False),
    ],
    ids=[
        "empty-order",
        "empty-list",
        "empty-list-outside-order",
        "duplicates",
        "mixed-ones",
        "backtracks-to-the-root",
        "exhausted",
    ],
)
def test_list_search_returns_the_reference_first_coloring_on_odd_listings(order, lists, colorable):
    # uniform(4, 2): a class is independent while it has at most 2 elements
    table = uniform(4, 2).mask_table()
    assert _assert_kernel_is_the_reference(table, order, lists) == colorable


SINGLE_TYPE = [("b", "a", "c"), (10, 9, 2, 100), (True, False), (2.5, -1.0, 10.0), ()]
MIXED = [(1, True, 1.0, "1"), ("b", 2, None, "a"), (frozenset(), (), 0)]


class _Reversed(str):
    """A str whose str is its reverse, so sorting by str(c) differs from c."""

    def __str__(self):
        return self[::-1]


@pytest.mark.parametrize(
    "values",
    [
        *SINGLE_TYPE,
        *MIXED,
        (_Reversed("ab"), _Reversed("ba"), _Reversed("ca")),
        (_Reversed("ab"), "ab", _Reversed("ba"), "b"),
    ],
)
def test_sorted_lists_equal_the_color_sort_key_order(values):
    # every element's list, in the same listing as lists of other shapes
    lists = {0: list(values), 1: tuple(reversed(values)), 2: list(values[1:]) + list(values[:1])}
    got = coloring._sorted_lists(lists, range(3))
    assert type(got) is list and len(got) == 3  # one tuple per element, in id order
    for x, lst in lists.items():
        want = tuple(sorted(lst, key=coloring._color_sort_key))
        assert type(got[x]) is tuple
        assert [(type(c), c) for c in got[x]] == [(type(c), c) for c in want], x


# colors that compare equal across types (1, True, 1.0), a str subclass
# that sorts by its reverse, and plain strs; every pool is also drawn
# with empty lists
TYPED_POOLS = {
    "ones": (1, True, 1.0, 0, False, 2, 2.0),
    "reversed": (_Reversed("ab"), _Reversed("ba"), _Reversed("ca"), "ab", "ba", "c"),
    "str": ("a", "b", "c", "d", "e"),
    "mixed": (1, True, 1.0, _Reversed("1a"), "a1", "1"),
}


def _typed_outcome(route, *args):
    """A route's coloring with its colors' types, or the type and text of
    what it raised."""
    try:
        return "value", _typed(route(*args))
    except Exception as err:
        return type(err), str(err)


def _typed_listing(rng, n, pool):
    sizes = (0, 1, 2, 2, 3, 3, len(pool))
    return {x: rng.choice((list, tuple, frozenset))(rng.sample(pool, rng.choice(sizes))) for x in range(n)}


@pytest.mark.parametrize("pool", sorted(TYPED_POOLS))
def test_listing_routes_keep_color_types_and_order(pool):
    # every list-coloring route against its reference in conftest, colors
    # compared with their types: 1, True and 1.0 are one color there
    # but print differently, so a route must return the one it sorted first
    rng = random.Random(30)
    colors = TYPED_POOLS[pool]
    seen = Counter()
    matroids = [uniform(4, 2), uniform(5, 3), triangle(), uniform(3, 1)]
    for m in matroids:
        for _ in range(25):
            lists = _typed_listing(rng, m.n, colors)
            got = _typed_outcome(is_list_colorable, m, lists)
            assert got == _typed_outcome(is_list_colorable_by_recursion, m, lists), lists
            seen["is_list_colorable", got[1] is not None] += 1
            got = _typed_outcome(distinct_color_fallback, m, lists)
            assert got == _typed_outcome(distinct_color_fallback_by_steps, m, lists), lists
            seen["distinct_color_fallback", got[0] == "value"] += 1
            b = rng.choice(list(itertools.islice(ordered_bases(m), 6)))
            got = _typed_outcome(color_from_base, m, b, lists)
            want = _typed_outcome(color_from_base_by_steps, m, b, lists)
            if want[0] is StopIteration:  # a repeated color: see _check_color_from_base
                assert got[0] is ListDeficitError and " distinct colors " in got[1], lists
            else:
                assert got == want, (b, lists)
            seen["color_from_base", got[0] == "value"] += 1
    for family, depth in ((growing_uniform, 2), (growing_cycle, 1), (disjoint_triangles, 1)):
        chain = family()
        for _ in range(25):
            lists = _typed_listing(rng, chain.level(depth).n, colors)
            want = chain_coloring_by_levels(chain, lists, depth)
            got = _typed_outcome(extend_coloring, chain, lists, depth)
            assert got == ("value", _typed(want[0])), lists
            assert first_uncolorable_level(chain, lists, depth) == want[1], lists
            seen["extend_coloring", want[0] is not None] += 1
    for route in ("is_list_colorable", "distinct_color_fallback", "color_from_base",
                  "extend_coloring"):
        assert seen[route, True] and seen[route, False], (route, seen)


@pytest.mark.parametrize(
    "keys, error",
    [
        ((0, 1), "listing must cover the ground set exactly: missing {2}"),
        ((0, 1, 2, 5), "listing must cover the ground set exactly: unknown [5]"),
        ((0, 1, 5), "listing must cover the ground set exactly: missing {2}, unknown [5]"),
        ((0, 1, 3), "listing must cover the ground set exactly: missing {2}, unknown [3]"),
        ((0, -1, 2), "listing must cover the ground set exactly: missing {1}, unknown [-1]"),
        ((), "listing must cover the ground set exactly: missing {0,1,2}"),
        ((0, True, 2), "element True outside ground set of size 3"),
        ((0, 1.0, 2), "element 1.0 outside ground set of size 3"),
    ],
)
def test_check_total_messages(keys, error):
    m = uniform(3, 1)
    with pytest.raises(GroundSetError) as err:
        coloring._check_total(m, {x: ("a",) for x in keys}, "listing")
    assert str(err.value) == error


# each listing route on 4 elements (growing_uniform's level 1 has 4), with
# lists of four colors
_LISTING_ROUTES = {
    "is_list_colorable": lambda lists: is_list_colorable(uniform(4, 2), lists),
    "color_from_base": lambda lists: color_from_base(uniform(4, 2), OrderedBase((0, 1)), lists),
    "distinct_color_fallback": lambda lists: distinct_color_fallback(uniform(4, 2), lists),
    "extend_coloring": lambda lists: extend_coloring(growing_uniform(), lists, 1),
    "first_uncolorable_level": lambda lists: first_uncolorable_level(growing_uniform(), lists, 1),
}


@pytest.mark.parametrize("route", sorted(_LISTING_ROUTES))
def test_listing_routes_refuse_a_defaultdict_as_they_refuse_the_dict_it_holds(route):
    # a lookup in a defaultdict fills the key it misses; every route refuses
    # such a listing with the refusal of a plain dict that misses the same
    # elements, and leaves the mapping holding the keys it held; so too when
    # the filled value is one no list can be read from (int() is 0)
    run = _LISTING_ROUTES[route]
    colors = ("a", "b", "c", "d")
    for factory in (lambda: colors, int):
        for keys in ((), (0, 1, 3), (1, 2, 3), (0, 1, 2)):
            plain = {x: colors for x in keys}
            with pytest.raises(GroundSetError) as want:
                run(dict(plain))
            filling = defaultdict(factory, plain)
            with pytest.raises(GroundSetError) as got:
                run(filling)
            assert str(got.value) == str(want.value), (factory, keys)
            assert dict(filling) == plain
    # one that covers every element is read as the dict it holds
    full = {x: colors for x in range(4)}
    assert run(defaultdict(lambda: colors, full)) == run(full)


@pytest.mark.parametrize("route", sorted(_LISTING_ROUTES) + ["is_proper", "find_monochromatic_circuit"])
def test_listings_and_colorings_that_are_no_mapping_are_refused(route):
    # a sequence is no mapping from element ids: every route refuses it
    # with one GroundSetError, and takes any other Mapping as the dict it holds
    if route in _LISTING_ROUTES:
        run, kind, value = _LISTING_ROUTES[route], "listing", ("a", "b", "c", "d")
    else:
        check = is_proper if route == "is_proper" else find_monochromatic_circuit
        run, kind, value = (lambda phi: check(uniform(4, 2), phi)), "coloring", 0
    for sequence, name in (([value] * 4, "list"), ((value,) * 4, "tuple")):
        with pytest.raises(GroundSetError) as err:
            run(sequence)
        assert str(err.value) == f"{kind} must be a mapping from element ids, got {name}"
    full = {x: value for x in range(4)}
    assert run(MappingProxyType(full)) == run(full)


@pytest.mark.parametrize("route", sorted(_LISTING_ROUTES))
@pytest.mark.parametrize(
    "one_shot",
    [
        lambda colors: iter(colors),
        lambda colors: (c for c in colors),
        lambda colors: map(str, colors),
    ],
    ids=["iter", "generator", "map"],
)
def test_listing_routes_refuse_one_shot_iterator_lists(route, one_shot):
    # the type scan would read a one-shot list up, so every route refuses
    # it, naming the first such element, where the same colors in a list
    # give an answer
    run = _LISTING_ROUTES[route]
    colors = ["a", "b", "c", "d"]
    plain = {x: list(colors) for x in range(4)}
    # a colorable listing: a coloring, or no uncolorable level
    assert (run(plain) is None) == (route == "first_uncolorable_level")
    for spent in (0, 2):
        lists = {x: one_shot(colors) if x >= spent else list(colors) for x in range(4)}
        with pytest.raises(GroundSetError) as err:
            run(lists)
        assert str(err.value) == f"list of element {spent} is a one-shot iterator: its colors can be read only once"
    # an empty list that can be read again is a list with no colors, not refused
    empty = {**plain, 1: []}
    if route == "color_from_base":
        with pytest.raises(ListDeficitError):
            run(empty)
    elif route == "distinct_color_fallback":
        with pytest.raises(GroundSetError, match="exhausted"):
            run(empty)
    elif route == "first_uncolorable_level":
        assert run(empty) == 0
    else:
        assert run(empty) is None
