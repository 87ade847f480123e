"""The canonical-listing sweep: the exhaustive reference for list-chromatic numbers."""

import itertools
import random

from conftest import (
    all_canonical_listings,
    brute_list_chromatic,
    brute_list_colorings,
    first_uncolorable_listing,
    list_chromatic_by_sweep,
    random_matroid,
)
from matroidkit import graphic, list_chromatic_number, uniform
from matroidkit.catalog import theta, triangle
from matroidkit.coloring import _first_list_coloring
from matroidkit.core import is_loop_free


def canonical_listing(lists_seq) -> tuple[tuple[int, ...], ...]:
    """Relabel colors by first occurrence (elements in id order, lists sorted)."""
    relabel: dict = {}
    out = []
    for lst in lists_seq:
        for c in sorted(lst):
            if c not in relabel:
                relabel[c] = len(relabel)
        out.append(tuple(sorted(relabel[c] for c in lst)))
    return tuple(out)


def _listing_colorable(table, listing, n):
    return _first_list_coloring(table, range(n), listing)[0] is not None


def _assert_constant_witnesses(m, res):
    """Every failed k sits below the answer; its witness is {0..k-1} everywhere."""
    for k, listing in res.bad_listings.items():
        assert listing == {x: tuple(range(k)) for x in range(m.n)}, (m.name, k)
        assert brute_list_colorings(m, listing, range(m.n)) == [], (m.name, k)


def test_naive_enumeration_counts():
    # element i picks k colors from those seen plus a fresh run
    assert sum(1 for _ in all_canonical_listings(3, 1, 3)) == 5
    assert sum(1 for _ in all_canonical_listings(3, 2, 6)) == 29
    assert sum(1 for _ in all_canonical_listings(4, 2, 8)) == 321
    assert sum(1 for _ in all_canonical_listings(3, 3, 9)) == 173


def test_naive_enumeration_is_canonical_and_duplicate_free():
    seen = set()
    for listing in all_canonical_listings(4, 2, 8):
        assert canonical_listing(listing) == listing
        assert listing not in seen
        seen.add(listing)


def test_relabeled_listings_fold_back_into_the_enumeration():
    # first-occurrence relabeling maps any listing into the enumerated space
    # (isomorphic listings may land on different representatives, which only
    # costs duplicate checks, never coverage)
    rng = random.Random(3)
    enumerated = set(all_canonical_listings(3, 2, 6))
    for listing in enumerated:
        colors = sorted({c for lst in listing for c in lst})
        perm = colors[:]
        rng.shuffle(perm)
        relabel = dict(zip(colors, perm))
        relabeled = [tuple(relabel[c] for c in lst) for lst in listing]
        assert canonical_listing(relabeled) in enumerated


def test_capped_space_is_the_full_space_filtered_by_color_count():
    for n, k in [(1, 1), (3, 1), (3, 2), (4, 1), (4, 2), (3, 3)]:
        full = list(all_canonical_listings(n, k, n * k))
        for colors in range(n * k + 1):
            capped = list(all_canonical_listings(n, k, colors))
            assert len(capped) == len(set(capped)), (n, k, colors)
            assert set(capped) == {
                lst for lst in full if len(set().union(*lst)) <= colors
            }, (n, k, colors)


def test_capped_space_has_an_uncolorable_listing_iff_the_full_space_does():
    # capping at n - 1 colors may only skip listings when an uncolorable
    # one stays in the capped space
    cases = [
        (uniform(4, 1), 1), (uniform(4, 1), 2),
        (uniform(4, 2), 1), (uniform(4, 2), 2),
        (triangle(), 1), (triangle(), 2),
        (uniform(3, 1), 2), (uniform(4, 3), 2),
    ]
    for m, k in cases:
        table = m.mask_table()
        full_bad = any(
            not _listing_colorable(table, c, m.n)
            for c in all_canonical_listings(m.n, k, m.n * k)
        )
        capped_bad = any(
            not _listing_colorable(table, c, m.n)
            for c in all_canonical_listings(m.n, k, m.n - 1)
        )
        assert capped_bad == full_bad, (m.name, k)


def test_fast_and_naive_list_chromatic_agree(suite6):
    for m in suite6:
        if not is_loop_free(m) or m.n > 4:
            continue
        fast = list_chromatic_number(m, kmax=3)
        slow = brute_list_chromatic(m, kmax=3)
        assert fast.value == slow.value, m.name
        assert set(fast.bad_listings) == set(slow.bad_listings), m.name
        _assert_constant_witnesses(m, fast)


def test_fast_and_naive_agree_on_random_matroids():
    # seeded fuzz beyond the curated catalog: random graphic and linear
    # instances, loop-free, compared verdict-for-verdict
    import random as rnd

    from matroidkit import VectorSpec, linear

    rng = rnd.Random(99)
    instances = []
    for _ in range(30):
        n_edges = rng.randint(1, 4)
        verts = "abcd"
        edges = [
            (i, rng.choice(verts), rng.choice(verts)) for i in range(n_edges)
        ]
        instances.append(graphic(edges))
    for _ in range(20):
        p = rng.choice([2, 3])
        dim = rng.randint(1, 3)
        nvec = rng.randint(1, 4)
        vecs = tuple(
            tuple(rng.randrange(p) for _ in range(dim)) for _ in range(nvec)
        )
        instances.append(linear(VectorSpec(p, dim, vecs)))
    checked = 0
    for m in instances:
        if not is_loop_free(m):
            continue
        fast = list_chromatic_number(m, kmax=3)
        slow = brute_list_chromatic(m, kmax=3)
        assert fast.value == slow.value, m.name
        assert set(fast.bad_listings) == set(slow.bad_listings), m.name
        _assert_constant_witnesses(m, fast)
        checked += 1
    assert checked >= 20


def test_list_chromatic_matches_the_full_sweep_at_six_elements():
    k4 = graphic([(i, u, v) for i, (u, v) in enumerate(itertools.combinations("abcd", 2))])
    for m in [k4, uniform(6, 3)]:
        fast = list_chromatic_number(m, kmax=2, max_n=6)
        slow = brute_list_chromatic(m, kmax=2)
        assert fast.value == slow.value == 2, m.name
        assert set(fast.bad_listings) == set(slow.bad_listings) == {1}, m.name
        _assert_constant_witnesses(m, fast)


def test_random_listings_at_the_answer_are_colorable():
    from matroidkit import is_list_colorable

    rng = random.Random(11)
    for m in [uniform(4, 2), uniform(5, 2), triangle(), theta()]:
        k = list_chromatic_number(m, kmax=4).value
        pool = [f"c{i}" for i in range(2 * k + 3)]
        for _ in range(25):
            lists = {x: frozenset(rng.sample(pool, k)) for x in range(m.n)}
            assert is_list_colorable(m, lists) is not None, (m.name, k)


def _sweep_reference(table, n, k, colors):
    """First uncolorable listing of the reference generator, and its position.

    The position counts the listings tried up to and including the witness,
    or all of them when every listing is colorable.
    """
    tried = 0
    for listing in all_canonical_listings(n, k, colors):
        tried += 1
        if not _listing_colorable(table, listing, n):
            return listing, tried
    return None, tried


def test_prefix_walk_matches_the_reference_sweep_on_random_tables():
    # independence tables that need not be matroids reach witnesses other
    # than the constant listing, so the walk's order is really tested.  The
    # full 3-listing space on 5 elements holds 507,622 listings, so that one
    # (n, k, cap) case runs on the first table of its size only.
    rng = random.Random(13)
    mismatches, nonconstant = [], 0
    for n in range(1, 6):
        for t in range(30):
            dense = rng.random()
            table = [0] + [
                a.bit_count() if rng.random() < dense else rng.randrange(a.bit_count())
                for a in range(1, 1 << n)
            ]
            for k in range(1, 4):
                for colors in sorted({1, k, n - 1, n * k}):
                    if (n, k, colors) == (5, 3, 15) and t:
                        continue
                    want = _sweep_reference(table, n, k, colors)
                    if first_uncolorable_listing(table, n, k, colors) != want:
                        mismatches.append((n, k, colors, table))
                    if want[0] not in (None, tuple(tuple(range(k)) for _ in range(n))):
                        nonconstant += 1
    assert not mismatches, f"{len(mismatches)} cases differ, first {mismatches[0]}"
    assert nonconstant >= 50


def test_counting_bound_route_equals_the_capped_sweep(suite6):
    # Seymour's finite theorem, checked exhaustively: the route that reads
    # the answer off the chromatic number gives the sweep's value and its
    # every bad listing
    rng = random.Random(16)
    instances = [m for m in suite6 if is_loop_free(m)]
    desk = len(instances)
    while len(instances) < desk + 40:
        m = random_matroid(rng, rng.choice(("graphic", "gf2", "gf3")), rng.randint(1, 6))
        if is_loop_free(m):
            instances.append(m)
    above_two = 0
    for m in instances:
        want = list_chromatic_by_sweep(m, kmax=4)
        assert list_chromatic_number(m, kmax=4, max_n=6) == want, m.name
        above_two += want.lower_bound > 2
    assert desk >= 20 and above_two >= 10


def test_candidates_checked_counts_the_reference_sweep_up_to_each_witness():
    # the prefix walk decides exactly the reference generator's listings up
    # to each witness, and the counting-bound route reports those witnesses
    k4 = graphic([(i, u, v) for i, (u, v) in enumerate(itertools.combinations("abcd", 2))])
    for m, kmax, want in [(k4, 2, 2), (uniform(5, 2), 3, 3), (uniform(6, 3), 2, 2)]:
        res = list_chromatic_number(m, kmax=kmax, max_n=6)
        assert res.value == want, m.name
        table = m.mask_table()
        sweeps = [_sweep_reference(table, m.n, k, m.n - 1) for k in range(1, want + 1)]
        walks = [first_uncolorable_listing(table, m.n, k, m.n - 1) for k in range(1, want + 1)]
        witnesses = [tuple(res.bad_listings[k].values()) for k in range(1, want)] + [None]
        assert [w for w, _ in sweeps] == witnesses, m.name
        assert walks == sweeps, m.name
