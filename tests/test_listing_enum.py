"""The canonical-listing machinery behind the exact list-chromatic search."""

import random

from matroidkit import list_chromatic_number, uniform
from matroidkit.catalog import theta, triangle
from matroidkit.coloring import (
    _list_colorings,
    all_canonical_listings,
    canonical_listing,
    hall_violator_listings,
)
from matroidkit.core import is_loop_free


def _listing_colorable(table, listing, n):
    return next(_list_colorings(table, range(n), listing, {}, {}), None) is not None


def test_naive_enumeration_counts():
    # element i picks k colors from those seen plus a fresh run
    assert sum(1 for _ in all_canonical_listings(3, 1)) == 5
    assert sum(1 for _ in all_canonical_listings(3, 2)) == 29
    assert sum(1 for _ in all_canonical_listings(4, 2)) == 321
    assert sum(1 for _ in all_canonical_listings(3, 3)) == 173


def test_naive_enumeration_is_canonical_and_duplicate_free():
    seen = set()
    for listing in all_canonical_listings(4, 2):
        assert canonical_listing(listing) == listing
        assert listing not in seen
        seen.add(listing)


def test_relabeled_listings_fold_back_into_the_enumeration():
    # first-occurrence relabeling maps any listing into the enumerated space
    # (isomorphic listings may land on different representatives, which only
    # costs duplicate checks, never coverage)
    rng = random.Random(3)
    enumerated = set(all_canonical_listings(3, 2))
    for listing in enumerated:
        colors = sorted({c for lst in listing for c in lst})
        perm = colors[:]
        rng.shuffle(perm)
        relabel = dict(zip(colors, perm))
        relabeled = [tuple(relabel[c] for c in lst) for lst in listing]
        assert canonical_listing(relabeled) in enumerated


def test_violators_have_no_distinct_representatives():
    # each candidate must contain j elements whose lists union below j colors
    for n, k in [(4, 1), (4, 2), (5, 2), (5, 3)]:
        import itertools

        for cand in hall_violator_listings(n, k):
            violated = any(
                len(set().union(*(cand[x] for x in js))) < j
                for j in range(k + 1, n + 1)
                for js in itertools.combinations(range(n), j)
            )
            assert violated, cand


def _isomorphic(a, b):
    import itertools

    ca = sorted({c for lst in a for c in lst})
    cb = sorted({c for lst in b for c in lst})
    if len(ca) != len(cb) or [len(l) for l in a] != [len(l) for l in b]:
        return False
    for perm in itertools.permutations(cb):
        relabel = dict(zip(ca, perm))
        if all(
            tuple(sorted(relabel[c] for c in la)) == lb for la, lb in zip(a, b)
        ):
            return True
    return False


def test_violator_candidates_cover_every_uncolorable_listing():
    # the fast route may only skip listings that are colorable outright:
    # every uncolorable listing must be isomorphic to some candidate
    cases = [
        (uniform(4, 1), 1), (uniform(4, 1), 2),
        (uniform(4, 2), 1), (uniform(4, 2), 2),
        (triangle(), 1), (triangle(), 2),
        (uniform(3, 1), 2), (uniform(4, 3), 2),
    ]
    for m, k in cases:
        table = m.mask_table()
        naive_bad = [
            cand
            for cand in all_canonical_listings(m.n, k)
            if not _listing_colorable(table, cand, m.n)
        ]
        candidates = list(hall_violator_listings(m.n, k))
        fast_bad = [c for c in candidates if not _listing_colorable(table, c, m.n)]
        for bad in naive_bad:
            assert any(_isomorphic(bad, c) for c in fast_bad), (m.name, k, bad)
        assert bool(fast_bad) == bool(naive_bad), (m.name, k)


def test_fast_and_naive_list_chromatic_agree(suite6):
    for m in suite6:
        if not is_loop_free(m) or m.n > 4:
            continue
        fast = list_chromatic_number(m, kmax=3)
        slow = list_chromatic_number(m, kmax=3, naive=True)
        assert fast.value == slow.value, m.name
        assert set(fast.bad_listings) == set(slow.bad_listings), m.name


def test_fast_and_naive_agree_on_random_matroids():
    # seeded fuzz beyond the curated catalog: random graphic and linear
    # instances, loop-free, compared verdict-for-verdict
    import random as rnd

    from matroidkit import VectorSpec, graphic, linear

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
        slow = list_chromatic_number(m, kmax=3, naive=True)
        assert fast.value == slow.value, m.name
        assert set(fast.bad_listings) == set(slow.bad_listings), m.name
        checked += 1
    assert checked >= 20


def test_random_listings_at_the_answer_are_colorable():
    from matroidkit import is_list_colorable

    rng = random.Random(11)
    for m in [uniform(4, 2), uniform(5, 2), triangle(), theta()]:
        k = list_chromatic_number(m, kmax=4).value
        pool = [f"c{i}" for i in range(2 * k + 3)]
        for _ in range(25):
            lists = {x: frozenset(rng.sample(pool, k)) for x in range(m.n)}
            assert is_list_colorable(m, lists) is not None, (m.name, k)
