"""Shared brute-force oracles and instance fixtures.

The oracles here re-derive facts from first principles (powerset sweeps,
independence-only definitions) so the library's faster routes are always
checked against an independent computation.
"""

import itertools

import pytest

from matroidkit import (
    ListChromaticResult,
    VectorSpec,
    catalog,
    circuits,
    graphic,
    linear,
    uniform,
)
from matroidkit.coloring import _list_colorings, all_canonical_listings


def powerset(iterable):
    s = list(iterable)
    return itertools.chain.from_iterable(
        itertools.combinations(s, r) for r in range(len(s) + 1)
    )


def brute_circuits(m):
    """Minimal dependent sets straight from the independence definition."""
    dependent = [
        frozenset(c) for c in powerset(range(m.n)) if not m.is_independent(c)
    ]
    return sorted(
        (
            tuple(sorted(d))
            for d in dependent
            if not any(other < d for other in dependent)
        ),
        key=lambda t: (len(t), t),
    )


def brute_list_colorings(m, lists, order):
    """Proper list colorings by a sweep over the product of the lists.

    Elements are taken in `order`, colors in sorted order; an assignment is
    kept when no color class contains a circuit.
    """
    circs = [frozenset(c.members) for c in circuits(m)]
    lists_in_order = [sorted(lists[x]) for x in order]
    out = []
    for colors in itertools.product(*lists_in_order):
        phi = dict(zip(order, colors))
        classes = {}
        for x, c in phi.items():
            classes.setdefault(c, set()).add(x)
        if not any(circ <= cls for circ in circs for cls in classes.values()):
            out.append(phi)
    return out


def brute_list_chromatic(m, kmax):
    """List-chromatic number by a sweep of the full canonical listing space.

    For each k every canonical k-listing, with no cap on the colors
    (``all_canonical_listings(n, k, n * k)``), is tested by the list
    search; the first uncolorable one is the witness for k.
    """
    if m.n == 0:
        return ListChromaticResult(0, kmax, {})
    table = m.mask_table()
    bad = {}
    for k in range(1, kmax + 1):
        witness = next(
            (
                c
                for c in all_canonical_listings(m.n, k, m.n * k)
                if next(_list_colorings(table, range(m.n), c, {}, {}), None) is None
            ),
            None,
        )
        if witness is None:
            return ListChromaticResult(k, kmax, bad)
        bad[k] = {x: witness[x] for x in range(m.n)}
    return ListChromaticResult(None, kmax, bad)


def random_matroid(rng, kind, n):
    """A seeded random uniform, graphic, GF(2) or GF(3) matroid on n elements."""
    if kind == "uniform":
        return uniform(n, rng.randint(0, n))
    if kind == "graphic":
        vertices = [f"v{i}" for i in range(rng.randint(1, n + 1))]
        return graphic([(i, rng.choice(vertices), rng.choice(vertices)) for i in range(n)])
    p = 2 if kind == "gf2" else 3
    dim = rng.randint(1, 3)
    vectors = tuple(tuple(rng.randrange(p) for _ in range(dim)) for _ in range(n))
    return linear(VectorSpec(p, dim, vectors))


def brute_max_independent_size(m, subset):
    """Largest independent subset of `subset`, by full enumeration."""
    best = 0
    for c in powerset(sorted(subset)):
        if m.is_independent(c):
            best = max(best, len(c))
    return best


@pytest.fixture(scope="session")
def suite6():
    return catalog.desk_suite(6)


@pytest.fixture(scope="session")
def suite7():
    return catalog.desk_suite(7)
