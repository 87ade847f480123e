"""Rank oracles and mask tables of ``linear`` and ``graphic``, against per-mask ranks.

The oracles answer one mask at a time: ``graphic`` by a union-find
forest over the subset's edges, ``linear`` over GF(2) and GF(3) by
reducing its bit-sliced basis rows ANDed with the mask, and over
GF(p), p >= 5, by row-reducing the subset's vectors.
``Matroid.mask_table`` builds the tables by one of two routes.
The count takes a basis of the representation's row space and counts
its row-space vectors by zero set (``core._count_table``); it serves ``graphic``,
GF(2), and GF(3) wherever 3^r <= 2^n, and, for at most 255 points,
hands its ranks over as bytes, which become the table and its rank
image.  Over GF(3) it is swept at every n up to 12 and every rank it
takes.  Everywhere else, over GF(3) where 3^r > 2^n and over every
field GF(p), p >= 5, at every rank, ``linear`` passes no table function,
so the table is filled by its own oracle, one call per mask; GF(5),
GF(7) and GF(11) are swept at every n up to 10.  Oracle and table must
equal the plain definition computed mask by mask: Gaussian elimination
for vectors, covered vertices minus components for graphs.  Neither
route may do other work: the count makes no oracle call, and the
oracle route calls no table function and no count.  Neither route does
anything above the table's ceiling.
"""

import contextlib
import os
import random
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matroidkit
from matroidkit import BoundExceededError, VectorSpec, graphic, linear
from matroidkit import constructions
from matroidkit.constructions import _row_basis
from matroidkit.core import _rank_bytes, _rank_image, bits

from conftest import _gf_rank


@st.composite
def vector_specs(draw):
    """Vectors over GF(2), GF(3), GF(5), GF(7) or GF(2^31 - 1), unreduced,
    with zero and parallel ones."""
    p = draw(st.sampled_from((2, 3, 5, 7, 2**31 - 1)))
    dim = draw(st.integers(1, 5))
    coord = st.integers(-2 * p, 2 * p)
    vectors = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(("fresh", "zero", "parallel")))
        if kind == "zero":
            # multiples of p reduce to the zero vector
            v = tuple(p * draw(st.integers(-2, 2)) for _ in range(dim))
        elif kind == "parallel" and vectors:
            base = draw(st.sampled_from(vectors))
            c = draw(st.integers(1, p - 1))
            v = tuple(c * b + p * draw(st.integers(-1, 1)) for b in base)
        else:
            v = tuple(draw(coord) for _ in range(dim))
        vectors.append(v)
    return VectorSpec(p, dim, tuple(vectors))


@st.composite
def edge_lists(draw):
    """Multigraphs on five vertices, so self-loops and parallel edges are common."""
    vertex = st.sampled_from("abcde")
    n = draw(st.integers(0, 10))
    return [(i, draw(vertex), draw(vertex)) for i in range(n)]


def graph_rank(edges, mask):
    """Covered vertices minus connected components, by merging vertex sets."""
    parts = []
    for e in bits(mask):
        _, u, v = edges[e]
        touching = [s for s in parts if u in s or v in s]
        merged = {u, v}.union(*touching)
        parts = [s for s in parts if s not in touching] + [merged]
    return sum(len(s) for s in parts) - len(parts)


@settings(max_examples=80, deadline=None)
@given(vector_specs())
def test_linear_walked_table_equals_gaussian_elimination(spec):
    n = len(spec.vectors)
    want = [_gf_rank([list(spec.vectors[i]) for i in bits(a)], spec.p) for a in range(1 << n)]
    assert linear(spec).mask_table() == want
    # the oracle row-reduces each subset's vectors, with no table built
    fresh = linear(spec)
    assert [fresh.rank_of_mask(a) for a in range(1 << n)] == want


def test_linear_fold_over_thousands_of_elements_equals_gaussian_elimination():
    # the oracle row-reduces thousands of columns at once; the even
    # elements span only a 5-dimensional subspace, so an elimination
    # that keeps a dependent row shows
    rng = random.Random(3)
    span = [[rng.randrange(3) for _ in range(12)] for _ in range(5)]

    def in_span():
        cs = [rng.randrange(3) for _ in span]
        return [sum(c * row[j] for c, row in zip(cs, span)) for j in range(12)]

    vectors = [in_span() if i % 2 == 0 else [rng.randrange(3) for _ in range(12)]
               for i in range(2000)]
    m = linear(VectorSpec(3, 12, tuple(map(tuple, vectors))))
    everything = (1 << 2000) - 1
    even = sum(1 << i for i in range(0, 2000, 2))
    want = {mask: _gf_rank([vectors[i] for i in bits(mask)], 3) for mask in (everything, even)}
    assert want == {everything: 12, even: 5}
    assert {mask: m.rank_of_mask(mask) for mask in want} == want


@pytest.mark.parametrize("p", (2, 3, 7))
def test_row_basis_equals_gaussian_elimination_on_random_subsets(p):
    # the elimination stops once every column holds a pivot, as with 2
    # vectors at dimension 40; what it returns must still be a basis of
    # the whole row space
    rng = random.Random(p)
    for dim, n in ((40, 2), (40, 6), (3, 8), (5, 5), (12, 30)):
        vecs = [tuple(rng.randrange(p) if rng.random() < 0.7 else 0 for _ in range(dim)) for _ in range(n)]
        for _ in range(40):
            subset = [v for v in vecs if rng.random() < 0.5] or vecs[:1]
            rows = _row_basis(p, subset, dim)
            matrix = [[v[j] for v in subset] for j in range(dim)]
            rank = _gf_rank(matrix, p)
            assert len(rows) == rank
            assert all(row[next(j for j, a in enumerate(row) if a)] == 1 for row in rows)
            assert _gf_rank(matrix + rows, p) == rank  # the rows lie in the row space
        m = linear(VectorSpec(p, dim, tuple(vecs)))
        assert [m.rank_of_mask(a) for a in range(1 << min(n, 8))] == [
            _gf_rank([list(vecs[i]) for i in bits(a)], p) for a in range(1 << min(n, 8))
        ]


def test_linear_fold_deeper_than_the_recursion_limit():
    # the oracle keeps as many rows as the rank; reducing by them must
    # not recurse once per row
    n = 1100
    vectors = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    assert linear(VectorSpec(2, n, vectors)).rank_of_mask((1 << n) - 1) == n


@settings(max_examples=80, deadline=None)
@given(edge_lists())
def test_graphic_walked_table_equals_component_count(edges):
    n = len(edges)
    want = [graph_rank(edges, a) for a in range(1 << n)]
    assert graphic(edges).mask_table() == want
    fresh = graphic(edges)
    assert [fresh.rank_of_mask(a) for a in range(1 << n)] == want


@contextlib.contextmanager
def _counting():
    """Count the calls made inside the block to each function of matroidkit, by name.

    The oracles of ``linear`` and ``graphic`` are named ``rank`` and
    their table builders ``table``.
    """
    package = os.path.dirname(matroidkit.__file__)
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(package):
            calls[frame.f_code.co_name] += 1

    sys.setprofile(profile)
    try:
        yield calls
    finally:
        sys.setprofile(None)


def _gf(p, dim, n, seed=0):
    rng = random.Random(seed)
    return linear(VectorSpec(p, dim, tuple(tuple(rng.randrange(p) for _ in range(dim)) for _ in range(n))))


def _gf3(n, seed=0):
    return _gf(3, 4, n, seed)


# tables that no count serves, so the oracle fills them
ORACLE_FILLED = {
    # 7^4 = 2401 > 2^10
    "linear": _gf(7, 4, 10),
    # zero (2) and parallel (0, 1) vectors; 5^2 = 25 > 2^4
    "linear parallel and zero": linear(VectorSpec(5, 2, ((1, 2), (2, 4), (0, 5), (3, 2)))),
    "linear GF(2^31-1)": linear(
        VectorSpec(2**31 - 1, 3, ((1, 2, 3), (0, 0, 0), (2, 4, 6), (5, 0, 1), (0, 7, 2), (1, 1, 1)))
    ),
    "linear n=1": _gf3(1, seed=1),
}

COUNTED = {
    "linear": _gf3(10),
    "linear GF(2)": _gf(2, 5, 10),
    # a self-loop (2) and parallel edges (0, 1) among ten edges
    "graphic": graphic(
        [(0, "a", "b"), (1, "b", "a"), (2, "c", "c"), (3, "b", "c"), (4, "c", "d"),
         (5, "d", "a"), (6, "d", "e"), (7, "e", "f"), (8, "f", "a"), (9, "e", "b")]
    ),
    "linear n=0": linear(VectorSpec(3, 2, ())),
    "linear n=1 zero": linear(VectorSpec(3, 2, ((0, 3),))),
    "graphic n=0": graphic([]),
    "graphic n=1": graphic([(0, "a", "b")]),
    "graphic n=1 self-loop": graphic([(0, "a", "a")]),
}


def _assert_route(calls, route, n):
    """The count: one ``_count_table`` call and no oracle call.  The
    oracle: one ``rank`` call per mask, and no table function or count."""
    if route == "count":
        assert calls["_count_table"] == 1 and not calls["rank"]
    else:
        assert calls["rank"] == 1 << n and not calls["table"] and not calls["_count_table"]


@pytest.mark.parametrize("kind", sorted(ORACLE_FILLED))
def test_table_oracle_calls_rank_once_per_mask(kind):
    m = ORACLE_FILLED[kind]
    with _counting() as calls:
        table = m.mask_table()
    _assert_route(calls, "oracle", m.n)
    assert table == [m._oracle(a) for a in range(1 << m.n)]


@pytest.mark.parametrize("kind", sorted(COUNTED))
def test_table_count_makes_no_oracle_or_step_call(kind):
    m = COUNTED[kind]
    with _counting() as calls:
        table = m.mask_table()
    _assert_route(calls, "count", m.n)
    assert table == [m._oracle(a) for a in range(1 << m.n)]


def _refused_calls(m):
    with _counting() as calls:
        with pytest.raises(BoundExceededError, match=r"^mask table needs n <= 16, got 17$"):
            m.mask_table()
    return calls


@pytest.mark.parametrize(
    "m", [_gf(2**31 - 1, 2, 17), _gf(3, 12, 17)], ids=["GF(2^31-1)", "GF(3) rank 12"]
)
def test_table_oracle_refuses_17_elements_before_any_call(m):
    # 3^12 > 2^17, so no count serves either table
    assert _refused_calls(m) == Counter(mask_table=1, _refuse_above=1)


@pytest.mark.parametrize(
    "m",
    [_gf(2, 5, 17), _gf3(17), graphic([(i, str(i), str(i + 1)) for i in range(17)])],
    ids=["GF(2)", "GF(3)", "graphic"],
)
def test_table_count_refuses_17_elements_before_any_row_reduction(m):
    assert _refused_calls(m) == Counter(mask_table=1, _refuse_above=1)


def _vectors(p, dim, n, seed=0):
    rng = random.Random(seed)
    return tuple(tuple(rng.randrange(p) for _ in range(dim)) for _ in range(n))


def _gf_table(p, vectors):
    return [_gf_rank([list(vectors[i]) for i in bits(a)], p) for a in range(1 << len(vectors))]


def _graph_table(edges):
    return [graph_rank(edges, a) for a in range(1 << len(edges))]


def _random_graph(vertices, n, seed):
    rng = random.Random(seed)
    return [(i, str(rng.randrange(vertices)), str(rng.randrange(vertices))) for i in range(n)]


# far above the table's ceiling, so only the oracle answers; the path's
# edge i joins the vertices n - 1 - i and n - i, so a subset's edges are
# met from the path's far end, and every edge of the star and the path
# merges two trees
LARGE_GRAPHS = {
    **{f"multigraph seed {seed}": _random_graph(40, 120, seed) for seed in range(3)},
    "star": [(i, "hub", f"v{i}") for i in range(300)],
    "descending path": [(i, f"v{300 - 1 - i}", f"v{300 - i}") for i in range(300)],
}


@pytest.mark.parametrize("kind", sorted(LARGE_GRAPHS))
def test_graphic_union_find_equals_component_count_on_large_graphs(kind):
    edges = LARGE_GRAPHS[kind]
    n = len(edges)
    rng = random.Random(n)
    # the full mask, dense masks, and sparse ones that leave many trees
    masks = [(1 << n) - 1] + [rng.getrandbits(n) for _ in range(25)]
    masks += [rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n) for _ in range(25)]
    want = [graph_rank(edges, a) for a in masks]
    if not kind.startswith("multigraph"):
        assert want == [a.bit_count() for a in masks]
    m = graphic(edges)
    with _counting() as calls:
        assert [m.rank_of_mask(a) for a in masks] == want
    assert calls["rank"] == len(masks) and not calls["table"]


# (p, dim, n, rank, route): the route is the count iff p <= 3 and
# p^rank <= 2^n, else the oracle; a count of more than 255 points,
# (p^rank - 1) / (p - 1), takes 2-byte lanes
VECTOR_CASES = {
    "GF(2) rank 8, 255 points": (2, 8, 10, 8, "count"),
    "GF(2) rank 9, 511 points": (2, 9, 11, 9, "count"),
    "GF(3) 3^5 just below 2^8": (3, 5, 8, 5, "count"),
    "GF(3) 3^5 just above 2^7": (3, 5, 7, 5, "oracle"),
    "GF(3) 3^6 just below 2^10, 364 points": (3, 6, 10, 6, "count"),
    "GF(3) 3^6 just above 2^9": (3, 6, 9, 6, "oracle"),
    "GF(5) 5^3 just below 2^7": (5, 3, 7, 3, "oracle"),
    "GF(5) 5^3 just above 2^6": (5, 3, 6, 3, "oracle"),
    "GF(2) dim 9 > n": (2, 9, 5, 5, "count"),
    "GF(3) dim 7 > n": (3, 7, 4, 4, "oracle"),
}


@pytest.mark.parametrize("case", sorted(VECTOR_CASES))
def test_linear_table_routes_equal_gaussian_elimination(case):
    p, dim, n, rank, route = VECTOR_CASES[case]
    vectors = _vectors(p, dim, n)
    want = _gf_table(p, vectors)
    assert want[-1] == rank
    with _counting() as calls:
        assert linear(VectorSpec(p, dim, vectors)).mask_table() == want
    _assert_route(calls, route, n)


# (matroid, table, route): rank 0 is counted over GF(2) and GF(3), and
# filled by the oracle over any other field
ODD_CASES = {
    "linear n=0": (linear(VectorSpec(2, 3, ())), [0], "count"),
    "linear zero vectors": (linear(VectorSpec(3, 2, ((0, 0), (3, 6), (0, -3), (0, 0)))), [0] * 16, "count"),
    "linear GF(2^31-1) zero vectors": (linear(VectorSpec(2**31 - 1, 2, ((0, 0),) * 3)), [0] * 8, "oracle"),
    "graphic n=0": (graphic([]), [0], "count"),
    "graphic self-loops": (graphic([(0, "a", "a"), (1, "b", "b"), (2, "a", "a")]), [0] * 8, "count"),
}


@pytest.mark.parametrize("case", sorted(ODD_CASES))
def test_table_count_of_degenerate_matroids(case):
    m, want, route = ODD_CASES[case]
    with _counting() as calls:
        assert m.mask_table() == want
    _assert_route(calls, route, m.n)


@pytest.mark.parametrize(
    "edges",
    [
        # self-loops, parallel edges and two components; rank 5
        [(0, "a", "a"), (1, "a", "b"), (2, "b", "a"), (3, "b", "c"), (4, "c", "c"), (5, "c", "a"),
         (6, "x", "y"), (7, "y", "z"), (8, "z", "x"), (9, "z", "z"), (10, "y", "w"), (11, "w", "x")],
        # rank 10: 1023 points, 2-byte lanes
        _random_graph(11, 12, seed=4),
    ],
    ids=["loops-parallel-components", "rank-10"],
)
def test_graphic_table_count_equals_component_count(edges):
    m = graphic(edges)
    assert m.mask_table() == _graph_table(edges)


def test_count_of_65535_points_at_16_elements():
    # full rank at n = 16: 2^16 - 1 points in 2-byte lanes, and every set
    # independent; a sample of masks is checked against the definitions
    rng = random.Random(7)
    # 1 on the diagonal, 0 above it: independent whatever lies below
    vectors = tuple(tuple(int(i == j) if j >= i else rng.randrange(2) for j in range(16)) for i in range(16))
    assert _gf_rank([list(v) for v in vectors], 2) == 16
    tree = [(i, str(random.Random(i).randrange(i + 1)), str(i + 1)) for i in range(16)]
    assert graph_rank(tree, (1 << 16) - 1) == 16
    sample = random.Random(8).sample(range(1 << 16), 300)
    for m, rank in (
        (linear(VectorSpec(2, 16, vectors)), lambda a: _gf_rank([list(vectors[i]) for i in bits(a)], 2)),
        (graphic(tree), lambda a: graph_rank(tree, a)),
    ):
        table = m.mask_table()
        assert table == [a.bit_count() for a in range(1 << 16)]
        assert [table[a] for a in sample] == [rank(a) for a in sample]


def test_count_at_16_elements_below_full_rank():
    # rank 12 of 16 (4095 points) and a graph of rank 9 (511 points):
    # 2-byte lanes on matroids with circuits, checked on a sample of masks
    vectors = _vectors(2, 12, 16, seed=9)
    edges = _random_graph(10, 16, seed=5)
    sample = random.Random(10).sample(range(1 << 16), 400)
    gf2, graph = linear(VectorSpec(2, 12, vectors)).mask_table(), graphic(edges).mask_table()
    assert (gf2[-1], graph[-1]) == (12, 9)
    assert [gf2[a] for a in sample] == [_gf_rank([list(vectors[i]) for i in bits(a)], 2) for a in sample]
    assert [graph[a] for a in sample] == [graph_rank(edges, a) for a in sample]


def _gf_columns(rng, p, n, rank):
    """n columns over GF(p) of the given rank, in dimension rank + 1, shuffled.

    The first ``rank`` columns are independent; each column after them is
    zero, a copy or a multiple of an earlier column (its double over
    GF(3), a random scale from 2 to p - 1 otherwise), or a combination
    of the independent ones.
    """
    dim = rank + 1
    while True:
        basis = [tuple(rng.randrange(p) for _ in range(dim)) for _ in range(rank)]
        if _gf_rank([list(v) for v in basis], p) == rank:
            break
    columns = list(basis)
    while len(columns) < n:
        kind = rng.choice(("zero", "copy", "double", "combination"))
        if kind == "zero" or not columns:
            columns.append((0,) * dim)
        elif kind in ("copy", "double"):
            c = 1 if kind == "copy" else 2 if p == 3 else rng.randrange(2, p)
            columns.append(tuple(c * a % p for a in rng.choice(columns)))
        else:
            cs = [rng.randrange(p) for _ in basis]
            columns.append(tuple(sum(c * v[j] for c, v in zip(cs, basis)) % p for j in range(dim)))
    rng.shuffle(columns)
    return tuple(columns)


@pytest.mark.parametrize("n", range(13))
def test_gf3_count_equals_gaussian_elimination_at_every_rank_it_takes(n):
    # every rank r with 3^r <= 2^n is counted, in 1-byte lanes up to
    # r = 5 (121 points), whose rank bytes are handed over as the table and
    # the rank image, and 2-byte lanes from r = 6 (364 points)
    rng = random.Random(320 + n)
    ranks = [r for r in range(n + 1) if 3**r <= 1 << n]
    assert ranks[0] == 0
    for rank in ranks:
        columns = _gf_columns(rng, 3, n, rank)
        want = _gf_table(3, columns)
        assert want[-1] == rank
        m = linear(VectorSpec(3, rank + 1, columns))
        assert m.mask_table() == want, (n, rank, columns)
        assert (m._rank_image is not None) == (rank <= 5)
        assert _rank_image(m) == int.from_bytes(bytes(want), "little")


@pytest.mark.parametrize("p", (5, 7, 11))
@pytest.mark.parametrize("n", range(11))
def test_gf_p_tables_are_walked_at_every_rank(p, n, monkeypatch):
    # over any field but GF(2) and GF(3) the oracle fills the table at every
    # rank, even where p^r <= 2^n; its image is converted from the list
    def no_count(*args):
        raise AssertionError("the count serves GF(2) and GF(3) only")

    monkeypatch.setattr(constructions, "_count_table", no_count)
    rng = random.Random(1000 * p + n)
    for rank in range(n + 1):
        columns = _gf_columns(rng, p, n, rank)
        want = _gf_table(p, columns)
        assert want[-1] == rank
        m = linear(VectorSpec(p, rank + 1, columns))
        table = m.mask_table()
        assert table == want, (p, n, rank, columns)
        assert m._rank_image is None
        assert _rank_image(m) == _rank_bytes(want)


def _odd_columns(p, dim, n, seed):
    """n unreduced columns over GF(p): coordinates from -7 to 8, zero
    columns, and columns repeated or doubled from earlier ones, each
    shifted by multiples of p."""
    rng = random.Random(seed)
    columns = []
    for _ in range(n):
        kind = rng.choice(("fresh",) * 5 + ("zero", "repeat", "double"))
        if kind == "zero":
            v = tuple(p * rng.randrange(-2, 3) for _ in range(dim))
        elif kind != "fresh" and columns:
            c = 1 if kind == "repeat" else 2
            v = tuple(c * a + p * rng.randrange(-1, 2) for a in rng.choice(columns))
        else:
            v = tuple(rng.randrange(-7, 9) for _ in range(dim))
        columns.append(v)
    return tuple(columns)


# (p, dim, n): full and deficient rank, dim above n, and n = 0 and 1;
# over GF(3), dimensions 12 and 15 reach ranks whose count would pass 2^n
# points, so the oracle fills those tables
SLICED_CASES = [
    (p, dim, n)
    for p in (2, 3)
    for dim, n in ((3, 0), (2, 1), (4, 6), (6, 9), (3, 12), (5, 12), (12, 12), (15, 7))
]


@pytest.mark.parametrize("p, dim, n", SLICED_CASES)
def test_sliced_basis_oracle_and_table_equal_gaussian_elimination(p, dim, n):
    # every mask, by the oracle before any table exists and by the table
    routes = set()
    for seed in range(3):
        vectors = _odd_columns(p, dim, n, seed=100 * n + 10 * dim + seed)
        spec = VectorSpec(p, dim, vectors)
        want = _gf_table(p, vectors)
        fresh = linear(spec)
        assert [fresh.rank_of_mask(a) for a in range(1 << n)] == want, vectors
        assert fresh._mask_table is None
        with _counting() as calls:
            assert linear(spec).mask_table() == want, vectors
        route = "oracle" if p ** want[-1] > 1 << n else "count"
        _assert_route(calls, route, n)
        routes.add(route)
    if p == 3 and dim >= 12:
        assert "oracle" in routes


@pytest.mark.parametrize("p", (2, 3))
@pytest.mark.parametrize("dim", (4, 12, 40))
def test_sliced_oracle_on_random_masks_of_300_elements(p, dim):
    vectors = _odd_columns(p, dim, 300, seed=dim)
    m = linear(VectorSpec(p, dim, vectors))
    rng = random.Random(p * dim)
    masks = [0, (1 << 300) - 1] + [rng.getrandbits(300) for _ in range(15)]
    masks += [rng.getrandbits(300) & rng.getrandbits(300) & rng.getrandbits(300) for _ in range(15)]
    masks += [1 << rng.randrange(300) | 1 << rng.randrange(300) for _ in range(10)]
    want = [_gf_rank([list(vectors[i]) for i in bits(a)], p) for a in masks]
    assert [m.rank_of_mask(a) for a in masks] == want
    assert m._mask_table is None
