"""The byte-set axiom pass and circuit pass, against mask-by-mask references.

``validate_axioms`` and ``circuits`` read the whole mask table at once, as
ints with one byte per mask.  Each must give exactly what the sweeps in
``conftest`` give mask by mask: the same ``AxiomReport`` (verdict, axiom,
witness and detail) and the same circuit list in the same order, on
matroids and on tables that are not matroids.  The axiom pass packs its
pair tests eight elements to an int, so it is checked on either side of
each group's edge, with pairs that fail across it, and with ranks about
the rank cap that its zero test relies on.  The kernels that list each
mask's flat extensions and unit steps, and its closedness, are held to
the same tables, up to 10 elements.  The byte sets that depend
on n alone are built once per size and kept; each must equal a fresh
mask-by-mask build, whatever sizes ran before it.  A matroid's rank image
is converted from its own mask table, or, where the table is counted in
1-byte lanes, handed over with it; either way the table is a list and the image equals
its conversion, on every route by which a table is built, and a whole-table
pass that builds the table converts it at most once.
"""

import functools
import itertools
import operator
import random

import pytest

from matroidkit import (
    Matroid,
    VectorSpec,
    circuits,
    contract,
    from_table,
    graphic,
    is_closed,
    linear,
    tabulate,
    uniform,
    validate_axioms,
)
from matroidkit import core, lemmas
from matroidkit.core import _RANK_CAP, _per_size, _rank_bytes, _zero_bytes, bits, set_literal
from matroidkit.files import parse_matroid_text, serialize_matroid

from conftest import (
    _gf_rank,
    circuits_by_sweep,
    first_violation,
    perturbed_tables,
    random_matroid,
    rank_function_by_pairs,
)


def _agree(m):
    """The report of m's axiom pass; asserts every kernel matches its reference
    (the step and closedness kernels up to 10 elements, where the references
    are quick)."""
    report = validate_axioms(m)
    t = m.mask_table()
    assert report == rank_function_by_pairs(t, m.n), m.name
    assert circuits(m, max_n=m.n) == circuits_by_sweep(m), m.name
    assert m._rank_image == _rank_bytes(t), m.name
    if m.n <= 10:
        masks = range(1 << m.n)
        flat, unit, closed = core._step_masks(m)
        for offset, got in enumerate((flat, unit)):
            steps = [sum(1 << x for x in range(m.n) if x not in bits(a) and t[a | 1 << x] == t[a] + offset) for a in masks]
            assert got == steps, (m.name, offset)
        assert [bool(c) for c in closed] == [is_closed(m, bits(z)) for z in masks], m.name
    return report


def _tabled(n, table, name):
    return Matroid(n, lambda a: table[a], name=name)


def _seeded(kind, seed):
    """Three seeded matroids of the kind on each n <= 10."""
    rng = random.Random(seed)
    return [random_matroid(rng, kind, n) for n in range(11) for _ in range(3)]


def _one_entry_off(rng, m, count):
    """Tables of m with one entry moved by +-1 or +-2, kept nonnegative."""
    base = m.mask_table()
    for _ in range(count):
        mask = rng.randrange(1 << m.n)
        delta = rng.choice([d for d in (-2, -1, 1, 2) if base[mask] + d >= 0])
        table = list(base)
        table[mask] += delta
        yield _tabled(m.n, table, f"{m.name} mask={mask} {delta:+d}")


def test_kernels_match_the_references_on_the_desk_suite(suite7):
    for m in suite7:
        assert _agree(m).ok, m.name


@pytest.mark.parametrize("kind", ["gf2", "gf3", "graphic"])
def test_kernels_match_the_references_on_seeded_matroids(kind):
    for m in _seeded(kind, seed=14):
        assert _agree(m).ok, m.name


@pytest.mark.parametrize("kind", ["gf2", "gf3", "graphic"])
def test_kernels_match_the_references_on_one_entry_perturbed_tables(kind):
    rng = random.Random(15)
    axioms = set()
    for m in _seeded(kind, seed=16):
        for bad in _one_entry_off(rng, m, 4):
            axioms.add(_agree(bad).axiom)
    # every failing path is taken, and a move that keeps a matroid passes
    assert axioms >= {"normalization", "monotonicity", "submodularity"}


def test_kernels_match_the_references_on_small_perturbed_tables():
    axioms = set()
    for label, n, table in perturbed_tables(seed=17, per_base=10):
        axioms.add(_agree(_tabled(n, table, label)).axiom)
    assert axioms == {None, "normalization", "subcardinality", "monotonicity", "submodularity"}


def test_kernels_match_the_references_on_random_tables():
    rng = random.Random(18)
    axioms = set()
    for n in range(6):
        for i in range(40):
            table = [rng.randint(0, 2) for _ in range(1 << n)]
            if i % 8:
                table[0] = 0
            axioms.add(_agree(_tabled(n, table, f"random n={n} #{i}")).axiom)
    assert axioms == {None, "normalization", "subcardinality", "monotonicity", "submodularity"}


def test_kernels_match_the_references_on_ranks_above_a_byte():
    # ranks are held one byte per mask, capped; the first failure must not move
    rng = random.Random(19)
    for n in range(5):
        for i in range(20):
            table = [rng.choice((0, 1, 2, 254, 255, 256, 10**6)) for _ in range(1 << n)]
            table[0] = 0
            _agree(_tabled(n, table, f"large n={n} #{i}"))
    for n, mask in ((4, 0b0001), (4, 0b1111), (8, 0b10110000)):
        table = uniform(n, 2).mask_table()[:]
        table[mask] = 300
        assert not _agree(_tabled(n, table, f"U({n},2) r({mask})=300")).ok


# the sizes at the packed pass's group edges: pairs are packed eight
# elements to an int, so 8 fills one group and 9 and 16 open and fill a second
EDGE_SIZES = (7, 8, 9, 15, 16)
# around the rank cap (126), the zero test's 0x80, a byte's 255, and beyond
LARGE = (0, 1, 2, 125, 126, 127, 128, 200, 255, 256, 10**6)
# pairs y < x on either side of a group edge, and the first and last elements
EDGE_PAIRS = ((0, 1), (6, 7), (7, 8), (0, 8), (8, 9), (7, 9), (0, -1), (7, -1), (8, -1), (-2, -1))


def _pair_off(n, y, x, base, k):
    """A table whose first failure is the pair y < x at mask ``base``.

    U(k) on the elements other than y and x, which are loops, plus one
    at every mask that holds base, x and y; base's elements are below
    y, so every other failure is at a mask that holds x or y.
    """
    both = 1 << x | 1 << y
    need = base | both
    table = [min((a & ~both).bit_count(), k) + (a & need == need) for a in range(1 << n)]
    return _tabled(n, table, f"n={n} pair {y},{x} at {base:#x} k={k}")


@pytest.mark.parametrize("n", EDGE_SIZES)
def test_packed_pairs_match_the_references_at_group_edges(n):
    rng = random.Random(21 + n)
    verdicts = set()
    for kind in ("gf2", "gf3", "graphic"):
        m = random_matroid(rng, kind, n)
        assert _agree(m).ok, m.name
        for bad in _one_entry_off(rng, m, 3):
            report = _agree(bad)
            verdicts.add(report.ok)
            if n == 7:
                assert report.ok == first_violation(bad.mask_table(), n).ok, bad.name
    for y, x in EDGE_PAIRS:
        y, x = y % n, x % n
        if y >= x:
            continue
        base = sum(1 << e for e in rng.sample(range(y), rng.randrange(y + 1)))
        report = _agree(_pair_off(n, y, x, base, rng.randrange(1, 4)))
        assert report.axiom == "submodularity" and report.witness == (
            tuple(bits(base | 1 << y)), tuple(bits(base | 1 << x))
        ), report
    assert False in verdicts


@pytest.mark.parametrize("n", EDGE_SIZES)
def test_kernels_match_the_references_on_large_entries_at_group_edges(n):
    # random tables with entries about the cap; and matroid tables with a
    # few entries moved there, so the first failure lies deeper
    rng = random.Random(22 + n)
    base = random_matroid(rng, "gf2", n).mask_table()
    for i in range(6):
        table = [rng.choice(LARGE) for _ in range(1 << n)]
        if i % 3:
            table[0] = 0
        _agree(_tabled(n, table, f"large n={n} #{i}"))
        table = list(base)
        for mask in rng.sample(range(1, 1 << n), 3):
            table[mask] = rng.choice(LARGE)
        report = _agree(_tabled(n, table, f"matroid n={n} moved #{i}"))
        if n == 7:
            assert report.ok == first_violation(table, n).ok


def test_the_zero_test_is_exact_up_to_0x80():
    rng = random.Random(23)
    for n in (0, 1, 3, 8):
        high = _per_size(n, "high")
        for _ in range(20):
            values = [rng.choice((0, 0, 1, 2, 0x7F, 0x80)) for _ in range(1 << n)]
            within = [rng.choice((0, 0x80)) for _ in range(1 << n)]
            word, mask = (int.from_bytes(bytes(b), "little") for b in (values, within))
            got = _zero_bytes(word, high, mask)
            assert got.to_bytes(1 << n, "little") == bytes(
                int(v == 0 and w == 0x80) for v, w in zip(values, within)
            )
    # ranks above a byte are capped, so every byte the passes test stays below 0x80
    table = list(LARGE)
    assert _rank_bytes(table).to_bytes(len(table), "little") == bytes(
        min(r, _RANK_CAP) for r in table
    )
    assert _RANK_CAP + 1 < 0x80


def test_a_rank_image_is_converted_from_its_own_table():
    # from_table's axiom pass converts the table once; circuits reads that image
    vectors = ((1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (1, 2, 1))
    m = from_table(tabulate(linear(VectorSpec(3, 3, vectors))))
    image = m._rank_image
    assert image == _rank_bytes(m.mask_table())
    assert circuits(m) == circuits_by_sweep(m)
    assert m._rank_image is image
    # a contraction of a table-backed matroid converts its own table
    for derived in (contract(m, [0]), contract(m, [1, 3])):
        assert derived._rank_image is None
        _agree(derived)
        assert derived._rank_image != image
    assert m._rank_image is image


def _seeded_vectors(p, dim, n, seed):
    rng = random.Random(seed)
    return tuple(tuple(rng.randrange(p) for _ in range(dim)) for _ in range(n))


@functools.cache
def _gf_ranks(p, dim, vectors):
    """The rank of every mask of the vectors over GF(p), by elimination."""
    want = [_gf_rank([list(vectors[i]) for i in bits(a)], p) for a in range(1 << len(vectors))]
    assert want[-1] == min(dim, len(vectors))
    return want


def _linear_route(p, dim, n, handed_over=True):
    vectors = _seeded_vectors(p, dim, n, seed=n)
    return lambda: linear(VectorSpec(p, dim, vectors)), lambda: _gf_ranks(p, dim, vectors), handed_over


_GF3_9 = _seeded_vectors(3, 4, 9, seed=1)
# self-loops (0, 5), parallel edges (1, 2) and two components
_ROUTE_EDGES = [(0, "a", "a"), (1, "a", "b"), (2, "b", "a"), (3, "b", "c"), (4, "c", "a"),
                (5, "x", "x"), (6, "x", "y"), (7, "y", "z"), (8, "z", "x")]


def _contracted_ranks():
    want = _gf_ranks(3, 4, _GF3_9)
    # {0, 2} contracted: the kept ids 1, 3, 4, ... become 0, 1, 2, ...
    return [want[0b101 | (a & 1) << 1 | a >> 1 << 3] - want[0b101] for a in range(1 << 7)]


# each route by which a mask table is built: (a fresh matroid, its reference
# ranks in mask order, whether its table builder hands over rank bytes)
_IMAGE_ROUTES = {
    "linear GF(2)": _linear_route(2, 5, 10),
    # 40 points: 1-byte count lanes
    "linear GF(3) 1-byte lanes": _linear_route(3, 4, 10),
    # 3^6 <= 2^11, 364 points: 2-byte count lanes, whose ranks come as a list
    "linear GF(3) 2-byte lanes": _linear_route(3, 6, 11, handed_over=False),
    # any field but GF(2) and GF(3) is filled by the oracle, even where 5^3 <= 2^8
    "linear GF(5)": _linear_route(5, 3, 8, handed_over=False),
    # 7^4 > 2^9: the oracle too
    "linear GF(7)": _linear_route(7, 4, 9, handed_over=False),
    "graphic": (
        lambda: graphic(_ROUTE_EDGES),
        lambda: list(map(graphic(_ROUTE_EDGES)._oracle, range(1 << len(_ROUTE_EDGES)))),
        True,
    ),
    "contraction": (
        lambda: contract(linear(VectorSpec(3, 4, _GF3_9)), [0, 2]), _contracted_ranks, False,
    ),
    "from_table": (
        lambda: from_table(tabulate(linear(VectorSpec(3, 4, _GF3_9)))),
        lambda: _gf_ranks(3, 4, _GF3_9),
        False,
    ),
    "oracle only": (
        lambda: Matroid(9, linear(VectorSpec(3, 4, _GF3_9)).rank_of_mask),
        lambda: _gf_ranks(3, 4, _GF3_9),
        False,
    ),
}


@pytest.mark.parametrize("route", sorted(_IMAGE_ROUTES))
def test_table_routes_give_a_list_and_its_rank_image(route):
    # a count hands over its rank bytes, which become the table, a list,
    # and the rank image at once; every other route's image is converted
    # from its list on first use
    build, reference, handed_over = _IMAGE_ROUTES[route]
    m = build()
    if route == "from_table":  # its construction ran the axiom pass
        assert m._rank_image is not None
    else:
        assert m._mask_table is None and m._rank_image is None
    table = m.mask_table()
    assert type(table) is list and table == reference()
    assert (m._rank_image is not None) == (handed_over or route == "from_table")
    assert core._rank_image(m) == _rank_bytes(table)
    assert m.mask_table() is table
    _agree(m)


# each whole-table pass, entered on a matroid whose table is not built yet
_COLD_PASSES = {
    "validate_axioms": validate_axioms,
    "circuits": circuits,
    "_step_masks": core._step_masks,
    # the closed masks are a fact of the lemma battery's step pass
    "_closed_flags": lambda m: lemmas._Facts(m).closed,
}


@pytest.mark.parametrize("entry", sorted(_COLD_PASSES))
@pytest.mark.parametrize("route", sorted(_IMAGE_ROUTES))
def test_a_cold_pass_converts_each_table_at_most_once(route, entry, monkeypatch):
    # a pass that builds the table keeps the rank bytes a count hands
    # over; any other table is converted once, from_table's already by
    # its construction's axiom pass
    build, _, handed_over = _IMAGE_ROUTES[route]
    m = build()
    converted = []

    def counted(table):
        converted.append(table)
        return _rank_bytes(table)

    monkeypatch.setattr(core, "_rank_bytes", counted)
    _COLD_PASSES[entry](m)
    _COLD_PASSES[entry](m)
    assert len(converted) == (0 if handed_over or route == "from_table" else 1)
    table = m.mask_table()
    assert all(t is table for t in converted)
    assert core._rank_image(m) == _rank_bytes(table)


def _fresh_byte_sets(n, key):
    """The byte set(s) _per_size(n, key) should hold, built mask by mask."""
    if key == "ones":
        return int.from_bytes(bytes(1 for _ in range(1 << n)), "little")
    if key == "high":
        return int.from_bytes(bytes(0x80 for _ in range(1 << n)), "little")
    if key == "subsets":
        return [frozenset(x for x in range(n) if a >> x & 1) for a in range(1 << n)]
    if key == "sized subsets":
        return [frozenset(c) for size in range(n + 1) for c in itertools.combinations(range(n), size)]
    if key == "sizes":
        return int.from_bytes(bytes(a.bit_count() for a in range(1 << n)), "little")
    if key == "literals":
        return [set_literal(x for x in range(n) if a >> x & 1) for a in range(1 << n)]
    if key == "by_literal":
        return {
            set_literal(x for x in range(n) if a >> x & 1): frozenset(x for x in range(n) if a >> x & 1)
            for a in range(1 << n)
        }
    empty = bytes(len(key))
    return [
        int.from_bytes(b"".join(empty if a >> x & 1 else key for a in range(1 << n)), "little")
        for x in range(n)
    ]


def _incidence(n, vertices, rng):
    """A random graph on n edges and its edges' incidence vectors over GF(2)."""
    edges = [(i, rng.randrange(vertices), rng.randrange(vertices)) for i in range(n)]
    vectors = [[int(v in (a, b) and a != b) for v in range(vertices)] for _, a, b in edges]
    return [(i, str(a), str(b)) for i, a, b in edges], vectors


def test_kernels_and_counts_agree_at_interleaved_sizes():
    # each size's byte sets are built for its first table and serve the
    # later tables of that size, whatever sizes ran in between; at n = 16
    # ranks are checked on a sample of masks and the axiom pass on a
    # near-free matroid (one circuit) and on a table one entry off it
    rng = random.Random(20)
    for n in (3, 12, 0, 16, 3):
        masks = range(1 << n) if n <= 12 else rng.sample(range(1 << n), 300)
        gf2 = [tuple(rng.randrange(2) for _ in range(max(n - 2, 1))) for _ in range(n)]
        gf3 = [tuple(rng.randrange(3) for _ in range(4)) for _ in range(n)]
        edges, incidence = _incidence(n, n // 2 + 2, rng)
        for m, p, vectors in (
            (linear(VectorSpec(2, max(n - 2, 1), tuple(gf2))), 2, gf2),
            (linear(VectorSpec(3, 4, tuple(gf3))), 3, gf3),
            (graphic(edges), 2, incidence),
        ):
            table = m.mask_table()
            assert [table[a] for a in masks] == [
                _gf_rank([list(vectors[i]) for i in bits(a)], p) for a in masks
            ], m.name
            if n <= 12:
                assert _agree(m).ok, m.name
                frozen = parse_matroid_text(serialize_matroid(contract(m, ())))
                assert frozen.mask_table() == table, m.name
                if n <= 3:
                    assert validate_axioms(m) == first_violation(table, n), m.name
        if n == 16:
            free = [tuple(int(i == j) for j in range(15)) for i in range(15)] + [(1,) * 15]
            m = linear(VectorSpec(2, 15, tuple(free)))
            assert _agree(m).ok
            assert circuits(m, max_n=16) == [core.Circuit(tuple(range(16)))]
            table = list(m.mask_table())
            table[0b11] += 2
            assert not _agree(_tabled(n, table, "one circuit, r({0,1}) + 2")).ok
    for n, built in core._BY_SIZE.items():
        for key, value in built.items():
            assert value == _fresh_byte_sets(n, key), (n, key)
        if "by_literal" in built:
            # the parser's keys are the pool's own subsets
            assert all(map(operator.is_, built["by_literal"].values(), built["subsets"])), n
        if "sized subsets" in built:
            # and so are the keys of a parsed file, in the file's order
            assert set(map(id, built["sized subsets"])) == set(map(id, built["subsets"])), n
    for n in (0, 3, 12, 16):
        assert {"ones", "high", "sizes", b"\x01", b"\x80"} <= core._BY_SIZE[n].keys(), n
    for n in (0, 3, 12):
        assert {"subsets", "literals", "by_literal"} <= core._BY_SIZE[n].keys(), n
    for n in (3, 12):
        # a file lists its keys out of mask order from n = 3 on
        assert "sized subsets" in core._BY_SIZE[n], n
    assert not {"subsets", "sized subsets", "literals", "by_literal"} & core._BY_SIZE[16].keys()
    assert b"\xff" in core._BY_SIZE[12] and b"\xff\xff" in core._BY_SIZE[16]
