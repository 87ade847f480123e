import itertools
import operator

import pytest

from matroidkit import (
    AxiomError,
    BoundExceededError,
    GraphSpec,
    GroundSetError,
    Matroid,
    MatroidError,
    TableSpec,
    VectorSpec,
    circuits,
    from_table,
    graphic,
    linear,
    tabulate,
    uniform,
    validate_axioms,
)
from matroidkit import constructions, core
from matroidkit.catalog import desk_suite, triangle
from matroidkit.core import bits, mask_of
from matroidkit.files import parse_matroid_text, serialize_matroid


def test_uniform_examples():
    assert uniform(4, 2).rank({0, 1, 2}) == 2
    assert all(uniform(3, 0).rank({x}) == 0 for x in range(3))
    assert circuits(uniform(3, 3)) == []


def test_uniform_rejects_bad_params():
    with pytest.raises(GroundSetError):
        uniform(3, 4)
    with pytest.raises(GroundSetError):
        uniform(3, -1)


def test_graphic_examples():
    t = triangle()
    assert t.rank({0}) == 1  # 2 vertices - 1 component
    assert t.rank({0, 1, 2}) == 2  # 3 vertices - 1 component
    loop = graphic([(0, "a", "a")])
    assert loop.rank({0}) == 0


def test_graphic_duplicate_ids():
    with pytest.raises(GroundSetError):
        graphic([(0, "a", "b"), (0, "b", "c")])
    with pytest.raises(GroundSetError):
        graphic([(1, "a", "b"), (2, "b", "c")])  # not dense


@pytest.mark.parametrize(
    "edge",
    [(0, "a", "b", "c"), (0, "a"), (0,), (), [0, "a", "b"], 0, "0 a b"],
    ids=["four items", "two items", "one item", "empty", "list", "int", "str"],
)
def test_graphic_refuses_an_edge_that_is_not_a_triple(edge):
    # a fourth item was dropped silently, and a short edge raised IndexError
    with pytest.raises(GroundSetError) as err:
        graphic([(0, "x", "y"), edge])
    assert str(err.value) == f"edge {edge!r} is not an (id, endpoint, endpoint) triple"
    with pytest.raises(GroundSetError):
        GraphSpec((edge,))


def test_graphic_rank_equals_forest_greedy(suite6):
    # rank(A) must equal the number of edges a greedy forest keeps
    for m in suite6:
        spec = m.spec
        if not isinstance(spec, GraphSpec):
            continue
        by_id = {e[0]: (e[1], e[2]) for e in spec.edges}
        for size in range(m.n + 1):
            for a in itertools.combinations(range(m.n), size):
                parent = {}

                def find(v):
                    while parent[v] != v:
                        parent[v] = parent[parent[v]]
                        v = parent[v]
                    return v

                kept = 0
                for e in a:
                    u, v = by_id[e]
                    parent.setdefault(u, u)
                    parent.setdefault(v, v)
                    ru, rv = find(u), find(v)
                    if ru != rv:
                        parent[ru] = rv
                        kept += 1
                assert m.rank(a) == kept, m.name


def test_linear_examples():
    m = linear(VectorSpec(2, 2, ((1, 0), (0, 1), (1, 1))))
    assert m.rank({0, 1, 2}) == 2
    z = linear(VectorSpec(2, 2, ((0, 0),)))
    assert z.rank({0}) == 0
    par = linear(VectorSpec(2, 2, ((1, 0), (1, 0))))
    assert par.rank({0, 1}) == 1
    assert [c.members for c in circuits(par)] == [(0, 1)]


def test_linear_rejects_nonprime():
    with pytest.raises(GroundSetError):
        linear(VectorSpec(4, 2, ((1, 0),)))
    with pytest.raises(GroundSetError):
        linear(VectorSpec(2, 2, ((1, 0, 0),)))


def test_linear_refuses_field_orders_from_two_to_the_31():
    # trial division would run for years on a 31-digit prime
    for p in (10**30 + 57, 2**31):
        with pytest.raises(GroundSetError) as err:
            VectorSpec(p, 1, ((1,),))
        assert str(err.value) == f"field order {p} is too large: it must be below 2^31"
    assert linear(VectorSpec(2**31 - 1, 1, ((1,),))).full_rank() == 1


def test_linear_gf3():
    # (1,0),(0,1),(1,1),(1,2) over GF(3): any two of the last three are a basis
    m = linear(VectorSpec(3, 2, ((1, 0), (0, 1), (1, 1), (1, 2))))
    assert m.rank({0, 1, 2, 3}) == 2
    assert m.rank({2, 3}) == 2
    assert validate_axioms(m).ok


def test_linear_rank_permutation_invariant():
    m = linear(VectorSpec(2, 3, ((1, 0, 0), (1, 1, 0), (0, 1, 1), (1, 0, 1))))
    for a in itertools.permutations(range(4), 3):
        assert m.rank(a) == m.rank(tuple(reversed(a)))
        assert m.rank(a) == m.rank(frozenset(a))


def test_from_table_roundtrip():
    src = uniform(4, 2)
    m = from_table(tabulate(src))
    for size in range(5):
        for a in itertools.combinations(range(4), size):
            assert m.rank(a) == src.rank(a)


def test_from_table_rejects_bad_normalization():
    spec = TableSpec(1, {frozenset(): 1, frozenset({0}): 1})
    with pytest.raises(AxiomError) as err:
        from_table(spec)
    assert err.value.report.axiom == "normalization"


def test_from_table_rejects_incomplete():
    with pytest.raises(GroundSetError):
        TableSpec(2, {frozenset(): 0})


def _refusal(n, ranks):
    with pytest.raises(GroundSetError) as err:
        TableSpec(n, ranks)
    return str(err.value)


def test_table_spec_rejects_ids_outside_ground_set():
    # the id check runs before the count check, so a table with the right
    # number of entries but a foreign id never reaches from_table's lookup
    with pytest.raises(GroundSetError, match=r"subset \{5\} outside ground set \(n=1\)"):
        from_table(TableSpec(1, {frozenset(): 0, frozenset({5}): 1}))
    assert _refusal(2, {frozenset({-1}): 0}) == "subset {-1} outside ground set (n=2)"
    assert _refusal(2, {frozenset({1, -3}): 0}) == "subset {-3,1} outside ground set (n=2)"
    # ids far beyond any mask are refused without sizing one
    for e in (10**18, 2**64):
        assert _refusal(1, {frozenset(): 0, frozenset({e}): 1}) == (
            f"subset {{{e}}} outside ground set (n=1)"
        )
    # a foreign id is named before the missing subsets, and before a
    # later foreign key
    assert (
        _refusal(2, {frozenset(): 0, frozenset({0, 2}): 1, frozenset({-1}): 0})
        == "subset {0,2} outside ground set (n=2)"
    )
    assert (
        _refusal(2, {frozenset({-1}): 0, frozenset({5}): 1})
        == "subset {-1} outside ground set (n=2)"
    )
    assert (
        _refusal(2, {frozenset(): 0, frozenset({1}): 1})
        == "rank table incomplete: 2 of 4 subsets (2 missing)"
    )
    assert _refusal(0, {}) == "rank table incomplete: 0 of 1 subsets (1 missing)"


@pytest.mark.parametrize("impostor", [True, 1.0], ids=repr)
def test_table_spec_refuses_ids_that_only_equal_an_int(impostor):
    # frozenset({impostor}) == frozenset({1}), so a subset test alone
    # passes it; an id must be an int, as everywhere else
    e = impostor
    good = tabulate(uniform(2, 1)).ranks
    for keys, named in (
        ([frozenset({e})], f"{{{e!r}}}"),
        ([frozenset({0, e})], f"{{0,{e!r}}}"),
        ([frozenset({0, e}), frozenset({e})], f"{{{e!r}}}"),  # {1} is listed before {0,1}
    ):
        ranks = {next((k for k in keys if k == key), key): r for key, r in good.items()}
        with pytest.raises(GroundSetError) as err:
            from_table(TableSpec(2, ranks))
        assert str(err.value) == f"subset {named} outside ground set (n=2)"
    # named in dict order, before and after a key outside range(n)
    assert _refusal(2, {frozenset({e}): 1, frozenset({5}): 0}) == (
        f"subset {{{e!r}}} outside ground set (n=2)"
    )
    assert _refusal(2, {frozenset({5}): 0, frozenset({e}): 1}) == (
        "subset {5} outside ground set (n=2)"
    )


class _Subset(frozenset):
    pass


@pytest.mark.parametrize("impostor", [True, 1.0], ids=repr)
def test_specs_refuse_values_their_file_cannot_hold(impostor):
    # a spec value that only equals an int would be written as text that
    # parse_matroid_text refuses; the same spec with a plain int round-trips
    builds = {
        "uniform n": (lambda v: uniform(v, 1), 1),
        "uniform k": (lambda v: uniform(2, v), 1),
        "table n": (lambda v: from_table(TableSpec(v, {frozenset(): 0, frozenset({0}): 1})), 1),
        "field order": (lambda v: linear(VectorSpec(v, 1, ((1,),))), 3),
        "dimension": (lambda v: linear(VectorSpec(3, v, ((1,), (2,)))), 1),
        "coordinate": (lambda v: linear(VectorSpec(3, 2, ((v, 0), (0, 1)))), 1),
        "edge id": (lambda v: graphic([(0, "a", "b"), (v, "b", "c")]), 1),
        "vertex": (lambda v: graphic([(0, "a", v)]), "1"),
    }
    for what, (build, good) in builds.items():
        text = serialize_matroid(build(good))
        assert serialize_matroid(parse_matroid_text(text)) == text, what
        with pytest.raises(GroundSetError) as err:
            build(impostor)
        assert repr(impostor) in str(err.value), what
    # an edge line holds each vertex as one token
    for edges in ([(0, "a b", "c")], [(0, "a", "")], [(0, "1", "a"), (1, 1, "a")]):
        with pytest.raises(GroundSetError, match="not a nonempty string without whitespace"):
            graphic(edges)


def test_table_spec_refuses_keys_that_are_not_frozensets():
    # a tuple key passes a subset test and has int ids: it used to be read
    # as a subset, so (0, 0) gave r({0}) and r({}) was never given
    assert _refusal(1, {(0,): 1, (0, 0): 0}) == "rank table key (0,) is not a frozenset"
    with pytest.raises(GroundSetError) as err:
        from_table(TableSpec(1, {(): 0, (0,): 1}))  # every subset, none a frozenset
    assert str(err.value) == "rank table key () is not a frozenset"
    # an int key has no elements to test
    assert _refusal(1, {frozenset(): 0, 5: 1}) == "rank table key 5 is not a frozenset"
    assert _refusal(1, {frozenset(): 0, True: 1}) == "rank table key True is not a frozenset"
    # the first such key in dict order, before a foreign id, an impostor
    # id and a short table
    assert _refusal(2, {frozenset({5}): 0, (1,): 1, 3: 0}) == (
        "rank table key (1,) is not a frozenset"
    )
    assert _refusal(2, {frozenset({True}): 0, 3: 0}) == "rank table key 3 is not a frozenset"
    assert _refusal(2, {frozenset(): 0, (0,): 1}) == "rank table key (0,) is not a frozenset"
    # the type is tested, not equality: a subclass is not a frozenset
    good = dict(tabulate(uniform(2, 1)).ranks)
    ranks = {(_Subset(key) if key == {0} else key): r for key, r in good.items()}
    assert _refusal(2, ranks) == "rank table key _Subset({0}) is not a frozenset"


def test_tabulate_shares_its_keys_at_one_size():
    a, b = tabulate(uniform(6, 3)), tabulate(uniform(6, 3))
    assert a.ranks == b.ranks
    assert all(map(operator.is_, a.ranks, b.ranks))
    assert list(a.ranks) == [frozenset(bits(mask)) for mask in range(1 << 6)]
    # and with another matroid of that size
    c = tabulate(Matroid(6, lambda mask: min(mask.bit_count(), 1)))
    assert all(map(operator.is_, a.ranks, c.ranks))


def _variants(ranks):
    """The table's keys reordered, one swapped for an equal fresh frozenset, one for {True}."""
    keys = list(ranks)
    fresh = frozenset(set(keys[2]))
    assert fresh == keys[2] and fresh is not keys[2]
    return (
        dict(reversed(list(ranks.items()))),
        {(fresh if key is keys[2] else key): r for key, r in ranks.items()},
        {(frozenset({True}) if key == {1} else key): r for key, r in ranks.items()},
    )


@pytest.mark.parametrize("n", [3, 9, core._SUBSET_POOL_BOUND, core._SUBSET_POOL_BOUND + 1])
def test_table_spec_checks_keys_that_are_not_its_own_as_before(n):
    src = linear(VectorSpec(3, 3, tuple((i % 3, i // 3 % 3, 1) for i in range(n))))
    spec = tabulate(src)
    reordered, fresh, impostor = _variants(spec.ranks)
    for ranks in (reordered, fresh):
        assert from_table(TableSpec(n, ranks)).mask_table() == src.mask_table()
    assert _refusal(n, impostor) == f"subset {{True}} outside ground set (n={n})"
    # a table one entry off, in each accepted variant, gets one report
    bad = {**spec.ranks, frozenset({0, 1}): 3}
    reports = []
    for ranks in (bad, *_variants(bad)[:2]):
        with pytest.raises(AxiomError) as err:
            from_table(TableSpec(n, ranks))
        reports.append(err.value.report)
    assert reports[0] == reports[1] == reports[2]
    assert reports[0].axiom == "submodularity"
    # the subset objects are kept up to the bound, and not above it
    kept = "subsets" in core._BY_SIZE.get(n, {})
    assert kept == (n <= core._SUBSET_POOL_BOUND)
    assert all(map(operator.is_, spec.ranks, tabulate(src).ranks)) == kept


class _CountingTypes:
    """Stands in for ``constructions._FROZENSET``: counts the full key checks."""

    def __init__(self):
        self.calls = 0

    def issuperset(self, types):
        self.calls += 1
        return frozenset({frozenset}).issuperset(types)


@pytest.mark.parametrize("n", [3, 9, core._SUBSET_POOL_BOUND, core._SUBSET_POOL_BOUND + 1])
def test_table_spec_accepts_a_parsed_files_keys_by_identity(n, monkeypatch):
    # a table file lists its subsets in (size, lex) order, and up to the
    # pool's bound the parser keys them by the pool's own frozensets, so
    # they pass by one identity test each; any other order or key takes
    # the full checks, with the same outcome
    src = linear(VectorSpec(3, 3, tuple((i % 3, i // 3 % 3, 1) for i in range(n))))
    text = serialize_matroid(from_table(tabulate(src)))
    lines = text.splitlines()
    checks = _CountingTypes()
    monkeypatch.setattr(constructions, "_FROZENSET", checks)
    parsed = parse_matroid_text(text)
    assert parsed.mask_table() == src.mask_table()
    assert checks.calls == (n > core._SUBSET_POOL_BOUND)
    ranks = parsed.spec.ranks
    assert [mask_of(key) for key in ranks] == core._subsets_by_size((1 << n) - 1)
    reversed_text = "\n".join([*lines[:2], *reversed(lines[2:])]) + "\n"
    reordered, fresh, impostor = _variants(ranks)
    checks.calls = 0
    assert parse_matroid_text(reversed_text).mask_table() == src.mask_table()
    for variant in (reordered, fresh):
        assert from_table(TableSpec(n, variant)).mask_table() == src.mask_table()
    assert checks.calls == 3
    assert _refusal(n, impostor) == f"subset {{True}} outside ground set (n={n})"
    short = dict(itertools.islice(ranks.items(), len(ranks) - 1))
    missing = f"rank table incomplete: {(1 << n) - 1} of {1 << n} subsets (1 missing)"
    assert _refusal(n, short) == missing


def test_table_spec_names_a_missing_or_foreign_key_among_its_own_keys():
    good = tabulate(uniform(3, 2)).ranks
    keys = list(good)
    short = {key: good[key] for key in keys[:-1]}
    assert _refusal(3, short) == "rank table incomplete: 7 of 8 subsets (1 missing)"
    swapped = {(frozenset({5}) if key is keys[-1] else key): r for key, r in good.items()}
    assert _refusal(3, swapped) == "subset {5} outside ground set (n=3)"
    extra = {**good, frozenset({0, 3}): 1}
    assert _refusal(3, extra) == "subset {0,3} outside ground set (n=3)"


def _by_mask(ranks, reverse):
    return dict(sorted(ranks.items(), key=lambda kv: mask_of(kv[0]), reverse=reverse))


def test_from_table_reads_a_table_filled_in_reverse_mask_order():
    good = tabulate(uniform(3, 2)).ranks
    forward, backward = _by_mask(good, False), _by_mask(good, True)
    assert list(backward) == list(reversed(forward))
    m, w = from_table(TableSpec(3, forward)), from_table(TableSpec(3, backward))
    assert w.mask_table() == m.mask_table() == uniform(3, 2).mask_table()
    assert validate_axioms(w) == validate_axioms(m)

    bad = {**good, frozenset({0, 2}): 0}  # below r({0}) = 1: not monotone
    reports = []
    for table in (_by_mask(bad, False), _by_mask(bad, True)):
        with pytest.raises(AxiomError) as err:
            from_table(TableSpec(3, table))
        reports.append(err.value.report)
    assert reports[0] == reports[1]
    assert reports[0].axiom == "monotonicity"


@pytest.mark.parametrize("bad", [-1, True, 1.0], ids=repr)
def test_from_table_refuses_a_rank_that_is_not_a_nonnegative_int(bad):
    # two bad entries, listed against mask order: the first bad mask in
    # mask order is the one named
    good = tabulate(uniform(3, 2)).ranks
    ranks = _by_mask({**good, frozenset({0, 2}): bad, frozenset({1, 2}): bad}, True)
    with pytest.raises(MatroidError) as err:
        from_table(TableSpec(3, ranks))
    assert type(err.value) is MatroidError
    assert str(err.value) == f"oracle returned {bad!r} for {{0,2}}"


def test_table_spec_refuses_bad_sizes_before_sizing_the_table():
    with pytest.raises(GroundSetError) as err:
        TableSpec(-1, {frozenset(): 0})
    assert str(err.value) == "ground set size must be nonnegative"
    for n in (17, 20000):
        with pytest.raises(BoundExceededError) as err:
            TableSpec(n, {frozenset(): 0})
        assert str(err.value) == f"mask table needs n <= 16, got {n}"


def test_from_table_graphic():
    src = triangle()
    m = from_table(tabulate(src))
    assert m.rank({0, 1, 2}) == 2


def test_all_constructions_pass_axioms():
    for m in desk_suite(6):
        assert validate_axioms(m).ok, m.name
