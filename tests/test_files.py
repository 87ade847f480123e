import itertools
from pathlib import Path

import pytest

from matroidkit import AxiomError, MatroidError, contract, from_table, tabulate, uniform
from matroidkit import core, files
from matroidkit.catalog import desk_suite
from matroidkit.files import (
    ParseError,
    parse_chain_text,
    parse_listing_text,
    parse_matroid_text,
    parse_subset_literal,
    serialize_listing,
    serialize_matroid,
)

DATA = Path(__file__).parent / "data"


def oracle_agrees(a, b):
    assert a.n == b.n
    for size in range(a.n + 1):
        for combo in itertools.combinations(range(a.n), size):
            if a.rank(combo) != b.rank(combo):
                return False
    return True


def test_parse_uniform():
    m = parse_matroid_text("matroid uniform\nn 4\nk 2\n")
    assert oracle_agrees(m, uniform(4, 2))


def test_parse_graphic_triangle():
    m = parse_matroid_text("matroid graphic\nedge 0 a b\nedge 1 b c\nedge 2 a c\n")
    assert m.rank({0, 1, 2}) == 2


def test_parse_table_rejects_bad_normalization():
    text = "matroid table\nn 1\nrank {} 1\nrank {0} 1\n"
    with pytest.raises(AxiomError):
        parse_matroid_text(text)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_matroid_text("matroid uniform\nn 4\nk two\n")
    assert "line 3" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse_matroid_text("matroid graphic\nedge 0 a\n")
    assert "line 2" in str(err.value)
    with pytest.raises(ParseError):
        parse_matroid_text("not a matroid file\n")


def test_missing_line_errors_name_the_block_opening_line():
    cases = [
        ("# header\nmatroid uniform\nn 4\n", "line 2: uniform matroid needs"),
        ("\n\nmatroid linear\nfield 2\n", "line 3: linear matroid needs"),
        ("# a\n# b\n# c\nmatroid table\nrank {} 0\n", "line 4: table matroid needs"),
    ]
    for text, want in cases:
        with pytest.raises(ParseError) as err:
            parse_matroid_text(text)
        assert str(err.value).startswith(want), text
    with pytest.raises(ParseError) as err:
        parse_chain_text("matroid uniform\nn 2\nk 1\n\nmatroid uniform\nk 1\n")
    assert err.value.line_no == 5


def test_linear_duplicate_header_lines_are_refused():
    text = "matroid linear\nfield 2\nfield 3\ndim 2\nvec 0 1 0\nvec 1 2 0\n"
    with pytest.raises(ParseError) as err:
        parse_matroid_text(text)
    assert str(err.value) == "line 3: duplicate 'field' line"
    with pytest.raises(ParseError) as err:
        parse_matroid_text("matroid linear\nfield 2\ndim 2\n# again\ndim 3\n")
    assert str(err.value) == "line 5: duplicate 'dim' line"


def test_table_duplicate_n_line_is_refused():
    text = "matroid table\nn 1\nrank {} 0\nrank {0} 1\nn 0\n"
    with pytest.raises(ParseError) as err:
        parse_matroid_text(text)
    assert str(err.value) == "line 5: duplicate 'n' line"


def test_comments_and_blank_lines_ignored():
    text = "# header\n\nmatroid uniform\n# size\nn 3\n\nk 1\n"
    m = parse_matroid_text(text)
    assert oracle_agrees(m, uniform(3, 1))


def test_roundtrip_bundled_files():
    for name in ("u24.m", "triangle.m", "gf2_line.m"):
        text = (DATA / name).read_text()
        m1 = parse_matroid_text(text)
        again = serialize_matroid(m1)
        m2 = parse_matroid_text(again)
        assert oracle_agrees(m1, m2), name
        assert serialize_matroid(m2) == again, name


def test_roundtrip_suite_instances():
    for m in desk_suite(6):
        text = serialize_matroid(m)
        m2 = parse_matroid_text(text)
        assert oracle_agrees(m, m2), m.name


def test_derived_matroids_serialize_as_tables():
    m = contract(uniform(4, 2), {0})
    text = serialize_matroid(m)
    assert text.startswith("matroid table")
    assert oracle_agrees(m, parse_matroid_text(text))
    # contracting nothing keeps every rank but drops the spec
    whole = contract(uniform(4, 2), ())
    assert whole.spec is None
    assert serialize_matroid(whole) == serialize_matroid(from_table(tabulate(uniform(4, 2))))


def test_subset_literal():
    assert parse_subset_literal("{0,2,5}") == (0, 2, 5)
    assert parse_subset_literal("{}") == ()
    assert parse_subset_literal("{ 1 , 2 }") == (1, 2)
    with pytest.raises(MatroidError):
        parse_subset_literal("{2,1}")
    with pytest.raises(MatroidError):
        parse_subset_literal("{1,1}")
    with pytest.raises(MatroidError):
        parse_subset_literal("0,1")


def test_parse_listing():
    lists = parse_listing_text("list 0 : a b\nlist 1 : b\n", n=2)
    assert lists == {0: frozenset({"a", "b"}), 1: frozenset({"b"})}
    with pytest.raises(MatroidError):
        parse_listing_text("list 0 : a\n", n=2)  # element 1 missing
    with pytest.raises(ParseError):
        parse_listing_text("list 0 : a\nlist 0 : b\n")


def test_parse_listing_empty_list_allowed():
    lists = parse_listing_text("list 0 :\nlist 1 : a\n", n=2)
    assert lists[0] == frozenset()


def test_listing_roundtrip():
    lists = {0: frozenset({"q", "p"}), 1: frozenset({"r"})}
    text = serialize_listing(lists)
    assert text == "list 0 : p q\nlist 1 : r\n"
    assert parse_listing_text(text, n=2) == lists


def _table_outcome(text):
    try:
        m = parse_matroid_text(text)
    except MatroidError as e:
        return type(e).__name__, str(e)
    return m.n, m.mask_table()


def _table_text(n, ranks, replace=None, before_n=()):
    """A table file of n elements in canonical order, with literal tokens
    swapped as ``replace`` says and rank lines put before the ``n`` line."""
    literals = {a: "{" + ",".join(str(x) for x in range(n) if a >> x & 1) + "}" for a in ranks}
    body = [f"rank {literals[a]} {ranks[a]}" for a in sorted(ranks, key=lambda a: (a.bit_count(), literals[a]))]
    for old, new in (replace or {}).items():
        body = [line.replace(f"rank {old} ", f"rank {new} ") for line in body]
    head = [line for line in body if line.split()[1] in before_n]
    body = [line for line in body if line not in head]
    return "\n".join(["matroid table", *head, f"n {n}", *body]) + "\n"


def test_canonical_literal_lookup_changes_no_parse_outcome(monkeypatch):
    # each file must parse to the same ranks, or fail with the same text,
    # with the lookup as with every literal through parse_subset_literal
    u42 = dict(enumerate(uniform(4, 2).mask_table()))
    u13 = dict(enumerate(uniform(13, 1).mask_table()))
    texts = [
        _table_text(4, u42),
        _table_text(4, u42, {"{0,1}": "{1,0}"}),
        _table_text(4, u42, {"{0,1}": "{0,0}"}),
        _table_text(4, u42, {"{0,1}": "{00,1}"}),
        _table_text(4, u42, {"{0,1}": "{0,5}"}),
        _table_text(4, u42, {"{0,1}": "{ 0,1 }"}),
        _table_text(4, u42, before_n=("{}", "{0}")),
        _table_text(4, u42, before_n=("{1,0}",), replace={"{0,1}": "{1,0}"}),
        _table_text(4, u42) + "rank {0,2} 2\n",
        _table_text(4, u42) + "rank {0,02} 2\n",
        _table_text(13, u13),
        _table_text(13, u13, {"{3,4}": "{4,3}"}),
    ]
    with_lookup = [_table_outcome(text) for text in texts]
    monkeypatch.setattr(files, "_subset_by_literal", lambda n: {})
    assert [_table_outcome(text) for text in texts] == with_lookup
    assert with_lookup[0] == (4, uniform(4, 2).mask_table())
    assert with_lookup[10] == (13, uniform(13, 1).mask_table())
    assert with_lookup[1] == (
        "ParseError",
        "line 8: subset literal must list distinct ids in ascending order: '{1,0}'",
    )
    assert [outcome[0] for outcome in with_lookup] == [
        4, "ParseError", "ParseError", 4, "GroundSetError", "ParseError", 4, "ParseError",
        "ParseError", "ParseError", 13, "ParseError",
    ]


def test_member_tuples_by_byte_lookup():
    assert core._members(range(1 << 16)) == [tuple(core.bits(a)) for a in range(1 << 16)]
