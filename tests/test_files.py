import itertools
from pathlib import Path

import pytest

from matroidkit import AxiomError, MatroidError, contract, from_table, tabulate, uniform
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
