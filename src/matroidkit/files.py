"""Matroid and listing file formats.

Matroid files start with ``matroid <kind>`` where kind is uniform,
graphic, linear or table; the body grammar per kind is fixed so that
parse -> serialize -> parse is the identity on oracles.  ``#`` lines and
blank lines are ignored.  A chain file is matroid blocks one after another.
Listing files hold one ``list <id> : tok ...`` line per element.
"""

from __future__ import annotations

from .constructions import (
    GraphSpec,
    TableSpec,
    UniformSpec,
    VectorSpec,
    from_table,
    graphic,
    linear,
    uniform,
)
from .core import (
    Matroid,
    MatroidError,
    _subset_by_literal,
    _subset_literals,
    _subsets_by_size,
)


class ParseError(MatroidError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def parse_subset_literal(text: str) -> tuple[int, ...]:
    """Parse ``{i,j,k}`` (ascending ids required, ``{}`` for empty)."""
    s = text.strip()
    if not (s.startswith("{") and s.endswith("}")):
        raise MatroidError(f"subset literal must look like {{0,1}}, got {text!r}")
    inner = s[1:-1].strip()
    if not inner:
        return ()
    try:
        ids = tuple(int(p.strip()) for p in inner.split(","))
    except ValueError:
        raise MatroidError(f"non-integer id in subset literal {text!r}") from None
    if list(ids) != sorted(set(ids)):
        raise MatroidError(
            f"subset literal must list distinct ids in ascending order: {text!r}"
        )
    return ids


def _content_lines(text: str):
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield i, line


def parse_matroid_text(text: str) -> Matroid:
    """Parse and construct a matroid; table kinds are validated on the spot."""
    return _parse_block(list(_content_lines(text)))


def parse_chain_text(text: str) -> list[Matroid]:
    """Parse a chain file: matroid blocks, one per level, in file order.

    The file is split into blocks by :func:`_chain_blocks`, then every
    block is parsed.  Error line numbers count from the top of the file.
    """
    return [_parse_block(b) for b in _chain_blocks(text)]


def _chain_blocks(text: str) -> list[list[tuple[int, str]]]:
    """A chain file's matroid blocks, unparsed: each block's content lines,
    each paired with its line number in the file, for :func:`_parse_block`.

    A block opens at each line whose first token is ``matroid``; ``#`` and
    blank lines before the first block are skipped, anything else there is
    an input error.
    """
    blocks: list[list[tuple[int, str]]] = []
    for no, line in _content_lines(text):
        if line.split()[0] == "matroid":
            blocks.append([])
        elif not blocks:
            raise ParseError(no, f"chain file must open with 'matroid <kind>', got {line!r}")
        blocks[-1].append((no, line))
    return blocks


def _parse_block(lines: list[tuple[int, str]]) -> Matroid:
    """A matroid from its content lines, each paired with its line number.

    An error about a line the block lacks names the block's opening
    ``matroid <kind>`` line.
    """
    if not lines:
        raise ParseError(1, "empty matroid file")
    first_no, first = lines[0]
    parts = first.split()
    if len(parts) != 2 or parts[0] != "matroid":
        raise ParseError(first_no, f"expected 'matroid <kind>', got {first!r}")
    kind = parts[1]
    body = lines[1:]
    if kind == "uniform":
        return _parse_uniform(first_no, body)
    if kind == "graphic":
        return _parse_graphic(body)
    if kind == "linear":
        return _parse_linear(first_no, body)
    if kind == "table":
        return _parse_table(first_no, body)
    raise ParseError(first_no, f"unknown matroid kind {kind!r}")


def _want_int(no: int, token: str, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(no, f"{what} must be an integer, got {token!r}") from None


def _parse_uniform(head_no: int, body) -> Matroid:
    vals = {}
    for no, line in body:
        parts = line.split()
        if len(parts) != 2 or parts[0] not in ("n", "k"):
            raise ParseError(no, f"expected 'n <int>' or 'k <int>', got {line!r}")
        if parts[0] in vals:
            raise ParseError(no, f"duplicate '{parts[0]}' line")
        vals[parts[0]] = _want_int(no, parts[1], parts[0])
    if "n" not in vals or "k" not in vals:
        raise ParseError(head_no, "uniform matroid needs both 'n' and 'k' lines")
    return uniform(vals["n"], vals["k"])


def _parse_graphic(body) -> Matroid:
    edges = []
    for no, line in body:
        parts = line.split()
        if len(parts) != 4 or parts[0] != "edge":
            raise ParseError(no, f"expected 'edge <id> <u> <v>', got {line!r}")
        edges.append((_want_int(no, parts[1], "edge id"), parts[2], parts[3]))
    return graphic(GraphSpec(tuple(edges)))


def _parse_linear(head_no: int, body) -> Matroid:
    head: dict[str, int] = {}
    rows: dict[int, tuple[int, ...]] = {}
    for no, line in body:
        parts = line.split()
        if parts[0] in ("field", "dim") and len(parts) == 2:
            if parts[0] in head:
                raise ParseError(no, f"duplicate '{parts[0]}' line")
            head[parts[0]] = _want_int(no, parts[1], parts[0])
        elif parts[0] == "vec":
            if "dim" not in head:
                raise ParseError(no, "'dim' must appear before 'vec' lines")
            if len(parts) != 2 + head["dim"]:
                raise ParseError(no, f"vec needs id plus {head['dim']} coordinates")
            vid = _want_int(no, parts[1], "vec id")
            if vid in rows:
                raise ParseError(no, f"duplicate vector id {vid}")
            rows[vid] = tuple(_want_int(no, c, "coordinate") for c in parts[2:])
        else:
            raise ParseError(no, f"unexpected line {line!r}")
    if "field" not in head or "dim" not in head:
        raise ParseError(head_no, "linear matroid needs 'field' and 'dim' lines")
    if sorted(rows) != list(range(len(rows))):
        raise ParseError(head_no, "vector ids must be dense 0..n-1")
    vectors = tuple(rows[i] for i in range(len(rows)))
    return linear(VectorSpec(head["field"], head["dim"], vectors))


def _parse_table(head_no: int, body) -> Matroid:
    """A table matroid from its body lines.

    Once the ``n`` line is read, a subset literal in canonical form (as
    ``set_literal`` writes it) is looked up in ``core._subset_by_literal``,
    up to its bound; any other token, or any token before the ``n``
    line, goes through :func:`parse_subset_literal`, which names the
    fault if there is one.
    """
    n = None
    canonical: dict[str, frozenset[int]] = {}
    ranks: dict[frozenset[int], int] = {}
    for no, line in body:
        parts = line.split(maxsplit=2)
        if parts[0] == "n" and len(parts) == 2:
            if n is not None:
                raise ParseError(no, "duplicate 'n' line")
            n = _want_int(no, parts[1], "n")
            canonical = _subset_by_literal(n)
        elif parts[0] == "rank" and len(parts) == 3:
            key = canonical.get(parts[1])
            if key is None:
                try:
                    key = frozenset(parse_subset_literal(parts[1]))
                except MatroidError as e:
                    raise ParseError(no, str(e)) from None
            if key in ranks:
                raise ParseError(no, f"duplicate rank line for {parts[1]}")
            ranks[key] = _want_int(no, parts[2], "rank value")
        else:
            raise ParseError(no, f"expected 'n <int>' or 'rank {{..}} <int>', got {line!r}")
    if n is None:
        raise ParseError(head_no, "table matroid needs an 'n' line")
    return from_table(TableSpec(n, ranks))


def serialize_matroid(m: Matroid) -> str:
    """Canonical text for a matroid, preferring its construction kind.

    Matroids built by uniform/graphic/linear re-emit their own grammar;
    a table matroid, and anything else (contractions, user oracles),
    writes its mask table, one line per subset in (size, lex) order.  A
    table matroid's mask table is its spec's ranks in mask order.
    Output is byte-deterministic.
    """
    spec = m.spec
    if isinstance(spec, UniformSpec):
        return f"matroid uniform\nn {spec.n}\nk {spec.k}\n"
    if isinstance(spec, GraphSpec):
        lines = ["matroid graphic"]
        for eid, u, v in sorted(spec.edges):
            lines.append(f"edge {eid} {u} {v}")
        return "\n".join(lines) + "\n"
    if isinstance(spec, VectorSpec):
        lines = [f"matroid linear", f"field {spec.p}", f"dim {spec.dim}"]
        for i, vec in enumerate(spec.vectors):
            lines.append("vec " + str(i) + " " + " ".join(str(c) for c in vec))
        return "\n".join(lines) + "\n"
    n, table = m.n, m.mask_table()
    literals = _subset_literals(n)
    lines = ["matroid table", f"n {n}"]
    lines += [f"rank {literals[a]} {table[a]}" for a in _subsets_by_size((1 << n) - 1)]
    return "\n".join(lines) + "\n"


def parse_listing_text(text: str, n: int | None = None) -> dict[int, frozenset]:
    """Parse ``list <id> : <tok> ...`` lines into an id -> color-set map.

    When n is given, the listing must cover exactly the ids 0..n-1.
    """
    lists: dict[int, frozenset] = {}
    for no, line in _content_lines(text):
        parts = line.split()
        if len(parts) < 3 or parts[0] != "list" or parts[2] != ":":
            raise ParseError(no, f"expected 'list <id> : <tok> ...', got {line!r}")
        lid = _want_int(no, parts[1], "element id")
        if lid in lists:
            raise ParseError(no, f"element {lid} listed twice")
        lists[lid] = frozenset(parts[3:])
    # compare sizes first, so a huge n is refused without building range(n)
    if n is not None and (len(lists) != n or set(lists) != set(range(n))):
        raise MatroidError(
            f"listing covers {sorted(lists)} but the ground set is 0..{n-1}"
        )
    return lists


def serialize_listing(lists) -> str:
    lines = []
    for x in sorted(lists):
        toks = " ".join(sorted(str(c) for c in lists[x]))
        lines.append(f"list {x} : {toks}")
    return "\n".join(lines) + "\n"
