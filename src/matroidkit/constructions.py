"""Concrete rank oracles: uniform, graphic, linear over GF(p), tables."""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from typing import Iterable

from .core import (
    VALIDATION_BOUND,
    AxiomError,
    GroundSetError,
    Matroid,
    _bad_rank,
    _count_table,
    _refuse_above,
    _sized_subset_pool,
    _subset_pool,
    bits,
    mask_of,
    set_literal,
    validate_axioms,
)

# Spec ids, sizes and coordinates are plain ints, and table keys plain
# frozensets: a value that only equals an int (True, 1.0) would be
# written back as text the file grammar refuses.
_INT = frozenset({int})
_FROZENSET = frozenset({frozenset})


@dataclass(frozen=True)
class UniformSpec:
    """The uniform matroid of rank k on n elements."""

    n: int
    k: int


def uniform(n: int, k: int) -> Matroid:
    """Uniform matroid: rank(A) = min(|A|, k)."""
    if type(n) is not int or type(k) is not int:
        raise GroundSetError(f"uniform needs int n and k, got n={n!r}, k={k!r}")
    if n < 0 or k < 0 or k > n:
        raise GroundSetError(f"uniform needs 0 <= k <= n, got n={n}, k={k}")
    spec = UniformSpec(n, k)
    return Matroid(n, lambda a: min(a.bit_count(), k), name=f"uniform({n},{k})", spec=spec)


@dataclass(frozen=True)
class GraphSpec:
    """A multigraph given as (edge id, endpoint, endpoint) triples.

    Each edge is a tuple of exactly three items.  Vertex tokens are
    nonempty strings without whitespace, so that each is one token of an
    ``edge`` line; self-loops (u == v) and parallel edges are allowed.
    Edge ids are ints, exactly 0..len-1.
    """

    edges: tuple[tuple[int, str, str], ...]

    def __post_init__(self):
        for e in self.edges:
            if type(e) is not tuple or len(e) != 3:
                raise GroundSetError(f"edge {e!r} is not an (id, endpoint, endpoint) triple")
        ids = [e[0] for e in self.edges]
        if not _INT.issuperset(map(type, ids)):
            bad = next(i for i in ids if type(i) is not int)
            raise GroundSetError(f"edge id {bad!r} is not an int")
        if len(set(ids)) != len(ids):
            raise GroundSetError("duplicate edge ids in graph spec")
        if sorted(ids) != list(range(len(ids))):
            raise GroundSetError("edge ids must be dense 0..n-1")
        for e in self.edges:
            for v in e[1:3]:
                if type(v) is not str or v.split() != [v]:
                    raise GroundSetError(
                        f"vertex {v!r} of edge {e[0]} is not a nonempty string "
                        "without whitespace"
                    )


def graphic(spec: GraphSpec | list[tuple[int, str, str]], name: str = "") -> Matroid:
    """Cycle matroid of a multigraph.

    rank(A) = (vertices covered by A) - (connected components of the
    subgraph those edges induce).  A self-loop covers one vertex and one
    component, hence has rank 0.  The oracle grows a union-find forest
    over the vertices (:func:`_union`, with path halving) by the subset's
    edges: an edge gains rank iff it joins two trees.
    The mask table counts row-space vectors (:func:`core._count_table`)
    over GF(2), with no oracle call: the rows are the vertex
    stars, the edges at a vertex other than its self-loops, each held
    as its support mask, so a self-loop is a zero column, and the stars
    of every vertex but one per component are a basis.
    """
    if not isinstance(spec, GraphSpec):
        spec = GraphSpec(tuple(spec))
    by_id = {e[0]: (e[1], e[2]) for e in spec.edges}
    n = len(spec.edges)
    vertex = {v: i for i, v in enumerate(sorted({v for edge in by_id.values() for v in edge}))}
    ends = [(vertex[by_id[e][0]], vertex[by_id[e][1]]) for e in range(n)]

    def rank(a: int) -> int:
        parent = list(range(len(vertex)))
        r = 0
        for e in bits(a):
            r += _union(parent, *ends[e])
        return r

    def table() -> bytes:
        stars = [0] * len(vertex)  # the support mask of each vertex star
        parent = list(range(len(vertex)))  # one root per component
        for e, (u, v) in enumerate(ends):
            if u != v:
                stars[u] |= 1 << e
                stars[v] |= 1 << e
                _union(parent, u, v)
        return _count_table(n, 2, [star for v, star in enumerate(stars) if parent[v] != v])

    return Matroid(n, rank, name=name or f"graphic({n} edges)", spec=spec, table=table)


def _union(parent: list[int], u: int, v: int) -> bool:
    """Join the trees of u and v in a union-find forest; False if they were one tree.

    Each path to a root is halved on the way up.
    """
    while parent[u] != u:
        parent[u] = u = parent[parent[u]]
    while parent[v] != v:
        parent[v] = v = parent[parent[v]]
    parent[u] = v
    return u != v


# trial division up to sqrt(p) stays under 50,000 steps below this order
FIELD_ORDER_BOUND = 1 << 31


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class VectorSpec:
    """Vectors over GF(p): a prime, a dimension, and one row per element, all ints."""

    p: int
    dim: int
    vectors: tuple[tuple[int, ...], ...]  # vectors[id] = coordinates

    def __post_init__(self):
        if type(self.p) is not int or type(self.dim) is not int:
            raise GroundSetError(
                f"field order and dimension must be ints, got p={self.p!r}, dim={self.dim!r}"
            )
        if self.p >= FIELD_ORDER_BOUND:
            raise GroundSetError(f"field order {self.p} is too large: it must be below 2^31")
        if not _is_prime(self.p):
            raise GroundSetError(f"field order {self.p} is not prime")
        if self.dim < 1:
            raise GroundSetError("dimension must be positive")
        for i, v in enumerate(self.vectors):
            if len(v) != self.dim:
                raise GroundSetError(f"vector {i} has length {len(v)}, want {self.dim}")
        if not _INT.issuperset(map(type, itertools.chain.from_iterable(self.vectors))):
            i, c = next((i, c) for i, v in enumerate(self.vectors) for c in v if type(c) is not int)
            raise GroundSetError(f"vector {i} has coordinate {c!r}, not an int")


def linear(spec: VectorSpec, name: str = "") -> Matroid:
    """Linear matroid of a list of vectors over a prime field.

    rank(A) = dimension of the span of A's vectors, computed exactly.
    Coordinates are reduced mod p.  The matrix has one row per
    coordinate and one column per element.  Over GF(2) and GF(3) a row
    is bit-sliced over the elements: over GF(2) it is one mask, bit i
    holding v_i[j] mod 2, and over GF(3) a (ones, twos) pair of masks
    (:func:`_sliced_rows`).  Construction reduces the rows once to a
    basis of r rows (:func:`_sliced_basis`), and every rank question
    reads that basis.  The oracle's r(A) is the row rank of the basis
    rows ANDed with A (restricting a spanning set of the row space
    spans the restricted row space), so a call reduces at most r masked
    rows.  Over GF(p), p >= 5, the oracle row-reduces the matrix whose
    columns are A's vectors (:func:`_row_basis`) and counts the rows
    left.

    Over GF(2) and GF(3) the mask table counts row-space vectors
    (:func:`core._count_table`) from the basis rows, taken as they are.
    Over GF(p), p >= 5, and over GF(3) where the count would enumerate
    more vectors than the table has masks, 3^r > 2^n, no table function
    is passed, so :meth:`Matroid.mask_table` fills the table through the
    oracle, one call per mask.
    """
    p, dim, n = spec.p, spec.dim, len(spec.vectors)
    if p <= 3:
        rows = _sliced_basis(p, _sliced_rows(p, spec.vectors, dim), n)
        if p == 2:

            def rank(a: int) -> int:
                return len(_sliced_basis(2, map(a.__and__, rows), a.bit_count()))

        else:
            ones_rows, twos_rows = [v1 for v1, _ in rows], [v2 for _, v2 in rows]

            def rank(a: int) -> int:
                masked = zip(map(a.__and__, ones_rows), map(a.__and__, twos_rows))
                return len(_sliced_basis(3, masked, a.bit_count()))

    else:
        vecs = [tuple(c % p for c in v) for v in spec.vectors]

        def rank(a: int) -> int:
            return len(_row_basis(p, [vecs[i] for i in bits(a)], dim))

    counted = p <= 3 and p ** len(rows) <= 1 << n

    def table() -> list[int] | bytes:
        return _count_table(n, p, rows)

    return Matroid(
        n, rank, name=name or f"linear(GF({p}),{n} vecs)", spec=spec, table=table if counted else None
    )


# byte value -> the digit b"1" where it equals c, else b"0" (bytes.translate tables)
_DIGITS_OF = {c: bytes(48 + (b == c) for b in range(256)) for c in (1, 2)}


def _sliced_rows(p: int, vectors, dim: int) -> list:
    """The coordinate rows of the matrix whose column i is vectors[i], mod p in {2, 3}.

    Over GF(2) row j is the mask of the elements i with v_i[j] = 1 (mod
    2); over GF(3) it is the pair of masks of the elements where it
    holds 1 and where it holds 2.  Every coordinate is reduced by one
    C-level ``map`` into one bytes object, element n - 1 first; row j is
    then a strided slice of it, translated to binary digits and read by
    ``int(digits, 2)``, with no Python step per entry and in time linear
    in n (summing one bit per element would be quadratic).
    """
    if not vectors:
        return []
    flat = bytes(map(p.__rmod__, itertools.chain.from_iterable(reversed(vectors))))
    ones = flat.translate(_DIGITS_OF[1])
    if p == 2:
        return [int(ones[j::dim], 2) for j in range(dim)]
    twos = flat.translate(_DIGITS_OF[2])
    return [(int(ones[j::dim], 2), int(twos[j::dim], 2)) for j in range(dim)]


def _sliced_basis(p: int, rows: Iterable, columns: int) -> list:
    """A basis of the span of bit-sliced rows over GF(2) or GF(3) (see
    :func:`_sliced_rows`) that are nonzero in at most ``columns`` columns.

    Each row is reduced by the basis rows kept before it, whose pivots,
    their lowest set bits, are distinct, until its own lowest set bit is
    no pivot; it is then kept, scaled to 1 there, unless nothing is
    left.  Over GF(2) a reduction is one XOR.  Over GF(3) it is one
    bit-sliced add: v + w holds 1 at (v1 | w1) ^ (v & w) and 2 at
    (v2 | w2) ^ (v & w), with v and w the supports; subtracting w adds
    the swapped pair, and scaling by 2 swaps the pair.  Once every
    column holds a pivot the basis spans every row, so the rows left
    are not read.
    """
    basis: dict[int, object] = {}  # pivot bit -> the row kept with it
    if p == 2:
        for row in rows:
            if len(basis) == columns:
                break
            while row:
                low = row & -row
                kept = basis.get(low)
                if kept is None:
                    basis[low] = row
                    break
                row ^= kept
        return list(basis.values())
    for ones, twos in rows:
        if len(basis) == columns:
            break
        while v := ones | twos:
            low = v & -v
            kept = basis.get(low)
            if kept is None:
                basis[low] = (ones, twos) if ones & low else (twos, ones)
                break
            w1, w2 = kept  # 1 at the pivot
            if ones & low:  # subtract kept: add 2 * kept, the swapped pair
                w1, w2 = w2, w1
            both = v & (w1 | w2)
            ones, twos = (ones | w1) ^ both, (twos | w2) ^ both
    return list(basis.values())


def _row_basis(p: int, vecs: list[tuple[int, ...]], dim: int) -> list[list[int]]:
    """A basis of the row space of the matrix whose column i is vecs[i], entries mod p.

    Gaussian elimination: each row is reduced by the basis rows kept
    before it, each 1 at its pivot and 0 at every earlier pivot, and is
    kept, scaled to 1 at its first nonzero entry if it is not 1 there
    already, if anything is left.  Once every column holds a pivot the
    basis spans all of GF(p)^len(vecs), so the rows left are not read.
    """
    basis: list[tuple[int, list[int]]] = []
    for j in range(dim):
        if len(basis) == len(vecs):
            break
        row = [v[j] for v in vecs]
        for pivot, kept in basis:
            f = row[pivot]
            if f:
                row = [(a - f * b) % p for a, b in zip(row, kept)]
        for pivot, a in enumerate(row):
            if a:
                if a != 1:
                    inv = pow(a, -1, p)
                    row = [b * inv % p for b in row]
                basis.append((pivot, row))
                break
    return [row for _, row in basis]


@dataclass(frozen=True)
class TableSpec:
    """An explicit rank table: one value per subset of range(n).

    Every key must be a frozenset, and a subset of range(n) whose ids
    are ints: an id that only equals one (``True``, ``1.0``) is refused,
    as everywhere else.  A table keyed by :func:`tabulate`'s own subset
    objects, every one, in mask order (see ``core._subset_pool``) or in
    the (size, lex) order in which a parsed table file holds them (see
    ``core._sized_subset_pool``), is accepted by one identity test per
    key.  Any other table has its keys' types checked in one pass, then
    its keys by one subset test each and its ids by one pass over their
    types, all in C; if one fails, the first bad key in the dict's order
    is named, before a short table is.
    """

    n: int
    ranks: dict[frozenset[int], int] = field(hash=False)

    def __post_init__(self):
        if type(self.n) is not int:
            raise GroundSetError(f"ground set size must be an int, got {self.n!r}")
        if self.n < 0:
            raise GroundSetError("ground set size must be nonnegative")
        _refuse_above(self.n, VALIDATION_BOUND, "mask table")
        pool = _subset_pool(self.n)
        if (
            pool is not None
            and len(self.ranks) == len(pool)
            and (
                all(map(operator.is_, self.ranks, pool))
                or all(map(operator.is_, self.ranks, _sized_subset_pool(self.n)))
            )
        ):
            return
        if not _FROZENSET.issuperset(map(type, self.ranks)):
            bad = next(key for key in self.ranks if type(key) is not frozenset)
            raise GroundSetError(f"rank table key {bad!r} is not a frozenset")
        ground = frozenset(range(self.n))
        if not all(map(ground.issuperset, self.ranks)) or not _INT.issuperset(
            map(type, itertools.chain.from_iterable(self.ranks))
        ):
            bad = next(
                key for key in self.ranks
                if not ground.issuperset(key) or not _INT.issuperset(map(type, key))
            )
            raise GroundSetError(f"subset {set_literal(bad)} outside ground set (n={self.n})")
        want = 1 << self.n
        if len(self.ranks) != want:
            missing = want - len(self.ranks)
            raise GroundSetError(
                f"rank table incomplete: {len(self.ranks)} of {want} subsets "
                f"({missing} missing)"
            )


def from_table(spec: TableSpec) -> Matroid:
    """Matroid backed by an explicit table; rejects non-matroids.

    Construction reads the table once into a list in mask order
    (``TableSpec`` has checked that the keys are every subset of
    range(n)): one dict lookup per subset of ``core._subset_pool``, or,
    above its bound, one ``mask_of`` per key.  The oracle reads that
    list.  The same list is the mask table, once every entry is
    checked to be a nonnegative int (not a bool); otherwise the first
    bad mask in mask order is refused as a bad oracle value.  It then
    runs :func:`validate_axioms`, one pass over the local unit-increase
    axioms in O(n) operations on whole-table byte sets, and raises
    AxiomError (carrying the report of the first local failure: the
    axiom it breaks and a witness that breaks it) if the table is not a
    matroid rank function.
    """
    pool = _subset_pool(spec.n)
    if pool is None:
        ranks = [0] * (1 << spec.n)
        for key, r in spec.ranks.items():
            ranks[mask_of(key)] = r
    else:
        ranks = list(map(spec.ranks.__getitem__, pool))

    def table() -> list[int]:
        if set(map(type, ranks)) != {int} or min(ranks) < 0:
            bad = next(a for a, r in enumerate(ranks) if type(r) is not int or r < 0)
            raise _bad_rank(ranks[bad], bad)
        return ranks

    m = Matroid(spec.n, lambda a: ranks[a], name=f"table(n={spec.n})", spec=spec, table=table)
    report = validate_axioms(m)
    if not report.ok:
        raise AxiomError(report)
    return m


def tabulate(m: Matroid) -> TableSpec:
    """Freeze a matroid's oracle into an explicit table.

    Up to ``core._SUBSET_POOL_BOUND`` elements the keys are the shared
    subset objects of ``core._subset_pool``, in mask order, so tables of
    one size share their keys and ``TableSpec`` accepts them by identity.
    """
    table = m.mask_table()
    keys = _subset_pool(m.n)
    if keys is None:
        keys = map(frozenset, map(bits, range(1 << m.n)))
    return TableSpec(m.n, dict(zip(keys, table)))

