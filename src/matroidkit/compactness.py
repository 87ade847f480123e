"""Extend list colorings along a growing chain of finite restrictions.

A chain is a sequence of matroids m_0, m_1, ... on nested ground sets
(element ids are shared prefixes) whose ranks agree wherever both are
defined, i.e. successive finite restrictions of one underlying matroid.
Any proper list coloring of a level restricts to a proper coloring of
every earlier level, so the proper colorings of the levels form a
finitely-branching tree under restriction; a finite-depth backtracking
walk of that tree is the constructive stand-in for choosing a coherent
coloring of the whole chain at once.

Level i is the restriction of every later level to the id prefix
range(n_i), with the same ranks: building level i + 1 checks that level
i's mask table is a prefix of its own, so levels share the table's bound.
So level i has a coloring exactly when the deepest level's prefix
range(n_i) has one, and one ``_first_list_coloring`` run over range(n)
on the deepest level's table answers both queries: its coloring is the
first leaf of the level-by-level tree walk, and when it fails, the first
level longer than the longest prefix it colored is the first uncolorable
one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .coloring import _first_list_coloring, _refuse_non_mapping, _refuse_spent, _sorted_lists
from .constructions import graphic, uniform
from .core import (
    VALIDATION_BOUND,
    BoundExceededError,
    GroundSetError,
    Matroid,
    MatroidError,
    _subsets_by_size,
    bits,
    set_literal,
)


class ChainError(MatroidError):
    """The levels of a chain are not restrictions of one matroid."""


@dataclass
class MatroidChain:
    """Lazily evaluated chain of growing finite restrictions."""

    name: str
    level_fn: Callable[[int], Matroid]

    def __post_init__(self):
        self._levels: list[Matroid] = []

    def level(self, i: int) -> Matroid:
        """Level i, with growth and rank-consistency checked on first access.

        Missing levels are built and checked in ascending order.  A depth
        outside 0..VALIDATION_BOUND is refused before any level is built.
        """
        _refuse_depth(i)
        for j in range(len(self._levels), i + 1):
            m = self.level_fn(j)
            if j > 0:
                prev = self._levels[j - 1]
                if m.n <= prev.n:
                    raise ChainError(
                        f"level {j} has {m.n} elements, not more than level "
                        f"{j-1}'s {prev.n}"
                    )
                _check_consistent(prev, m, j)
            self._levels.append(m)
        return self._levels[i]


def _refuse_depth(i: int) -> None:
    """Refuse a depth that is no int (a bool or a float that equals one
    too), a negative depth, and one above VALIDATION_BOUND: levels grow,
    so level i has at least i elements, too many for its mask table."""
    if type(i) is not int:
        raise GroundSetError(f"chain depth must be an int, got {i!r}")
    if i < 0:
        raise GroundSetError("chain levels are indexed from 0")
    if i > VALIDATION_BOUND:
        raise BoundExceededError(f"chain levels need depth <= {VALIDATION_BOUND}, got {i}")


def _check_consistent(small: Matroid, big: Matroid, level: int):
    """Ranks of the larger level must agree on the smaller ground set: the
    smaller level's mask table is a prefix of the larger one's.  A
    disagreement is named at its first subset in (size, lex) order."""
    want = small.mask_table()
    got = big.mask_table()
    if got[: len(want)] != want:
        a = next(a for a in _subsets_by_size((1 << small.n) - 1) if got[a] != want[a])
        raise ChainError(
            f"level {level} disagrees with level {level-1} on "
            f"{set_literal(bits(a))}: {got[a]} vs {want[a]}"
        )


# --- built-in families ----------------------------------------------------

def disjoint_triangles() -> MatroidChain:
    """Level i: i+1 vertex-disjoint triangles (3 new edges per level)."""

    def build(i: int) -> Matroid:
        edges = []
        for t in range(i + 1):
            a, b, c = f"t{t}a", f"t{t}b", f"t{t}c"
            edges += [(3 * t, a, b), (3 * t + 1, a, c), (3 * t + 2, b, c)]
        return graphic(edges, name=f"triangles(level {i})")

    return MatroidChain("disjoint-triangles", build)


def growing_cycle() -> MatroidChain:
    """Level i: a fan with i+1 cycles (triangle plus 2 new edges per level).

    Vertices 0,1,2,...; edge 2j is the rim edge {j, j+1}, edge 2j+1 the
    spoke {0, j+1}; every level closes one more cycle.
    """

    def build(i: int) -> Matroid:
        edges = [(0, "v0", "v1")]
        eid = 1
        for j in range(1, i + 2):
            edges.append((eid, f"v{j}", f"v{j+1}"))
            eid += 1
            edges.append((eid, "v0", f"v{j+1}"))
            eid += 1
        return graphic(edges, name=f"fan(level {i})")

    return MatroidChain("growing-cycle", build)


def growing_uniform(k: int = 2) -> MatroidChain:
    """Level i: uniform matroid of rank k on k+1+i elements."""

    def build(i: int) -> Matroid:
        return uniform(k + 1 + i, k)

    return MatroidChain("growing-uniform", build)


BUILTIN_FAMILIES = {
    "disjoint-triangles": disjoint_triangles,
    "growing-cycle": growing_cycle,
    "growing-uniform": growing_uniform,
}


def chain_from_matroids(ms: list[Matroid], name: str = "file-chain") -> MatroidChain:
    """Chain whose levels are the given matroids (consistency still checked)."""
    if not ms:
        raise GroundSetError("a chain needs at least one level")

    def build(i: int) -> Matroid:
        if i >= len(ms):
            raise GroundSetError(f"chain has {len(ms)} levels, level {i} requested")
        return ms[i]

    return MatroidChain(name, build)


# --- coloring along the chain ----------------------------------------------

def _level_lists(m: Matroid, lists) -> list[tuple]:
    """The sorted lists of m's elements, in id order.

    It refuses first a listing that is no mapping, then any key that is
    no int, rather than read it as an id
    (True and 1.0 both equal 1).  The lists are read in id order in one
    lookup pass, so a listing that stops covering names its first gap.
    A mapping whose lookup fills a missing key (a ``defaultdict``) grows
    in that pass: whether the pass returns or raises, its filled keys are
    deleted again, and the first one, in id order, is refused as a gap,
    as every other listing route refuses a listing that misses an
    element.
    """
    if type(lists) is not dict:
        _refuse_non_mapping(lists, "listing")
    if not set(map(type, lists)) <= {int}:
        bad = next(x for x in lists if type(x) is not int)
        raise GroundSetError(f"element {bad!r} outside ground set of size {m.n}")
    size = len(lists)
    try:
        return _sorted_lists(lists, range(m.n))
    except KeyError as e:  # the lookup pass stops at the first id not covered
        raise GroundSetError(f"listing does not cover element {e.args[0]}") from None
    finally:
        # whatever the pass returned or raised (a filled value that the
        # type scan cannot read raises TypeError), growth is a gap
        if len(lists) != size:
            filled = list(lists)[size:]  # in insertion order, the order of the lookups
            for x in filled:
                del lists[x]
            raise GroundSetError(f"listing does not cover element {filled[0]}") from None


def _search_chain(chain: MatroidChain, lists, depth: int):
    """(first coloring of level `depth`, None), or (None, first level with
    no coloring): one search on level `depth`'s table, after the listing
    is checked.  A failed search names the longest prefix it colored, and
    the first level longer than that is the first uncolorable one.
    """
    m = chain.level(depth)
    norm = _level_lists(m, lists)
    coloring, colored = _first_list_coloring(m.mask_table(), range(m.n), norm)
    if coloring is not None:
        return coloring, None
    _refuse_spent(lists, range(m.n), norm)
    return None, next(i for i in range(depth + 1) if chain.level(i).n > colored)


def extend_coloring(chain: MatroidChain, lists, depth: int):
    """First proper list coloring of level `depth`, or None if it has none.

    It restricts to a proper coloring of every earlier level.
    """
    return _search_chain(chain, lists, depth)[0]


def first_uncolorable_level(chain: MatroidChain, lists, depth: int):
    """Smallest level index up to depth with no proper list coloring, or None.

    The listing must cover level `depth`, which is built with every level
    below it; a depth outside 0..VALIDATION_BOUND is refused first.
    """
    return _search_chain(chain, lists, depth)[1]
