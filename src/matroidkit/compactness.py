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
range(n_i), with the same ranks (checked subset by subset when the level
is built).  So a color class inside level i is independent in level i
exactly when it is independent in the deepest level, and walking the tree
level by level, in id order, is the same depth-first search as a single
``_list_colorings`` run over range(n) on the deepest level's rank table.
Each query here is one such run on one level's table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .coloring import _color_sort_key, _list_colorings
from .constructions import graphic, uniform
from .core import (
    GroundSetError,
    Matroid,
    MatroidError,
    _masks_by_size,
    _refuse_above,
    bits,
    set_literal,
)

LEVEL_SIZE_BOUND = 16


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

        Missing levels are built and checked in ascending order.
        """
        if i < 0:
            raise GroundSetError("chain levels are indexed from 0")
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


def _check_consistent(small: Matroid, big: Matroid, level: int):
    """Ranks of the larger level must agree on the smaller ground set.

    Every subset is checked; above LEVEL_SIZE_BOUND this refuses rather
    than sample.
    """
    _refuse_above(small.n, LEVEL_SIZE_BOUND, f"consistency check of level {level - 1}")
    for a in _masks_by_size(small.n):
        if small.rank_of_mask(a) != big.rank_of_mask(a):
            raise ChainError(
                f"level {level} disagrees with level {level-1} on "
                f"{set_literal(bits(a))}: {big.rank_of_mask(a)} vs {small.rank_of_mask(a)}"
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

def _level_lists(m: Matroid, lists) -> dict[int, tuple]:
    out = {}
    for x in range(m.n):
        if x not in lists:
            raise GroundSetError(f"listing does not cover element {x}")
        out[x] = tuple(sorted(lists[x], key=_color_sort_key))
    return out


def _level_colorings(chain: MatroidChain, lists, i: int):
    """Level i's proper list colorings in id order, as one lazy search.

    Building level i checks every earlier level, so the first level above
    LEVEL_SIZE_BOUND is refused by name before the search starts.  The
    yielded phi is live: callers copy what they keep.
    """
    m = chain.level(i)
    _refuse_above(m.n, LEVEL_SIZE_BOUND, f"list search on level {i}")
    norm = _level_lists(m, lists)
    table = m.mask_table()
    return _list_colorings(table, range(m.n), norm, {}, {})


def restriction_colorings(chain: MatroidChain, lists, i: int):
    """All proper list colorings of level i, in lexicographic assignment order."""
    return [dict(phi) for phi in _level_colorings(chain, lists, i)]


def extend_coloring(chain: MatroidChain, lists, depth: int):
    """First proper list coloring of level `depth`, or None if it has none.

    This is the first leaf of the level-by-level tree walk, found by one
    search on the deepest level's table (see the module docstring); it
    restricts to a proper coloring of every earlier level.
    """
    return next((dict(phi) for phi in _level_colorings(chain, lists, depth)), None)


def first_uncolorable_level(chain: MatroidChain, lists, depth: int):
    """Smallest level index up to depth with no proper list coloring, or None.

    Each level is tested for the existence of one coloring; none is listed.
    A negative depth is refused before any level is built, as by
    ``chain.level``.
    """
    if depth < 0:
        raise GroundSetError("chain levels are indexed from 0")
    for i in range(depth + 1):
        if next(_level_colorings(chain, lists, i), None) is None:
            return i
    return None
