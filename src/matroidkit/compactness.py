"""Extend list colorings along a growing chain of finite restrictions.

A chain is a sequence of matroids m_0, m_1, ... on nested ground sets
(element ids are shared prefixes) whose ranks agree wherever both are
defined, i.e. successive finite restrictions of one underlying matroid.
Any proper list coloring of a level restricts to a proper coloring of
every earlier level, so the proper colorings of the levels form a
finitely-branching tree under restriction; a finite-depth backtracking
walk of that tree is the constructive stand-in for choosing a coherent
coloring of the whole chain at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .coloring import _color_sort_key, _list_colorings
from .constructions import graphic, uniform
from .core import (
    BoundExceededError,
    GroundSetError,
    Matroid,
    MatroidError,
    _masks_by_size,
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
    if small.n > LEVEL_SIZE_BOUND:
        raise BoundExceededError(
            f"consistency check is exhaustive; level {level-1} has {small.n} "
            f"elements, bound is {LEVEL_SIZE_BOUND}"
        )
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
        m = graphic(edges)
        m.name = f"triangles(level {i})"
        return m

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
        m = graphic(edges)
        m.name = f"fan(level {i})"
        return m

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


def restriction_colorings(chain: MatroidChain, lists, i: int, max_level: int | None = None):
    """All proper list colorings of level i, in lexicographic assignment order."""
    m = chain.level(i)
    bound = LEVEL_SIZE_BOUND if max_level is None else max_level
    if m.n > bound:
        raise BoundExceededError(f"level {i} has {m.n} elements, bound is {bound}")
    norm = _level_lists(m, lists)
    table = m.mask_table(max_n=bound)
    return [dict(phi) for phi in _list_colorings(table, range(m.n), norm, {}, {})]


def extend_coloring(chain: MatroidChain, lists, depth: int, max_level: int | None = None):
    """Proper list coloring of level `depth` found by walking the level tree.

    Backtracks over proper colorings level by level; a coloring chosen at
    level i is only ever extended (new elements assigned), so on success
    the result restricts to a proper coloring of every earlier level.
    Returns None when no coloring of the deepest level exists.
    """
    bound = LEVEL_SIZE_BOUND if max_level is None else max_level
    levels = [chain.level(i) for i in range(depth + 1)]
    for i, m in enumerate(levels):
        if m.n > bound:
            raise BoundExceededError(f"level {i} has {m.n} elements, bound is {bound}")
    norms = [_level_lists(m, lists) for m in levels]
    tables = [m.mask_table(max_n=bound) for m in levels]
    phi: dict = {}
    class_masks: dict = {}

    def walk(i: int):
        """Extend the shared phi over level i's new elements, then recurse."""
        start = levels[i - 1].n if i else 0
        for _ in _list_colorings(tables[i], range(start, levels[i].n), norms[i], phi, class_masks):
            found = dict(phi) if i == depth else walk(i + 1)
            if found is not None:
                return found
        return None

    return walk(0)


def first_uncolorable_level(chain: MatroidChain, lists, depth: int, max_level: int | None = None):
    """Smallest level index up to depth with no proper list coloring, or None."""
    for i in range(depth + 1):
        if not restriction_colorings(chain, lists, i, max_level=max_level):
            return i
    return None
