"""Small named instances and the standard desk-scale suite.

Everything here is tiny on purpose: the library's correctness story is
exhaustive checking at desk scale, and these are the instances the lemma
battery, the coloring checks and the CLI examples all run against.
"""

from __future__ import annotations

from .constructions import VectorSpec, graphic, linear, uniform
from .core import Matroid


def triangle() -> Matroid:
    """Cycle matroid of a triangle: one circuit, the full edge set."""
    return graphic([(0, "a", "b"), (1, "a", "c"), (2, "b", "c")], name="triangle")


def theta() -> Matroid:
    """Two triangles sharing an edge (edge 1 = the shared one)."""
    return graphic(
        [(0, "a", "b"), (1, "b", "c"), (2, "c", "a"), (3, "b", "d"), (4, "d", "c")],
        name="theta",
    )


def square() -> Matroid:
    """4-cycle."""
    return graphic([(0, "a", "b"), (1, "b", "c"), (2, "c", "d"), (3, "d", "a")], name="square")


def path(length: int = 3) -> Matroid:
    edges = [(i, f"v{i}", f"v{i+1}") for i in range(length)]
    return graphic(edges, name=f"path({length})")


def self_loop_triangle() -> Matroid:
    """Triangle plus a self-loop: the smallest loopy graphic example."""
    return graphic(
        [(0, "a", "b"), (1, "a", "c"), (2, "b", "c"), (3, "a", "a")], name="triangle+selfloop"
    )


def parallel_pair() -> Matroid:
    return graphic([(0, "a", "b"), (1, "a", "b")], name="parallel-pair")


def gf2_line() -> Matroid:
    """(1,0), (0,1), (1,1) over GF(2): a 3-element circuit of rank 2."""
    return linear(VectorSpec(2, 2, ((1, 0), (0, 1), (1, 1))), name="gf2-line")


def gf2_parallel() -> Matroid:
    """Two equal vectors plus two independent ones over GF(2)."""
    return linear(VectorSpec(2, 2, ((1, 0), (1, 0), (0, 1), (1, 1))), name="gf2-parallel")


def gf2_with_loop() -> Matroid:
    return linear(VectorSpec(2, 2, ((0, 0), (1, 0), (0, 1))), name="gf2-loop")


def fano() -> Matroid:
    """All seven nonzero vectors of GF(2)^3."""
    vecs = tuple(
        (a, b, c)
        for a in (0, 1)
        for b in (0, 1)
        for c in (0, 1)
        if (a, b, c) != (0, 0, 0)
    )
    return linear(VectorSpec(2, 3, vecs), name="fano")


def desk_suite(max_n: int = 7, loop_free_only: bool = False) -> list[Matroid]:
    """The standard instance battery, capped at the given ground-set size."""
    out: list[Matroid] = []
    for n in range(max_n + 1):
        for k in range(n + 1):
            out.append(uniform(n, k))
    out.extend(
        [
            triangle(),
            theta(),
            square(),
            path(3),
            parallel_pair(),
            self_loop_triangle(),
            gf2_line(),
            gf2_parallel(),
            gf2_with_loop(),
            fano(),
        ]
    )
    out = [m for m in out if m.n <= max_n]
    if loop_free_only:
        from .core import is_loop_free

        out = [m for m in out if is_loop_free(m)]
    return out
