"""Input generators and answer checks shared by the workloads.

The checks here do not call the routes they check: properness is tested
against the matroid's circuit list (no color class may contain a
circuit), not against rank-of-class as ``is_proper`` does.
"""

from __future__ import annotations

import random

import matroidkit as mk


def circuit_masks(m) -> list[int]:
    return [c.mask() for c in mk.circuits(m)]


def coloring_fault(n: int, circ_masks, lists, phi) -> str | None:
    """Why phi is not a proper list coloring of the matroid, or None."""
    if phi is None:
        return "no coloring returned"
    if set(phi) != set(range(n)):
        return f"coloring covers {sorted(phi)}, not 0..{n - 1}"
    classes: dict = {}
    for x, c in phi.items():
        if c not in lists[x]:
            return f"element {x} got color {c!r} outside its list"
        classes[c] = classes.get(c, 0) | 1 << x
    for mask in classes.values():
        for cm in circ_masks:
            if cm & ~mask == 0:
                return f"circuit {mk.set_literal(mk.core.bits(cm))} is monochromatic"
    return None


def random_listing(rng: random.Random, n: int, size: int, palette: int) -> dict:
    colors = [f"c{i}" for i in range(palette)]
    return {x: frozenset(rng.sample(colors, size)) for x in range(n)}


def random_vectors(rng: random.Random, n: int, p: int, dim: int, loop_free: bool):
    out = []
    while len(out) < n:
        v = tuple(rng.randrange(p) for _ in range(dim))
        if loop_free and not any(v):
            continue
        out.append(v)
    return tuple(out)


def random_edges(rng: random.Random, n: int, vertices: int):
    """n loop-free edges (parallel edges allowed) on the given vertex count."""
    names = [f"v{i}" for i in range(vertices)]
    return tuple((e, *rng.sample(names, 2)) for e in range(n))


def random_matroid(rng: random.Random, kind: str, n: int):
    """A loop-free GF(2), GF(3) or graphic matroid on n elements."""
    if kind == "gf2":
        return mk.linear(mk.VectorSpec(2, 4, random_vectors(rng, n, 2, 4, True)))
    if kind == "gf3":
        return mk.linear(mk.VectorSpec(3, 3, random_vectors(rng, n, 3, 3, True)))
    if kind == "graphic":
        return mk.graphic(random_edges(rng, n, n // 2 + 1))
    raise ValueError(kind)
