"""Contraction by a subset.

For finite ground sets the contracted rank is simply
r'(A) = r(A u Z) - r(Z): the contracted set itself attains the minimum of
r(A u Z0) - r(Z0) over its subsets Z0 (enlarging a fitting set keeps it
fitting).  The explicit minimization is retained as a test oracle.
"""

from __future__ import annotations

from .core import (
    GroundSetError,
    Matroid,
    _refuse_ground_set_scan,
    _sub_masks,
    bits,
    mask_of,
    set_literal,
)


def contract(m: Matroid, z) -> Matroid:
    """Contraction: matroid on the complement of z, re-indexed densely.

    r'(A) = r(A u z) - r(z).  The result carries an element_map from new
    ids back to the original ones; it composes through m's, so a
    contraction of a contraction names the root's ids.
    """
    _refuse_ground_set_scan(m.n)
    zmask = m._checked_mask(z)
    keep = tuple(x for x in range(m.n) if not zmask >> x & 1)
    rz = m.rank_of_mask(zmask)

    def rank(a: int) -> int:
        return m.rank_of_mask(zmask | mask_of(keep[i] for i in bits(a))) - rz

    base_map = m.element_map
    element_map = tuple(base_map[e] for e in keep) if base_map else keep
    return Matroid(
        len(keep), rank, name=f"{m.name}/{set_literal(bits(zmask))}", element_map=element_map
    )


def contracted_rank_by_minimization(m: Matroid, z, a) -> int:
    """min over Z0 <= z of r(a u Z0) - r(Z0); the definitional test oracle."""
    zmask = m._checked_mask(z)
    amask = m._checked_mask(a)
    if amask & zmask:
        raise GroundSetError("subset must avoid the contracted set")
    r = m.rank_of_mask
    return min(r(amask | z0) - r(z0) for z0 in _sub_masks(zmask))

