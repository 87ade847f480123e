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
    _bad_rank,
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
    contraction of a contraction names the root's ids.  A rank asked
    before the mask table exists is one call to m; the table is built in
    one pass, the masks z u A of m listed in mask order of A by doubling
    over the kept ids, each read through ``m.rank_of_mask``.  A negative
    contracted rank, possible only when m is not a matroid, is refused at
    the first mask in mask order, as the oracle route refuses it.
    """
    _refuse_ground_set_scan(m.n)
    zmask = m._checked_mask(z)
    keep = tuple(x for x in range(m.n) if not zmask >> x & 1)
    rz = m.rank_of_mask(zmask)

    def rank(a: int) -> int:
        return m.rank_of_mask(zmask | mask_of(keep[i] for i in bits(a))) - rz

    def table() -> list[int]:
        parents = [zmask]
        for x in keep:
            bit = 1 << x
            parents += [p | bit for p in parents]
        ranks = []
        for a, p in enumerate(parents):
            r = m.rank_of_mask(p) - rz
            if r < 0:
                raise _bad_rank(r, a)
            ranks.append(r)
        return ranks

    base_map = m.element_map
    element_map = tuple(base_map[e] for e in keep) if base_map else keep
    return Matroid(
        len(keep),
        rank,
        name=f"{m.name}/{set_literal(bits(zmask))}",
        element_map=element_map,
        table=table,
    )


def contracted_rank_by_minimization(m: Matroid, z, a) -> int:
    """min over Z0 <= z of r(a u Z0) - r(Z0); the definitional test oracle."""
    zmask = m._checked_mask(z)
    amask = m._checked_mask(a)
    if amask & zmask:
        raise GroundSetError("subset must avoid the contracted set")
    r = m.rank_of_mask
    return min(r(amask | z0) - r(z0) for z0 in _sub_masks(zmask))

