"""Contraction by a subset, with the fitting-set machinery.

For finite ground sets the contracted rank is simply
r'(A) = r(A u Z) - r(Z): the contracted set itself attains the minimum of
r(A u Z0) - r(Z0) over its subsets Z0 (enlarging a fitting set keeps it
fitting).  The explicit minimization is retained as a test oracle.
"""

from __future__ import annotations

import itertools

from .core import (
    GroundSetError,
    Matroid,
    _derived,
    _refuse_ground_set_scan,
    bits,
    canonical,
    mask_of,
    set_literal,
)


def contract(m: Matroid, z) -> Matroid:
    """Contraction: matroid on the complement of z, re-indexed densely.

    r'(A) = r(A u z) - r(z).  The result carries an element_map from new
    ids back to the original ones.
    """
    _refuse_ground_set_scan(m.n)
    zs = m.check_subset(z)
    zmask = mask_of(zs)
    keep = canonical(x for x in range(m.n) if x not in zs)
    rz = m.rank_of_mask(zmask)

    def rank(a: int) -> int:
        return m.rank_of_mask(zmask | mask_of(keep[i] for i in bits(a))) - rz

    return _derived(m, keep, rank, f"{m.name}/{set_literal(zs)}")


def contracted_rank_by_minimization(m: Matroid, z, a) -> int:
    """min over Z0 <= z of r(a u Z0) - r(Z0); the definitional test oracle."""
    zs = m.check_subset(z)
    a = m.check_subset(a)
    if a & zs:
        raise GroundSetError("subset must avoid the contracted set")
    zlist = sorted(zs)
    best = None
    for size in range(len(zlist) + 1):
        for combo in itertools.combinations(zlist, size):
            z0 = frozenset(combo)
            val = m.rank(a | z0) - m.rank(z0)
            if best is None or val < best:
                best = val
    return best


def fits(m: Matroid, z, a, z0) -> bool:
    """Does z0 attain the contracted rank of a?

    True iff r(a u z0) - r(z0) equals r'(a) computed with the full
    contracted set.  z0 must be a subset of z, and a must avoid z.
    """
    zs = m.check_subset(z)
    a = m.check_subset(a)
    z0 = m.check_subset(z0)
    if not z0 <= zs:
        raise GroundSetError(f"{set_literal(z0)} is not a subset of {set_literal(zs)}")
    if a & zs:
        raise GroundSetError("subset must avoid the contracted set")
    contracted = m.rank(a | zs) - m.rank(zs)
    return m.rank(a | z0) - m.rank(z0) == contracted
