"""Closed sets and the closure operator.

Two routes are provided: the production one adds every element whose
arrival keeps the rank flat (n oracle calls), and an intersection-of-
closed-supersets form that exists purely as an independent check of the
same operator.
"""

from __future__ import annotations

from .core import (
    CIRCUIT_BOUND,
    Matroid,
    _refuse_above,
    _refuse_ground_set_scan,
    _subsets_by_size,
    bits,
)


def _is_closed_mask(m: Matroid, z: int) -> bool:
    """True iff adding any element outside the mask z strictly raises its rank."""
    rz = m.rank_of_mask(z)
    return all(m.rank_of_mask(z | 1 << x) > rz for x in range(m.n) if not z >> x & 1)


def is_closed(m: Matroid, z) -> bool:
    """True iff adding any outside element strictly raises the rank."""
    _refuse_ground_set_scan(m.n)
    return _is_closed_mask(m, m._checked_mask(z))


def closure(m: Matroid, x) -> tuple[int, ...]:
    """Smallest closed superset: x plus every element that keeps rank flat.

    x is checked once; then r(x) and r(x + y), for each y outside x, are
    each one :meth:`Matroid.rank` call.
    """
    _refuse_ground_set_scan(m.n)
    mask = m._checked_mask(x)
    xs = tuple(bits(mask))
    rx = m.rank(xs)
    return tuple(y for y in range(m.n) if mask >> y & 1 or m.rank((*xs, y)) == rx)


def closure_by_intersection(m: Matroid, x) -> tuple[int, ...]:
    """Intersection of all closed supersets of x.

    Enumerates every subset, so it is bounded; it serves as the
    independent oracle against which :func:`closure` is tested, and so
    decides closedness by rank alone, never through :func:`closure`.
    """
    _refuse_above(m.n, CIRCUIT_BOUND, "closure by intersection")
    xm = m._checked_mask(x)
    acc = (1 << m.n) - 1
    for z in range(1 << m.n):
        if xm & ~z == 0 and _is_closed_mask(m, z):
            acc &= z
    return tuple(bits(acc))


def _closed_masks(m: Matroid) -> list[int]:
    """Masks of all closed subsets, in (size, lexicographic) order."""
    return [z for z in _subsets_by_size((1 << m.n) - 1) if _is_closed_mask(m, z)]
