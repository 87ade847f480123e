"""Ordered bases, fundamental circuits, and the anchor decomposition.

An ordered base carries a total order on its elements.  Every element x
of the ground set is anchored to a base element: itself if x is in the
base, otherwise the order-maximum base element of x's fundamental
circuit: the last e in base order with r(B - e + x) = r(B).  The anchor
classes partition the ground set; their maximum size is the statistic
that certifies list-colorability bounds.

Since the anchor is the order-maximum of x's fundamental-circuit base
part, questions about every order of one base (the lemma battery's L17)
can be read from those parts alone, without building a decomposition
per order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import (
    GroundSetError,
    LoopError,
    Matroid,
    MatroidError,
    _refuse_ground_set_scan,
    loops,
    mask_of,
    set_literal,
)


@dataclass(frozen=True)
class OrderedBase:
    """A base of a matroid with a total order (the sequence order).

    The elements must be a sequence of distinct hashable values: a value
    that cannot be iterated or has no length (an int, a generator), a
    member that cannot be hashed, or a repeated member is refused here;
    whether the members are ids of a base is checked where the base is
    used.
    """

    elements: tuple[int, ...]

    def __post_init__(self):
        try:
            size = len(self.elements)
            members = iter(self.elements)
        except TypeError:
            raise GroundSetError(
                f"an ordered base must be a sequence of element ids, got {type(self.elements).__name__}"
            ) from None
        try:
            distinct = len(set(members))
        except TypeError:
            for e in self.elements:
                try:
                    hash(e)
                except TypeError:
                    raise GroundSetError(f"ordered base member {e!r} is not an element id") from None
            raise
        if distinct != size:
            raise GroundSetError("ordered base contains duplicates")

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __contains__(self, x):
        return x in self.elements

    def as_set(self) -> frozenset[int]:
        return frozenset(self.elements)


def is_base(m: Matroid, b) -> bool:
    """True iff r(b) = |b| and r(b + y) = r(b) for every y outside b.

    That is, b is independent and its closure is the whole ground set.
    """
    _refuse_ground_set_scan(m.n)
    mask = m._checked_mask(b)
    size = mask.bit_count()
    return m.rank_of_mask(mask) == size and all(
        m.rank_of_mask(mask | 1 << y) == size for y in range(m.n) if not mask >> y & 1
    )


def greedy_base(m: Matroid, order=None) -> OrderedBase:
    """Scan the ground set in the given order, keeping rank-increasing elements.

    Loops are never added.  The base order is the insertion order.  An
    order that is no permutation of range(n), or no iterable at all, is
    refused.
    """
    _refuse_ground_set_scan(m.n)
    try:
        order = tuple(range(m.n) if order is None else order)
    except TypeError:  # no iterable, so no permutation
        order = None
    if order is None or m._checked_mask(order) != (1 << m.n) - 1 or len(order) != m.n:
        raise GroundSetError("order must be a permutation of the ground set")
    picked: list[int] = []
    mask = 0
    for x in order:
        if m.rank_of_mask(mask | 1 << x) == len(picked) + 1:
            picked.append(x)
            mask |= 1 << x
    return OrderedBase(tuple(picked))


def _require_base(m: Matroid, b: OrderedBase):
    if not is_base(m, b.elements):
        raise GroundSetError(f"{set_literal(b.elements)} is not a base of {m.name}")


def _swap_masks(b: OrderedBase) -> list[tuple[int, int]]:
    """(e, B - e) for each base element e, last in base order first."""
    bmask = mask_of(b.elements)
    return [(e, bmask ^ 1 << e) for e in reversed(b.elements)]


def _top_swap(m: Matroid, b: OrderedBase, x: int, swaps=None) -> int:
    """The anchor of x outside the base b, unchecked: the first e, taking
    b from its last element, with r(B - e + x) = |B|.  When there is
    none, x is a loop (LoopError) or the oracle is not a matroid
    (MatroidError).  ``swaps`` is b's :func:`_swap_masks` if given; ranks
    are read from the mask table once it is built."""
    t = m._mask_table
    rank = m.rank_of_mask if t is None else t.__getitem__
    bit, size = 1 << x, len(b)
    for e, rest in _swap_masks(b) if swaps is None else swaps:
        if rank(rest | bit) == size:
            return e
    if m.rank_of_mask(1 << x) == 0:
        raise LoopError(f"element {x} is a loop; it has no anchor")
    raise MatroidError(
        f"not a matroid: element {x} is not a loop, but no base element swaps for it"
    )


@dataclass(frozen=True)
class AnchorDecomposition:
    """The anchor map and its fibers for one ordered base."""

    base: OrderedBase
    mapping: dict[int, int]  # element -> base element
    classes: dict[int, tuple[int, ...]]  # base element -> its fiber

    @property
    def max_class_size(self) -> int:
        return max((len(v) for v in self.classes.values()), default=0)


def anchor_classes(m: Matroid, b: OrderedBase) -> AnchorDecomposition:
    """Anchor every ground element to the given ordered base.

    Requires a loop-free matroid; the classes partition the ground set
    with one fiber per base element.  Loops and the base are checked
    once; each outside element's anchor is then read by swap tests, in
    ascending id order, against the base's swap masks B - e, built once
    (:func:`_swap_masks`), base membership by one bit test of the base's
    mask.  The fibers are gathered in one pass over the anchor map.  The
    matroid caches only its last decomposition, keyed by base sequence;
    a base that is no :class:`OrderedBase` is refused after that cache
    test, which it never passes.
    """
    last = m._anchor_cache
    if last is not None and last.base == b:
        return last
    if not isinstance(b, OrderedBase):
        raise GroundSetError(f"base must be an OrderedBase, got {type(b).__name__}")
    lp = loops(m)
    if lp:
        raise LoopError(f"anchor classes undefined: loops {set_literal(lp)}")
    _require_base(m, b)
    bmask = mask_of(b.elements)
    swaps = _swap_masks(b)
    mapping = {x: x if bmask >> x & 1 else _top_swap(m, b, x, swaps) for x in range(m.n)}
    fibers: dict[int, list[int]] = {e: [] for e in b}
    for x, a in mapping.items():
        fibers[a].append(x)
    classes = {e: tuple(xs) for e, xs in fibers.items()}
    decomp = AnchorDecomposition(b, mapping, classes)
    m._anchor_cache = decomp
    return decomp


def all_bases(m: Matroid) -> list[tuple[int, ...]]:
    """All bases (as sorted tuples); exhaustive over size-r subsets."""
    r = m.full_rank()
    return [
        combo
        for combo in itertools.combinations(range(m.n), r)
        if m.rank_of_mask(mask_of(combo)) == r
    ]


def ordered_bases(m: Matroid):
    """Every (base, order) pair, deterministically: bases lex, orders lex."""
    for base in all_bases(m):
        for perm in itertools.permutations(base):
            yield OrderedBase(perm)
