"""Ordered bases, fundamental circuits, and the anchor decomposition.

An ordered base carries a total order on its elements.  Every element x
of the ground set is anchored to a base element: itself if x is in the
base, otherwise the order-maximum of the base part of x's fundamental
circuit.  The anchor classes partition the ground set; their maximum size
is the statistic that certifies list-colorability bounds.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .core import (
    BoundExceededError,
    Circuit,
    GroundSetError,
    LoopError,
    Matroid,
    canonical,
    circuits,
    loops,
    set_literal,
)
from .closure import closure

BASE_SEARCH_BOUND = 8


@dataclass(frozen=True)
class OrderedBase:
    """A base of a matroid with a total order (the sequence order)."""

    elements: tuple[int, ...]

    def __post_init__(self):
        if len(set(self.elements)) != len(self.elements):
            raise GroundSetError("ordered base contains duplicates")

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __contains__(self, x):
        return x in self.elements

    def max_by_order(self, elements) -> int:
        return max(elements, key=self.elements.index)

    def as_set(self) -> frozenset[int]:
        return frozenset(self.elements)


def is_base(m: Matroid, b) -> bool:
    """True iff b is independent and its closure is the whole ground set."""
    bs = m.check_subset(b)
    if m.rank(bs) != len(bs):
        return False
    return len(closure(m, bs)) == m.n


def greedy_base(m: Matroid, order=None) -> OrderedBase:
    """Scan the ground set in the given order, keeping rank-increasing elements.

    Loops are never added.  The base order is the insertion order.
    """
    if order is None:
        order = range(m.n)
    order = tuple(order)
    if sorted(order) != list(range(m.n)):
        raise GroundSetError("order must be a permutation of the ground set")
    picked: list[int] = []
    cur = frozenset()
    r = 0
    for x in order:
        if m.rank(cur | {x}) == r + 1:
            picked.append(x)
            cur = cur | {x}
            r += 1
    return OrderedBase(tuple(picked))


def _require_base(m: Matroid, b: OrderedBase):
    if not is_base(m, b.as_set()):
        raise GroundSetError(f"{set_literal(b.elements)} is not a base of {m.name}")


def fundamental_circuit(m: Matroid, b: OrderedBase, x: int) -> Circuit:
    """The unique circuit inside base + x, for x outside the base.

    A base element sits on that circuit iff swapping it for x preserves
    full rank, so |B| rank queries suffice.
    """
    m.check_subset({x})
    if x in b:
        raise GroundSetError(f"element {x} is in the base")
    _require_base(m, b)
    bset = b.as_set()
    full = len(bset)
    members = [x]
    for e in b:
        if m.rank((bset - {e}) | {x}) == full:
            members.append(e)
    return Circuit(canonical(members))


def fundamental_circuit_bruteforce(m: Matroid, b: OrderedBase, x: int) -> Circuit:
    """Test oracle: smallest dependent subset of base + x containing x.

    Searches subsets in (size, lex) order and additionally asserts there
    is exactly one circuit inside base + x.
    """
    if x in b:
        raise GroundSetError(f"element {x} is in the base")
    _require_base(m, b)
    pool = sorted(b.as_set() | {x})
    found = []
    for size in range(1, len(pool) + 1):
        for combo in itertools.combinations(pool, size):
            s = frozenset(combo)
            if m.rank(s) < len(s) and all(
                m.rank(s - {e}) == len(s) - 1 for e in s
            ):
                found.append(combo)
    if len(found) != 1:
        raise GroundSetError(
            f"expected exactly one circuit in base+{x}, found {len(found)}"
        )
    return Circuit(found[0])


def anchor(m: Matroid, b: OrderedBase, x: int) -> int:
    """Base element x is anchored to: itself inside the base, else the
    order-maximum base element of x's fundamental circuit."""
    if x in b:
        return x
    circ = fundamental_circuit(m, b, x)
    on_base = [e for e in circ if e in b]
    if not on_base:
        raise LoopError(f"element {x} is a loop; it has no anchor")
    return b.max_by_order(on_base)


@dataclass(frozen=True)
class AnchorDecomposition:
    """The anchor map and its fibers for one ordered base."""

    base: OrderedBase
    mapping: dict[int, int]  # element -> base element
    classes: dict[int, tuple[int, ...]]  # base element -> its fiber

    @property
    def max_class_size(self) -> int:
        if not self.classes:
            return 0
        return max(len(v) for v in self.classes.values())


def anchor_classes(m: Matroid, b: OrderedBase) -> AnchorDecomposition:
    """Anchor every ground element to the given ordered base.

    Requires a loop-free matroid; the classes partition the ground set
    with one fiber per base element.  Decompositions are cached on the
    matroid, keyed by the base sequence.
    """
    cached = m._anchor_cache.get(b.elements)
    if cached is not None:
        return cached
    lp = loops(m)
    if lp:
        raise LoopError(f"anchor classes undefined: loops {set_literal(lp)}")
    _require_base(m, b)
    mapping = {x: anchor(m, b, x) for x in range(m.n)}
    classes = {e: tuple(sorted(x for x, a in mapping.items() if a == e)) for e in b}
    decomp = AnchorDecomposition(b, mapping, classes)
    m._anchor_cache[b.elements] = decomp
    return decomp


def all_bases(m: Matroid) -> list[tuple[int, ...]]:
    """All bases (as sorted tuples); exhaustive over size-r subsets."""
    r = m.full_rank()
    return [
        combo
        for combo in itertools.combinations(range(m.n), r)
        if m.rank(combo) == r
    ]


def ordered_bases(m: Matroid):
    """Every (base, order) pair, deterministically: bases lex, orders lex."""
    for base in all_bases(m):
        for perm in itertools.permutations(base):
            yield OrderedBase(perm)


@dataclass(frozen=True)
class BaseSearchResult:
    base: OrderedBase
    max_class_size: int
    optimal: bool  # True only for the exhaustive mode
    searched: int


def best_base_bound(m: Matroid, budget="exhaustive", seed: int = 0) -> BaseSearchResult:
    """Find an ordered base minimizing the largest anchor class.

    budget="exhaustive" sweeps every (base, order) pair (bounded);
    an integer budget runs that many seeded random greedy restarts and is
    reported as non-optimal.  Ties break toward the lexicographically
    smaller base sequence, so concurrent searches merge deterministically.
    """
    if loops(m):
        raise LoopError("anchor classes need a loop-free matroid")
    if m.n == 0:
        return BaseSearchResult(OrderedBase(()), 0, True, 1)

    best: tuple[int, tuple[int, ...]] | None = None
    searched = 0

    if budget == "exhaustive":
        if m.n > BASE_SEARCH_BOUND:
            raise BoundExceededError(
                f"exhaustive base search needs n <= {BASE_SEARCH_BOUND}, got {m.n}"
            )
        for ob in ordered_bases(m):
            searched += 1
            size = anchor_classes(m, ob).max_class_size
            key = (size, ob.elements)
            if best is None or key < best:
                best = key
        return BaseSearchResult(OrderedBase(best[1]), best[0], True, searched)

    restarts = int(budget)
    if restarts < 1:
        raise GroundSetError("heuristic budget must be a positive restart count")
    rng = random.Random(seed)
    for _ in range(restarts):
        order = list(range(m.n))
        rng.shuffle(order)
        ob = greedy_base(m, order)
        searched += 1
        size = anchor_classes(m, ob).max_class_size
        key = (size, ob.elements)
        if best is None or key < best:
            best = key
    return BaseSearchResult(OrderedBase(best[1]), best[0], False, searched)
