"""Ground sets, rank oracles, matroid axioms, independence, circuits.

A matroid here is a finite ground set {0, .., n-1} together with a rank
oracle: a pure function from subsets to nonnegative integers satisfying
normalization, monotonicity, subcardinality and submodularity.  Everything
downstream (closure, contraction, bases, coloring) talks to the oracle
only through :class:`Matroid`.
"""

from __future__ import annotations

import itertools
import sys
from array import array
from collections import Counter, deque
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

# Exhaustive-check ceilings.  Operations that enumerate all 2^n subsets
# refuse above these rather than silently sampling.
VALIDATION_BOUND = 16
CIRCUIT_BOUND = 12
# Operations that scan the ground set element by element (greedy bases,
# closure, closedness, contraction) refuse above this, so a scan makes at
# most this many rank calls.  Budget: a greedy base within 1 s on files of
# rank up to 12; at n = 10,000 it takes 0.05 s (uniform) to 0.13 s (GF(3),
# dimension 12) on 2 vCPUs, Python 3.11.  The cost of one call,
# which grows with the rank and the mask, is not bounded by it.
GROUND_SET_BOUND = 10_000


class MatroidError(Exception):
    """Base class for all library errors."""


class GroundSetError(MatroidError, ValueError):
    """An element id is out of range, duplicated, or a set is malformed."""


class BoundExceededError(MatroidError):
    """An exhaustive operation was asked to run above its size ceiling."""


class AxiomError(MatroidError):
    """A rank table fails the matroid axioms (carries the report)."""

    def __init__(self, report: "AxiomReport"):
        super().__init__(f"not a matroid: {report.describe()}")
        self.report = report


class LoopError(MatroidError):
    """An operation that requires a loop-free matroid met a loop."""


def _refuse_above(n: int, bound: int, what: str) -> None:
    """Refuse an exhaustive operation on n elements above its size bound."""
    if n > bound:
        raise BoundExceededError(f"{what} needs n <= {bound}, got {n}")


def _size_bound(max_n: int | None, default: int) -> int:
    """A caller's ``max_n``, or ``default`` when it is None.  One whose type
    is not exactly int is refused: a bool would read as a bound of 0 or 1,
    and a float or a str cannot be compared with n or with a ceiling.  A
    negative one is refused too: no ground set is that small, so it would
    only name a size that no instance can meet."""
    if max_n is None:
        return default
    if type(max_n) is not int:
        raise BoundExceededError(f"max_n must be an int, got {max_n!r}")
    if max_n < 0:
        raise BoundExceededError(f"max_n must be nonnegative, got {max_n}")
    return max_n


def _refuse_ground_set_scan(n: int) -> None:
    """Refuse an element-by-element scan of a ground set above GROUND_SET_BOUND."""
    _refuse_above(n, GROUND_SET_BOUND, "ground-set scan")


def set_literal(elements: Iterable[int]) -> str:
    """Render a subset as ``{i,j,k}`` with ascending ids (``{}`` if empty)."""
    return "{" + ",".join(map(str, sorted(set(elements)))) + "}"


def mask_of(elements: Iterable[int]) -> int:
    m = 0
    for e in elements:
        m |= 1 << e
    return m


def bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _sub_masks(mask: int) -> Iterator[int]:
    """All subsets of a mask, including 0 and itself."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


class Matroid:
    """A finite matroid given by a rank oracle over subsets of range(n).

    The oracle takes a subset as an int bitmask (bit i for element i),
    returns a nonnegative int (not a bool), and must be pure.  The only
    rank cache is :meth:`mask_table`: before it is built, every rank is
    one oracle call; after, none is.  ``spec`` is the typed
    construction spec, or None for contractions and user oracles.
    ``table``, set only by constructions and contractions, is a function
    of no arguments that returns the rank of every mask, in mask order,
    with no call to this matroid's oracle, as a list of ints or as bytes
    (the rank of mask a in byte a): :meth:`mask_table` calls it in place
    of the oracle (``graphic`` and ``linear`` over GF(2) and GF(3) count
    row-space vectors, which returns bytes for at most 255 points,
    ``from_table`` hands over its checked rank list, a contraction
    reads its parent's ranks in one pass).  Without one, and so for
    ``linear`` wherever the count does not serve, :meth:`mask_table`
    calls the oracle once per mask.  The whole-table kernels read the
    table as one int with a byte per mask (:func:`_rank_image`), which
    builds the table before it converts anything.  Where the ``table``
    function returns bytes, building the table sets the image from
    them, whichever call builds it: :meth:`mask_table` or the first
    whole-table pass (``validate_axioms``, ``circuits``, ...).  Any
    other table is converted from its list once, by the first pass that
    reads it (``from_table``'s by its own axiom pass, at construction).
    Instances are immutable apart from the caches.
    """

    def __init__(
        self,
        n: int,
        oracle: Callable[[int], int],
        name: str = "",
        element_map: tuple[int, ...] | None = None,
        spec: object = None,
        *,
        table: Callable[[], list[int] | bytes] | None = None,
    ):
        if n < 0:
            raise GroundSetError("ground set size must be nonnegative")
        self.n = n
        self.name = name or f"matroid(n={n})"
        #: for contractions: new id -> original (root) id
        self.element_map = element_map
        self.spec = spec
        self._oracle = oracle
        self._build_table = table
        self._mask_table: list[int] | None = None
        #: the mask table as one int, a byte per mask, filled by mask_table
        #: from a table function's bytes, else converted by _rank_image
        self._rank_image: int | None = None
        #: the last anchor decomposition, filled by bases.anchor_classes
        self._anchor_cache = None

    def __repr__(self):
        return f"<Matroid {self.name}>"

    def _checked_mask(self, elements: Iterable[int]) -> int:
        """The bitmask of a subset of range(n); a bool id is refused, not read
        as 0/1, and so is an object that cannot be iterated."""
        try:
            elements = iter(elements)
        except TypeError:
            raise GroundSetError(
                f"a subset must be a collection of element ids, got {type(elements).__name__}"
            ) from None
        mask = 0
        for e in elements:
            if type(e) is not int or e < 0 or e >= self.n:
                raise GroundSetError(
                    f"element {e!r} outside ground set of size {self.n}"
                )
            mask |= 1 << e
        return mask

    def rank(self, elements: Iterable[int]) -> int:
        """Rank of a subset, its ids checked once; 0 <= rank <= |subset|."""
        return self.rank_of_mask(self._checked_mask(elements))

    def is_independent(self, elements: Iterable[int]) -> bool:
        """True iff the subset's rank equals its size."""
        mask = self._checked_mask(elements)
        return self.rank_of_mask(mask) == mask.bit_count()

    def full_rank(self) -> int:
        return self.rank(range(self.n))

    def rank_of_mask(self, mask: int) -> int:
        """Rank by bitmask (unchecked); every rank goes through here.

        Reads the mask table once built, else calls the oracle and checks
        that it returned a nonnegative int; no other rank is cached.
        """
        if self._mask_table is not None:
            return self._mask_table[mask]
        r = self._oracle(mask)
        if type(r) is not int or r < 0:
            raise _bad_rank(r, mask)
        return r

    def _all_independent(self, masks: Iterable[int]) -> bool:
        """True iff r(c) = |c| for every mask c (unchecked), in order, stopping
        at the first dependent one.

        Reads each rank straight from the mask table once it is built;
        before that each rank is one :meth:`rank_of_mask` call, with its
        checks of the oracle's answer.  It never builds the table, so
        it serves any n up to GROUND_SET_BOUND.
        """
        t = self._mask_table
        rank = self.rank_of_mask if t is None else t.__getitem__
        for c in masks:  # a plain loop: no generator per call
            if rank(c) != c.bit_count():
                return False
        return True

    def mask_table(self) -> list[int]:
        """Rank of every subset, indexed by bitmask.  Built once, cached.

        The table is the workhorse behind every exhaustive sweep; it is
        only sensible for small n (2^n entries), so it refuses above
        VALIDATION_BOUND even when a caller's own bound is higher, before
        any rank is computed.  A matroid built with a ``table`` function
        gets its table from it, with no oracle call: ``graphic`` and
        ``linear`` over GF(2) and GF(3) count the vectors of their row
        space (:func:`_count_table`); ``from_table`` hands over its
        rank list once every entry is checked; a contraction reads its
        parent's ranks.  Any other matroid calls its oracle once per
        mask: so does ``linear`` over any other field, and where the
        count would enumerate more vectors than the table has masks.
        A ``table`` function that returns bytes, as the count does in
        1-byte lanes, hands over the rank image too: the table
        is the list of those bytes, and the image is the same bytes read
        as one int (a counted rank is at most n <= VALIDATION_BOUND,
        below _RANK_CAP, so there is nothing to cap), and
        :func:`_rank_bytes` never runs on that table, whether this method
        is called directly or by the first whole-table pass through
        :func:`_rank_image`.  The table is a list either way.  Once
        built, every rank is read from the table.
        """
        if self._mask_table is None:
            _refuse_above(self.n, VALIDATION_BOUND, "mask table")
            if self._build_table is None:
                self._mask_table = [self.rank_of_mask(x) for x in range(1 << self.n)]
            else:
                built = self._build_table()
                if type(built) is bytes:
                    self._rank_image = int.from_bytes(built, "little")
                    built = list(built)
                self._mask_table = built
        return self._mask_table


def _bad_rank(r: object, mask: int) -> MatroidError:
    """The refusal of a rank that is not a nonnegative int (a bool is not one)."""
    return MatroidError(f"oracle returned {r!r} for {set_literal(bits(mask))}")


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of an exhaustive axiom check.

    On failure, ``axiom`` names the rank axiom (normalization,
    subcardinality, monotonicity or submodularity) that the witness
    breaks, ``witness`` holds its subsets, smallest first in (size, lex)
    order, and ``detail`` gives the offending ranks.
    """

    ok: bool
    axiom: str | None = None
    witness: tuple[tuple[int, ...], ...] = ()
    detail: str = ""

    def describe(self) -> str:
        if self.ok:
            return "all axioms hold"
        sets = ", ".join(set_literal(w) for w in self.witness)
        return f"{self.axiom} fails at {sets}: {self.detail}"


def _subsets_by_size(mask: int) -> list[int]:
    """The subsets of a mask in (size, lexicographic) order of their members.

    Built by doubling over the mask's elements from the top one down:
    before element e is taken, ``by_size[s]`` lists the s-subsets of the
    elements above e in lex order, and the s-subsets that contain e come
    before them, as e joined to each (s - 1)-subset above it.  One list
    comprehension per (element, size), with no Python step per subset
    beyond it.
    """
    by_size = [[0]] + [[] for _ in range(mask.bit_count())]
    for count, e in enumerate(reversed(list(bits(mask))), start=1):
        bit = 1 << e
        for s in range(count, 0, -1):
            by_size[s] = [bit | a for a in by_size[s - 1]] + by_size[s]
    return list(itertools.chain.from_iterable(by_size))


def _monotonicity(table: list[int], a: int, b: int) -> AxiomReport:
    """Monotonicity failing at a strictly inside b."""
    return AxiomReport(
        False,
        "monotonicity",
        (tuple(bits(a)), tuple(bits(b))),
        f"rank {table[a]} > rank {table[b]}",
    )


def _submodularity(table: list[int], a: int, b: int) -> AxiomReport:
    """Submodularity failing on the pair a, b, smallest in (size, lex) first."""
    a, b = sorted((a, b), key=lambda x: (x.bit_count(), tuple(bits(x))))
    return AxiomReport(
        False,
        "submodularity",
        (tuple(bits(a)), tuple(bits(b))),
        f"{table[a]}+{table[b]} < {table[a & b]}+{table[a | b]}",
    )


# A byte set is a set of masks of range(n) held as one int whose byte a
# (little-endian) is 1 iff mask a is in the set, so one int operation acts
# on all 2^n masks at once; shifting right by 8 << x moves mask a + x onto
# mask a.  A set less another is a ^ (a & b), not a & ~b, which would
# build the complement of a negative int.  Ranks are held the same way,
# one byte per mask, capped at _RANK_CAP: a matroid's rank image is kept
# beside its mask table.  A table counted in 1-byte lanes (``linear`` and
# ``graphic`` wherever they count at most 255 points, see
# :func:`_count_table`) comes as rank bytes, which :meth:`Matroid.mask_table`
# reads as the image at once, so it skips :func:`_rank_bytes` on every
# entry path: :func:`_rank_image` builds the table before it converts, so
# a pass that enters with no table built (``validate_axioms``,
# ``circuits``) finds the image already set.  A table counted in 2-byte
# lanes, ``from_table``'s list, a contraction's (the lemma battery's L11
# validates each M/Z as a contraction) and an oracle's are converted from
# their lists by :func:`_rank_image`, once per table, in the first pass
# that reads them.  The kernels only test bytes below 0x80 for zero
# (ranks, ranks + 1 and sizes, and their XORs), which takes one
# subtraction with no borrow between bytes (:func:`_zero_bytes`).  What
# depends on n alone (every mask, each mask's size, the masks without x
# in each lane the kernels use, the subsets' frozensets that tables are
# keyed by, and the subsets' literal texts that table files hold) is
# built once per n and kept for the life of the process
# (:func:`_per_size`).  The kernels run on mask tables only, so n is at
# most VALIDATION_BOUND, and every size up to 16 together keeps at most
# 10 MB of byte sets; the frozensets and the texts are kept up to
# _SUBSET_POOL_BOUND, 4.8 and 0.8 MB over every size up to 12, and the
# frozensets' (size, lex) order 0.07 MB (tracemalloc).

_RANK_CAP = 126
_CAPPED = bytes(min(b, _RANK_CAP) for b in range(256))  # bytes.translate table
_SUBSET_POOL_BOUND = 12


def _rank_bytes(table: list[int]) -> int:
    """The table with the rank of mask a in byte a, capped at _RANK_CAP.

    The cap keeps r + 1 below 0x80, as :func:`_zero_bytes` needs, and is
    far above any rank of a matroid on 16 elements.  It moves no first
    failure of the axiom pass: a cap of at least n + 2 keeps the verdict
    at every mask ranked at most n, and a mask A ranked above n breaks
    the unit-increase axiom first at some prefix of A (adding A's
    elements in ascending order from the empty set), a smaller mask
    ranked at most n.  One ``bytes`` call and one ``translate`` do it;
    only a table with a rank above 255, which ``bytes`` refuses, is
    capped rank by rank.
    """
    try:
        image = bytes(table).translate(_CAPPED)
    except ValueError:
        image = bytes([min(r, _RANK_CAP) for r in table])
    return int.from_bytes(image, "little")


def _rank_image(m: Matroid) -> int:
    """m's mask table as :func:`_rank_bytes` gives it, converted at most once.

    The table is built first: a table function that returns bytes hands
    over the image as it builds, and only a table without one is converted.
    """
    if m._rank_image is None:
        table = m.mask_table()
        if m._rank_image is None:
            m._rank_image = _rank_bytes(table)
    return m._rank_image


def _zero_bytes(v: int, high: int, within: int) -> int:
    """The byte set of the masks in ``within`` whose byte in v is 0.

    ``high`` holds 0x80 in every byte (``_per_size(n, "high")``), and
    ``within`` holds 0x80 at the masks to test and 0 at the others.
    Exact when every byte of v is at most 0x80: then 0x80 - b borrows
    from no other byte and has its top bit set iff b is 0 (the zero-byte
    test of Warren, *Hacker's Delight*, section 6-1).
    """
    return ((high - v) & within) >> 7


def _without(n: int, x: int, lane: bytes) -> int:
    """The masks of range(n) that do not contain x, in lanes of ``lane``'s width.

    Each mask without x holds ``lane`` and each mask with x holds zeros;
    with ``b"\\x01"`` that is the byte set of the masks without x.
    """
    bit = 1 << x
    return int.from_bytes((lane * bit + bytes(len(lane) * bit)) * (1 << (n - 1 - x)), "little")


# n -> {key: value} for _per_size; filled on first use, never emptied
_BY_SIZE: dict[int, dict] = {}


def _per_size(n: int, key: str | bytes):
    """A value that depends on n alone, built once per (n, key).

    ``"ones"``: every mask of range(n).  ``"high"``: byte a holds 0x80
    for every mask.  ``"sizes"``: byte a holds |a|.  ``"subsets"``: the
    list of ``frozenset(bits(a))`` in mask order, read through
    :func:`_subset_pool` only, and ``"sized subsets"``: the same objects
    in (size, lex) order, read through :func:`_sized_subset_pool` only.
    ``"literals"``: the list of ``set_literal(bits(a))`` in mask order,
    and ``"by_literal"``: the dict from each of those texts to its
    subset in ``"subsets"``, read through :func:`_subset_literals` and
    :func:`_subset_by_literal` only.  A lane (``b"\\x01"``,
    ``b"\\x80"``, ``b"\\xff"``, ``b"\\xff\\xff"``): the list of
    :func:`_without` ``(n, x, lane)`` for each x in range(n).
    """
    built = _BY_SIZE.setdefault(n, {})
    value = built.get(key)
    if value is None:
        if key == "ones":
            value = int.from_bytes(bytes([1]) * (1 << n), "little")
        elif key == "high":
            value = _per_size(n, "ones") << 7
        elif key == "sizes":
            # n in every byte, less one for each element the mask lacks
            value = n * _per_size(n, "ones") - sum(_per_size(n, b"\x01"))
        elif key == "subsets":
            value = list(map(frozenset, map(bits, range(1 << n))))
        elif key == "sized subsets":
            value = list(map(_per_size(n, "subsets").__getitem__, _subsets_by_size((1 << n) - 1)))
        elif key == "literals":
            value = _literal_texts(n)
        elif key == "by_literal":
            value = dict(zip(_per_size(n, "literals"), _per_size(n, "subsets")))
        else:
            value = [_without(n, x, key) for x in range(n)]
        built[key] = value
    return value


def _subset_pool(n: int) -> list[frozenset[int]] | None:
    """Every subset of range(n) as a frozenset, in mask order, or None above the bound.

    ``tabulate`` keys its tables by these very objects, so ``TableSpec``
    accepts such a table by one identity test per key and ``from_table``
    reads its ranks by one dict lookup per subset.  Kept up to
    _SUBSET_POOL_BOUND (n = 16 alone would keep 47 MB); above it, a pool
    built per call would cost more than it saves.
    """
    return _per_size(n, "subsets") if n <= _SUBSET_POOL_BOUND else None


def _sized_subset_pool(n: int) -> list[frozenset[int]] | None:
    """The subset pool's own frozensets in (size, lex) order, or None above its bound.

    That is the order in which ``serialize_matroid`` writes a table's
    lines, so a table file parsed up to the bound is keyed by these very
    objects, in this order, and ``TableSpec`` accepts it by one identity
    test per key.
    """
    return _per_size(n, "sized subsets") if n <= _SUBSET_POOL_BOUND else None


def _literal_texts(n: int) -> list[str]:
    """The ``set_literal`` text of every subset of range(n), in mask order.

    Built by doubling: the subsets with top element x are those of
    range(x), each with x appended.
    """
    inner = [""]
    for x in range(n):
        inner += [f"{s},{x}" if s else str(x) for s in inner]
    return [f"{{{s}}}" for s in inner]


def _subset_literals(n: int) -> list[str]:
    """The ``set_literal`` text of every subset of range(n), in mask order.

    Kept per size up to _SUBSET_POOL_BOUND, as the subset pool is, and
    built per call above it.  Files and the CLI print table lines from
    it, with no ``set_literal`` call per subset.
    """
    return _per_size(n, "literals") if n <= _SUBSET_POOL_BOUND else _literal_texts(n)


def _subset_by_literal(n: int) -> dict[str, frozenset[int]]:
    """Each subset of range(n), keyed by its ``set_literal`` text.

    The values are the subset pool's own frozensets.  Kept up to
    _SUBSET_POOL_BOUND; empty for a larger or negative n, so that a
    lookup in it misses.  The table parser reads a canonical literal
    through it, with no parse per line.
    """
    return _per_size(n, "by_literal") if 0 <= n <= _SUBSET_POOL_BOUND else {}


def _count_table(n: int, p: int, rows: list) -> list[int] | bytes:
    """Ranks of all 2^n masks of a matrix over GF(2) or GF(3), from a
    basis of its row space.

    ``rows`` are r linearly independent rows of n entries; column j is
    element j.  Over GF(2) a row is given as its support mask, and over
    GF(3) bit-sliced, as the pair (ones, twos) of the masks where it
    holds 1 and 2; the masks are used as they are.  The row-space
    vectors that vanish on a set A of columns form a subspace of
    dimension r - r(A), the counting identity behind Crapo and Rota's
    critical problem.  Up to nonzero scaling, which keeps a vector's
    zero set, there are (p^k - 1) / (p - 1) nonzero vectors in a
    k-dimensional space, so A lies in the zero sets of exactly
    (p^(r - r(A)) - 1) / (p - 1) of the points v_i + w, where v_i is
    row i and w runs over the span of the rows before i.  Over any
    other field ``linear`` fills its table through its oracle, one
    call per mask.

    The points are enumerated once, row by row.  Over GF(2) a point is
    its support, and v + w is one XOR.  Over GF(3) the span is packed
    into one int, a 16-bit lane per vector (n <= 16), and each vector
    is bit-sliced, as the rows are, into the masks of its 1s and of its
    2s: 2v swaps the two, v + w holds 1 at (v1 | w1) ^ (v & w) and 2 at
    (v2 | w2) ^ (v & w), with v and w the supports, and its zero set is
    ~(v | w) | (v1 & w2) | (v2 & w1), so a row costs a few int
    operations on the whole span.  The zero sets make a histogram in
    one lane per mask, 1 byte wide while
    (p^r - 1) / (p - 1) <= 255 and 2 bytes above (held as little-endian
    ints whatever the host's byte order).  Its superset sums, a zeta
    transform of n shift/AND/add operations on one int (Bjorklund,
    Husfeldt, Kaski and Koivisto 2007, "Fourier meets Mobius"), give
    every count at once, and one ``bytes.translate`` (one lookup per
    lane for 2-byte lanes) maps each count to its rank.  From 1-byte
    lanes the ranks come back as bytes, the rank of mask a in byte a,
    which :meth:`Matroid.mask_table` takes as the table and as its rank
    image at once; from 2-byte lanes they come back as a list, whose
    image is converted when first read.  The work is O(2^r) mask
    operations over GF(2), O(3^r) 16-bit lanes of int operations over
    GF(3), plus O(n * 2^n) bytes of int operations, with no Python step
    per mask.
    """
    r = len(rows)
    full = (1 << n) - 1
    if p == 2:
        # a GF(2) vector is its support, so the points' zero sets are distinct
        span = [0]
        for row in rows:
            span += list(map(row.__xor__, span))
        counts = dict.fromkeys(map(full.__xor__, span[1:]), 1)
    else:
        parts = []  # the zero sets of each row's points, in 16-bit lanes
        ones = twos = 0  # the span bit-sliced, lane k holding vector k
        size = 1
        for i, (v1, v2) in enumerate(rows):
            every = int.from_bytes(b"\x01\x00" * size, "little")  # 1 in every lane
            v1 *= every
            v2 *= every
            v, w = v1 | v2, ones | twos
            parts.append(
                (full * every ^ (v | w) | (v1 & twos) | (v2 & ones)).to_bytes(2 * size, "little")
            )
            if i < r - 1:
                both = v & w
                s1, s2 = (v1 | ones) ^ both, (v2 | twos) ^ both
                # the span grows by the points v_i + w and their doubles
                shift = 16 * size
                ones |= s1 << shift | s2 << 2 * shift
                twos |= s2 << shift | s1 << 2 * shift
                size *= 3
        zero_sets = array("H", b"".join(parts))
        if sys.byteorder == "big":
            zero_sets.byteswap()
        counts = Counter(zero_sets)
    rank = {(p**k - 1) // (p - 1): r - k for k in range(r + 1)}
    width = 1 if (p**r - 1) // (p - 1) <= 255 else 2
    lanes = bytearray(1 << n) if width == 1 else array("H", bytes(2 << n))
    deque(map(lanes.__setitem__, counts.keys(), counts.values()), maxlen=0)
    if width == 2 and sys.byteorder == "big":
        lanes.byteswap()
    f = int.from_bytes(lanes, "little")
    for x, outside in enumerate(_per_size(n, b"\xff" * width)):
        f += (f >> ((8 * width) << x)) & outside
    if width == 1:
        to_rank = bytearray(256)
        for count, r_a in rank.items():
            to_rank[count] = r_a
        return f.to_bytes(1 << n, "little").translate(to_rank)
    lanes = array("H", f.to_bytes(2 << n, "little"))
    if sys.byteorder == "big":
        lanes.byteswap()
    return list(map(rank.__getitem__, lanes))


def _local_failure(table: list[int], n: int, a: int) -> AxiomReport | None:
    """The first failure of the unit-increase axioms at mask a, or None.

    Elements x outside a are taken in ascending order; for a flat x the
    flat y below it are tested first.
    """
    r = table[a]
    flat: list[int] = []  # bits x outside a with r(a+x) = r(a)
    for x in range(n):
        bit = 1 << x
        if a & bit:
            continue
        ax = a | bit
        step = table[ax] - r
        if step == 0:
            for y in flat:
                if table[ax | y] != r:
                    if table[ax | y] < r:
                        return _monotonicity(table, a, ax | y)
                    return _submodularity(table, a | y, ax)
            flat.append(bit)
        elif step < 0:
            return _monotonicity(table, a, ax)
        elif step != 1:
            if table[bit] > 1:
                return AxiomReport(
                    False, "subcardinality", ((x,),), f"rank {table[bit]} > size 1"
                )
            return _submodularity(table, a, bit)
    return None


def _is_rank_function(table: list[int], ranks: int, n: int) -> AxiomReport:
    """The first failure of the unit-increase rank axioms, or a pass.

    An integer set function on the subsets of a finite set is a matroid
    rank function iff r(empty) = 0 and, for every A and x, y not in A,
    r(A) <= r(A+x) <= r(A) + 1, and r(A+x) = r(A+y) = r(A) implies
    r(A+x+y) = r(A) (Oxley, *Matroid Theory*, Ch. 1).  The pass takes
    the whole table at once, as byte sets (see the comment above
    :func:`_rank_bytes`); ``ranks`` is the table's rank image.  For
    each x, the ranks shifted by x against the ranks give flat(x), the
    masks A without x where r(A+x) = r(A), and the masks where
    r(A+x) - r(A) is neither 0 nor 1.  The zero-byte tests of
    :func:`_zero_bytes` are inlined and leave both flags at 0x80, so the
    masks where neither holds take one XOR against the masks tested, and
    only flat(x) is shifted down to bit 0.  A pair y < x fails at the A in
    flat(x) and flat(y) whose A+x is not in flat(y).  The pairs are
    tested eight at a time: the flat(y) of each group of eight elements
    are packed into one int, flat(y) in bit y mod 8 of each byte, and
    the bytes of flat(x) spread to 0xFF select, in one AND per group,
    every y of the group below x that fails.  With n <= 16 that is at
    most two groups, so O(n) operations on 2^n-byte ints in all, none of
    them a Python-level step per mask.  A byte fails iff some test fails
    at its mask, so the first failing mask in mask order is then
    reported by :func:`_local_failure`, as the classic axiom its failure
    breaks:

    - r(A+x) < r(A): monotonicity at (A, A+x);
    - r(A+x) >= r(A) + 2: subcardinality at {x} if r({x}) >= 2, else
      submodularity at (A, {x}), as r(A) + r({x}) <= r(A) + 1 < r(A+x);
    - r(A+x) = r(A+y) = r(A) != r(A+x+y): monotonicity at (A, A+x+y) if
      the rank drops, else submodularity at (A+y, A+x), whose meet is A.
    """
    if table[0] != 0:
        return AxiomReport(False, "normalization", ((),), f"rank({{}}) = {table[0]}")
    plus_one = ranks + _per_size(n, "ones")
    high = _per_size(n, "high")
    groups: list[int] = []  # groups[g]: flat(y) in bit y - 8g, for the y < x in group g
    failing = 0
    for x, within in enumerate(_per_size(n, b"\x80")):
        shift = 8 << x
        above = ranks >> shift  # byte a holds r(a + x)
        # the zero-byte tests of _zero_bytes, flags left in the 0x80 lane
        flat80 = (high - (above ^ ranks)) & within
        unit80 = (high - (above ^ plus_one)) & within
        failing |= within ^ flat80 ^ unit80  # flat and unit are disjoint parts of within
        flat = flat80 >> 7
        spread = flat * 0xFF
        for packed in groups:
            # the y flat at A less those flat at A+x, with no complement
            failing |= spread & (packed ^ (packed & (packed >> shift)))
        if x & 7:
            groups[-1] |= flat << (x & 7)
        else:
            groups.append(flat)
    if not failing:
        return AxiomReport(True)
    first = ((failing & -failing).bit_length() - 1) >> 3
    return _local_failure(table, n, first)


def validate_axioms(m: Matroid) -> AxiomReport:
    """Exhaustively check that the rank oracle is a matroid rank function.

    Refuses (rather than sampling) above the mask table's ceiling,
    VALIDATION_BOUND.  One pass over the mask table, O(n) operations on
    whole-table byte sets (the pairs tested eight at a time), decides by
    the local unit-increase axioms (see :func:`_is_rank_function`).  A failure
    names the normalization, subcardinality, monotonicity or
    submodularity violation that its local test exposes, with witness
    subsets that break that axiom on the table; it is the first such
    failure in mask order, not a minimal one.
    """
    ranks = _rank_image(m)  # builds the mask table if need be
    return _is_rank_function(m._mask_table, ranks, m.n)


@dataclass(frozen=True, slots=True)
class Circuit:
    """A minimal dependent set, stored in canonical ascending order."""

    members: tuple[int, ...]

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return len(self.members)

    def mask(self) -> int:
        return mask_of(self.members)


# sets a Circuit's one slot past the frozen __setattr__, for circuits()
_SET_MEMBERS = Circuit.members.__set__


# The members of each byte value, ascending, for the low byte of a mask
# and for its high byte: a mask below 2^16 (every mask a table holds)
# lists its members as _LOW_MEMBERS[a & 255] + _HIGH_MEMBERS[a >> 8].
_LOW_MEMBERS = [tuple(bits(b)) for b in range(256)]
_HIGH_MEMBERS = [tuple(e + 8 for e in low) for low in _LOW_MEMBERS]


def _members(masks: list[int]) -> list[tuple[int, ...]]:
    """Each mask's members as an ascending tuple, by two lookups per mask."""
    return [_LOW_MEMBERS[a & 255] + _HIGH_MEMBERS[a >> 8] for a in masks]


def _found_circuits(m: Matroid, max_n: int | None) -> list[int]:
    """The masks of m's circuits, in mask order, from one pass over the table.

    In a matroid, C is a circuit iff r(C) = |C| - 1 and r(C - e) = |C| - 1
    for every e in C: C is dependent and every maximal proper subset of
    it is independent, so every proper subset is.  The pass finds them
    as a byte set (see the comment above :func:`_rank_bytes`): the
    masks with r = size - 1, less, for each element x, those whose mask
    minus x is not independent.  That is O(n) operations on 2^n-byte
    ints; only the circuits found are then listed, one ``find`` each.
    """
    _refuse_above(m.n, _size_bound(max_n, CIRCUIT_BOUND), "circuit enumeration")
    n = m.n
    ranks = _rank_image(m)
    ones, sizes = _per_size(n, "ones"), _per_size(n, "sizes")
    high = _per_size(n, "high")
    found = _zero_bytes((ranks + ones) ^ sizes, high, high)
    not_independent = ones ^ _zero_bytes(ranks ^ sizes, high, high)
    for x, outside in enumerate(_per_size(n, b"\x01")):
        found ^= found & ((not_independent & outside) << (8 << x))
    flags = found.to_bytes(1 << n, "little")
    masks = []
    mask = flags.find(1)
    while mask >= 0:
        masks.append(mask)
        mask = flags.find(1, mask + 1)
    return masks


def _step_masks(m: Matroid) -> tuple[list[int], list[int], bytes | list[bool]]:
    """(flat, unit, closed) of every mask A: the mask of the x outside A
    with r(A + x) = r(A), of those with r(A + x) = r(A) + 1, and whether
    A is closed, r(A + x) > r(A) for every x outside A.

    One loop over the elements shifts the rank image once per element:
    two zero-byte tests find where the step to A + x is 0 and where it
    is 1, and a rise test finds where it is positive.  A rank drop makes
    A not closed, so the rise test is not a flat test: in each byte,
    0x80 + r(A + x) - (r(A) + 1) keeps its top bit iff r(A + x) > r(A),
    and no borrow crosses a byte, as every rank in the image is at most
    _RANK_CAP.  The byte sets of the elements below 8, and of those from
    8 up, are packed into one byte per mask each.  A table with a rank
    above _RANK_CAP is read mask by mask, as two capped ranks would read
    as equal.
    """
    t = m.mask_table()
    n, size = m.n, 1 << m.n
    if max(t) > _RANK_CAP:
        flat, unit, closed = [], [], []
        for a, r in enumerate(t):
            steps = [(x, t[a | 1 << x] - r) for x in range(n) if not a >> x & 1]
            flat.append(mask_of(x for x, d in steps if d == 0))
            unit.append(mask_of(x for x, d in steps if d == 1))
            closed.append(all(d > 0 for _, d in steps))
        return flat, unit, closed
    ranks, high = _rank_image(m), _per_size(n, "high")
    plus_one = ranks + _per_size(n, "ones")
    flat, unit, open_ = [], [], 0
    for x, within in enumerate(_per_size(n, b"\x80")):
        shifted = ranks >> (8 << x)
        flat.append(_zero_bytes(shifted ^ ranks, high, within))
        unit.append(_zero_bytes(shifted ^ plus_one, high, within))
        open_ |= within ^ (((shifted | high) - plus_one) & within)

    def packed(sets: list[int]) -> list[int]:
        low = sum(s << x for x, s in enumerate(sets[:8])).to_bytes(size, "little")
        if n <= 8:
            return list(low)
        top = sum(s << x for x, s in enumerate(sets[8:])).to_bytes(size, "little")
        return [lo | hi << 8 for lo, hi in zip(low, top)]

    return packed(flat), packed(unit), ((high ^ open_) >> 7).to_bytes(size, "little")


def circuits(m: Matroid, max_n: int | None = None) -> list[Circuit]:
    """All minimal dependent sets, ordered by (size, lexicographic).

    One pass over the mask table finds them (:func:`_found_circuits`);
    each circuit's members are read by two lookups (:func:`_members`),
    and the tuples are put in order by two sorts with no Python key:
    lexicographic, then stably by size.  Each ``Circuit`` is made with
    no Python ``__init__`` call: ``object.__new__``, then its slot set by
    the slot's descriptor, both in C-level maps, which gives the value
    ``Circuit(members)`` would.
    """
    members = _members(_found_circuits(m, max_n))
    members.sort()
    members.sort(key=len)
    made = list(map(object.__new__, itertools.repeat(Circuit, len(members))))
    deque(map(_SET_MEMBERS, made, members), maxlen=0)
    return made


def _circuit_masks(m: Matroid) -> list[int]:
    """The masks of m's circuits, in the order of :func:`circuits`, with no
    ``Circuit`` made: sorted by their member tuples, then stably by size."""
    masks = _found_circuits(m, None)
    masks.sort(key=dict(zip(masks, _members(masks))).__getitem__)
    masks.sort(key=int.bit_count)
    return masks


def is_loop_free(m: Matroid) -> bool:
    """True iff every singleton has rank 1."""
    return all(m.rank_of_mask(1 << x) == 1 for x in range(m.n))


def loops(m: Matroid) -> tuple[int, ...]:
    """The elements of rank 0, ascending: read from the mask table once it
    is built, else one :meth:`Matroid.rank_of_mask` call each, with its
    checks of the oracle's answer."""
    t = m._mask_table
    rank = m.rank_of_mask if t is None else t.__getitem__
    return tuple(x for x in range(m.n) if rank(1 << x) == 0)


@dataclass(frozen=True)
class EliminationReport:
    """Result of the circuit-elimination sweep over all circuit pairs.

    ``counterexample`` (when not ok) is (C1, C2, e, e1_or_None): the pair,
    the common element being eliminated, and the element that could not be
    kept (None when even the weak form failed).
    """

    ok: bool
    pairs_checked: int
    counterexample: tuple | None = None


def _eliminations(masks: list[int]):
    """The steps of the circuit-elimination sweep over the circuit masks:
    for each ordered pair C1 != C2 that meets, in mask-list order, and
    each e in C1 & C2, ascending, one (pairs met so far, C1, C2, e, the
    masks inside (C1 u C2) - e)."""
    pairs = 0
    for c1 in masks:
        for c2 in masks:
            common = c1 & c2
            if c1 == c2 or not common:
                continue
            pairs += 1
            for e in bits(common):
                allowed = (c1 | c2) & ~(1 << e)
                yield pairs, c1, c2, e, [cm for cm in masks if cm & ~allowed == 0]


def check_circuit_elimination(m: Matroid) -> EliminationReport:
    """Verify circuit elimination on every ordered pair of circuits.

    For circuits C1 != C2 and e in their intersection there must be a
    circuit inside (C1 u C2) - e; additionally, for every e1 in C1 - C2
    one such circuit must contain e1.  One pass of
    :func:`_eliminations` over the circuit masks tests both; only a
    counterexample's pair is listed as tuples.
    """
    pairs = 0
    for pairs, c1, c2, e, inside in _eliminations(_circuit_masks(m)):
        if not inside:
            return EliminationReport(False, pairs, (*_members([c1, c2]), e, None))
        for e1 in bits(c1 & ~c2):
            if not any(cm >> e1 & 1 for cm in inside):
                return EliminationReport(False, pairs, (*_members([c1, c2]), e, e1))
    return EliminationReport(True, pairs)
