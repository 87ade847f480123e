"""Proper colorings, chromatic number, list coloring, and the base-driven
coloring construction.

A coloring is proper iff every color class is independent, equivalently
iff no circuit is monochromatic; both routes are implemented and kept in
agreement by the test suite.  List-colorability verification leans on
Rado's condition from matroid union: a listing L is colorable iff
sum_c r(A & E_c) >= |A| for every A, where E_c holds the elements whose
list contains c.  In a loop-free matroid each color on A adds at least
one to that sum, so a k-listing that fails on A shows fewer than |A| <= n
colors on A.  Giving every element outside A the first k of those colors
keeps the failure on A, so if any k-listing is uncolorable, one with at
most n - 1 colors in all is.  Deciding (up to color renaming) just those
palette-capped listings therefore decides whether *every* k-listing is
colorable.  They are decided by one depth-first prefix walk of the
listing tree: listings that share a prefix of lists share that prefix's
proper partial colorings, which are found once and extended by each
child.  The walk opens with the constant listing {0..k-1}, which is
uncolorable exactly when k is below the chromatic number.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, field

from .bases import OrderedBase, anchor_classes
from .closure import closure
from .core import (
    BoundExceededError,
    Circuit,
    GroundSetError,
    LoopError,
    Matroid,
    MatroidError,
    _refuse_above,
    circuits,
    loops,
    set_literal,
)

LIST_ENUM_N_BOUND = 5
# max_n may lift LIST_ENUM_N_BOUND up to here, never past it: every 6-element
# desk sweep at kmax 4 ends within 0.2 s, but uniform(7, 3) at kmax 3 decides
# 19,791,010 listings in 38 s (prefix walk, Python 3.11, x86-64 Xeon)
LIST_ENUM_N_CEILING = 6
LIST_ENUM_KMAX = 4
CHROMATIC_BOUND = 12

logger = logging.getLogger(__name__)


class ListDeficitError(MatroidError):
    """A color list is smaller than the anchor class containing its element."""


def _check_total(m: Matroid, mapping, kind: str):
    keys = set(mapping)
    want = set(range(m.n))
    if keys != want:
        missing = sorted(want - keys)
        extra = sorted(keys - want)
        parts = []
        if missing:
            parts.append(f"missing {set_literal(missing)}")
        if extra:
            parts.append(f"unknown {extra}")
        raise GroundSetError(f"{kind} must cover the ground set exactly: " + ", ".join(parts))


def color_classes(phi) -> dict:
    out: dict = {}
    for x, c in phi.items():
        out.setdefault(c, set()).add(x)
    return out


def is_proper(m: Matroid, phi) -> bool:
    """True iff every color class of the (total) coloring is independent."""
    _check_total(m, phi, "coloring")
    return all(m.is_independent(cls) for cls in color_classes(phi).values())


def find_monochromatic_circuit(m: Matroid, phi) -> Circuit | None:
    """Secondary properness route: first circuit inside one color class."""
    _check_total(m, phi, "coloring")
    classes = [frozenset(v) for v in color_classes(phi).values()]
    for c in circuits(m):
        cset = frozenset(c.members)
        for cls in classes:
            if cset <= cls:
                return c
    return None


@dataclass(frozen=True)
class ChromaticResult:
    value: int
    coloring: dict[int, int] = field(hash=False)


def chromatic_number(m: Matroid, max_n: int | None = None) -> ChromaticResult:
    """Smallest k admitting a partition into k independent classes.

    Iterative deepening over k, each step one run of the list-coloring
    search with element x allowed the colors 0..min(x, k-1).  The witness
    is the lexicographically first proper k-coloring: swapping two color
    labels keeps a coloring proper, so that coloring opens its colors in
    order and lies inside those lists.  Deepening starts at ceil(n / a),
    where a is the largest |S| with table[S] = |S|: every color class is
    such a set, so no fewer colors can cover the ground set.  Raises
    LoopError when no proper coloring exists at all, and MatroidError
    when a loop-free oracle admits none: some singleton has rank > 1.
    """
    _refuse_above(m.n, CHROMATIC_BOUND if max_n is None else max_n, "chromatic search")
    table = m.mask_table()
    lp = loops(m)
    if lp:
        raise LoopError(f"no proper coloring exists: loops {set_literal(lp)}")
    if m.n == 0:
        return ChromaticResult(0, {})
    alpha = max((s.bit_count() for s, r in enumerate(table) if r == s.bit_count()), default=0)
    start = -(-m.n // alpha) if alpha else m.n + 1  # no class fits: nothing to search
    for k in range(start, m.n + 1):
        lists = {x: range(min(x + 1, k)) for x in range(m.n)}
        witness = next(_list_colorings(table, range(m.n), lists, {}, {}), None)
        if witness is not None:
            return ChromaticResult(k, dict(witness))
    # with every singleton of rank 1, x -> x is a proper n-coloring
    x = next(x for x in range(m.n) if table[1 << x] > 1)
    raise MatroidError(
        f"not a matroid: subcardinality fails at {{{x}}}: rank {table[1 << x]} > size 1"
    )


def _color_sort_key(c):
    return (c.__class__.__name__, str(c))


def _list_colorings(table, order, lists, phi, class_masks):
    """Every proper list coloring of the elements in `order`, extending phi.

    Elements are assigned in the given order, each trying its list's
    colors in list order; a color is allowed while its class mask stays
    independent by the rank table (``table[mask] == popcount``).  phi and
    class_masks (color -> mask) are extended in place and restored on
    backtrack, so the yielded phi is live: callers copy what they keep.
    Yields nothing when a list in `order` is empty.
    """
    order = tuple(order)
    if not all(lists[x] for x in order):
        return

    def dfs(i: int):
        if i == len(order):
            yield phi
            return
        x = order[i]
        bit = 1 << x
        for c in lists[x]:
            prev = class_masks.get(c)
            new = (prev or 0) | bit
            if table[new] != new.bit_count():
                continue
            class_masks[c] = new
            phi[x] = c
            yield from dfs(i + 1)
            del phi[x]
            if prev is None:
                del class_masks[c]
            else:
                class_masks[c] = prev

    yield from dfs(0)


def is_list_colorable(m: Matroid, lists):
    """First proper coloring drawing each element's color from its list.

    Backtracks over the product of the lists, visiting elements by
    ascending list size (ties by id) and colors in sorted order, so the
    returned coloring is the first in that deterministic order.  Returns
    None if the lists admit no proper coloring (immediately so when some
    list is empty).  Independence is read from the rank table, so the
    bound is the table's own, VALIDATION_BOUND.
    """
    _check_total(m, lists, "listing")
    norm = {x: tuple(sorted(lists[x], key=_color_sort_key)) for x in lists}
    empty = sorted(x for x, v in norm.items() if not v)
    if empty:
        logger.debug("no list coloring: empty lists on %s", set_literal(empty))
        return None
    order = sorted(range(m.n), key=lambda x: (len(norm[x]), x))
    phi = next(_list_colorings(m.mask_table(), order, norm, {}, {}), None)
    return None if phi is None else dict(phi)


# --- the canonical k-listing walk -----------------------------------------

def _shared(colorings):
    """Lazily filled list over a stream: pull(j) is its j-th item, or None."""
    cache: list = []

    def pull(j: int):
        while len(cache) <= j:
            nxt = next(colorings, None)
            if nxt is None:
                return None
            cache.append(nxt)
        return cache[j]

    return pull


def _first_uncolorable_listing(table, n: int, k: int, colors: int):
    """First uncolorable canonical k-listing with <= `colors` colors, by a prefix walk.

    Canonical k-listings (up to color renaming) form a tree: element i
    picks a k-set from the colors seen so far plus a run of fresh ones,
    which take the next unused labels, and the run is capped at
    ``colors - used``.  Children are visited with `fresh` ascending and
    the old colors in ``combinations`` order, so the leaves come in the
    order of the reference generator and the constant listing {0..k-1}
    comes first.  Each node's proper partial colorings, as tuples of
    class masks (one per color used so far), sit in a lazily filled list
    that its children share: a child pulls a parent coloring only when it
    needs one, pads it with zeros for its fresh colors, and extends it by
    each color of its list whose class stays independent
    (``table[new] == popcount``).  A leaf is colorable iff its stream
    yields one coloring.  The walk is depth-first, so at most n + 1 nodes
    are alive.  Returns ``(listing or None, leaves decided)``; n >= 1.
    """
    acc: list[tuple[int, ...]] = []
    decided = 0

    def extend(pull, pad, lst, bit):
        j = 0
        while (p := pull(j)) is not None:
            p += pad
            for c in lst:
                new = p[c] | bit
                if table[new] == new.bit_count():
                    yield p[:c] + (new,) + p[c + 1:]
            j += 1

    def walk(i: int, used: int, pull) -> bool:
        nonlocal decided
        bit = 1 << i
        leaf = i + 1 == n
        for fresh in range(min(k, colors - used) + 1):
            pad = (0,) * fresh
            new_colors = tuple(range(used, used + fresh))
            for old in itertools.combinations(range(used), k - fresh):
                lst = old + new_colors
                stream = extend(pull, pad, lst, bit)
                acc.append(lst)
                if leaf:
                    decided += 1
                    if next(stream, None) is None:
                        return True
                elif walk(i + 1, used + fresh, _shared(stream)):
                    return True
                acc.pop()
        return False

    found = walk(0, 0, _shared(iter([()])))
    return (tuple(acc) if found else None), decided


@dataclass(frozen=True)
class ListChromaticResult:
    """Outcome of the exact list-chromatic computation.

    value is the least k <= kmax for which every k-listing is colorable,
    or None if kmax was exhausted (the true value is then >= kmax + 1).
    bad_listings maps each failed k to the first uncolorable canonical
    k-listing; for k below the chromatic number that is the constant
    listing {0..k-1}.  candidates_checked counts the listings decided,
    summed over k: up to and including each witness, and every capped
    listing at the answer.
    """

    value: int | None
    kmax: int
    bad_listings: dict[int, dict[int, tuple[int, ...]]] = field(hash=False)
    candidates_checked: int = field(default=0, compare=False)

    @property
    def lower_bound(self) -> int:
        return self.value if self.value is not None else self.kmax + 1


def list_chromatic_number(
    m: Matroid, kmax: int = 3, max_n: int | None = None
) -> ListChromaticResult:
    """Least k such that every k-listing admits a proper list coloring.

    Exact: for each k, every canonical k-listing with at most n - 1 colors
    in all is decided by one prefix walk (complete by Rado's condition,
    see the module docstring), and the first uncolorable one is the
    witness for k.
    ``max_n`` raises the size bound, but not past LIST_ENUM_N_CEILING.
    """
    bound = LIST_ENUM_N_BOUND if max_n is None else min(max_n, LIST_ENUM_N_CEILING)
    _refuse_above(m.n, bound, "listing enumeration")
    if kmax < 1 or kmax > LIST_ENUM_KMAX:
        raise BoundExceededError(f"kmax must be in 1..{LIST_ENUM_KMAX}, got {kmax}")
    table = m.mask_table()
    lp = loops(m)
    if lp:
        raise LoopError(f"no list coloring exists: loops {set_literal(lp)}")
    if m.n == 0:
        return ListChromaticResult(0, kmax, {})
    bad_listings: dict[int, dict[int, tuple[int, ...]]] = {}
    checked = 0
    for k in range(1, kmax + 1):
        bad, decided = _first_uncolorable_listing(table, m.n, k, m.n - 1)
        checked += decided
        if bad is None:
            return ListChromaticResult(k, kmax, bad_listings, checked)
        bad_listings[k] = {x: bad[x] for x in range(m.n)}
    return ListChromaticResult(None, kmax, bad_listings, checked)


# --- the base-driven construction ----------------------------------------

def color_from_base(m: Matroid, b: OrderedBase, lists) -> dict:
    """Proper list coloring built from an ordered base's anchor classes.

    Within each anchor class, elements greedily take a list color unused
    by the class so far; injectivity inside every class is what makes the
    result proper (any circuit carries two elements with equal anchors).
    Every element's list must be at least as large as its class.
    """
    _check_total(m, lists, "listing")
    decomp = anchor_classes(m, b)
    for base_elem, members in decomp.classes.items():
        need = len(members)
        for x in members:
            if len(lists[x]) < need:
                raise ListDeficitError(
                    f"class of base element {base_elem} has {need} members but "
                    f"element {x} lists only {len(lists[x])} colors "
                    f"(short by {need - len(lists[x])})"
                )
    phi: dict[int, object] = {}
    for base_elem in b:
        used = set()
        for x in decomp.classes[base_elem]:
            c = next(
                c
                for c in sorted(lists[x], key=_color_sort_key)
                if c not in used
            )
            phi[x] = c
            used.add(c)
    if not is_proper(m, phi):
        raise MatroidError("not a matroid: a class-injective coloring is not proper")
    return phi


def distinct_color_fallback(m: Matroid, lists) -> dict:
    """All-distinct list coloring; exists whenever every list has >= n colors."""
    _check_total(m, lists, "listing")
    used = set()
    phi: dict[int, object] = {}
    for x in range(m.n):
        free = [c for c in sorted(lists[x], key=_color_sort_key) if c not in used]
        if not free:
            raise GroundSetError(
                f"list of element {x} exhausted; needs >= {m.n} colors for the fallback"
            )
        phi[x] = free[0]
        used.add(free[0])
    return phi


@dataclass(frozen=True)
class DegreeReport:
    """Flat-extension degree facts around one subset A.

    flat_extension holds the elements outside A that keep A's rank;
    part (i): every (|A|+1)-subset of them is dependent;
    part (ii): there are at most Chr * |A| of them.
    """

    ok: bool
    subset: tuple[int, ...]
    flat_extension: tuple[int, ...]
    chromatic: int
    dependent_subsets_checked: int
    witness: tuple[int, ...] | None = None
    detail: str = ""


def degree_bound_check(m: Matroid, a) -> DegreeReport:
    """Check the two degree bounds for the flat extension of a subset."""
    a = m.check_subset(a)
    if loops(m):
        raise LoopError("degree bounds need a loop-free matroid")
    flat = tuple(x for x in closure(m, a) if x not in a)
    asort = tuple(sorted(a))
    chrom = chromatic_number(m).value
    checked = 0
    for combo in itertools.combinations(flat, len(a) + 1):
        checked += 1
        if m.rank(combo) == len(combo):
            return DegreeReport(
                False,
                asort,
                flat,
                chrom,
                checked,
                witness=combo,
                detail="flat-extension elements formed an independent set",
            )
    if len(flat) > chrom * len(a):
        return DegreeReport(
            False,
            asort,
            flat,
            chrom,
            checked,
            witness=flat,
            detail=f"{len(flat)} flat-extension elements exceed {chrom}*{len(a)}",
        )
    return DegreeReport(True, asort, flat, chrom, checked)
