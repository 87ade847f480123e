"""Proper colorings, chromatic number, list coloring, and the base-driven
coloring construction.

A coloring is proper iff every color class is independent, equivalently
iff no circuit is monochromatic; both routes are implemented and kept in
agreement by the test suite.  List-colorability leans on Rado's condition
from matroid union: a listing L is colorable iff sum_c r(A & E_c) >= |A|
for every A, where E_c holds the elements whose list contains c.  That
condition gives the list-chromatic number from the chromatic number
alone (Seymour 1998): if the matroid is chi-colorable, the chi color
classes cut every S into independent sets, so r(S) >= |S| / chi, and
lists of size at least chi give
sum_c r(A & E_c) >= sum_c |A & E_c| / chi = sum_{x in A} |L(x)| / chi >= |A|.
Below chi the constant listing {0..k-1} is uncolorable, since a coloring
from it would be a proper k-coloring.

Every list-coloring question (chromatic_number's deepening,
is_list_colorable and the chain queries of compactness) is one run of
_first_list_coloring, on lists that _sorted_lists sorts once.  A listing
is read once, by one lookup pass, into a list of sorted tuples indexed
by id, and the search reads its candidates from that list; no dict is
built per call other than the coloring returned.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter

from .bases import OrderedBase, anchor_classes
from .core import (
    BoundExceededError,
    Circuit,
    GroundSetError,
    LoopError,
    Matroid,
    MatroidError,
    _refuse_above,
    _size_bound,
    circuits,
    loops,
    set_literal,
)

CHROMATIC_BOUND = 12


class ListDeficitError(MatroidError):
    """A color list is smaller than the anchor class containing its element."""


def _refuse_non_mapping(value, kind: str) -> None:
    """Refuse a listing or coloring that is no mapping from element ids: a
    sequence would be read by position, or crash.  Callers call it only
    on a value whose type is not exactly dict, so a plain dict takes one
    type test."""
    if not isinstance(value, Mapping):
        raise GroundSetError(
            f"{kind} must be a mapping from element ids, got {type(value).__name__}"
        )


def _check_total(m: Matroid, mapping, kind: str):
    """Refuse a value that is no mapping, or a mapping whose keys are not
    exactly the ids range(m.n).

    n distinct int keys in range(n) are exactly range(n), so the common
    case is accepted by one plain loop over the keys, with no generator
    or set built; any other mapping gets the two-set diagnosis.
    """
    if type(mapping) is not dict:
        _refuse_non_mapping(mapping, kind)
    n = m.n
    if len(mapping) == n:
        for x in mapping:
            if type(x) is not int or not 0 <= x < n:
                break
        else:
            return
    keys = set(mapping)
    want = set(range(n))
    if keys != want:
        missing = sorted(want - keys)
        extra = sorted(keys - want)
        parts = []
        if missing:
            parts.append(f"missing {set_literal(missing)}")
        if extra:
            parts.append(f"unknown {extra}")
        raise GroundSetError(f"{kind} must cover the ground set exactly: " + ", ".join(parts))
    m._checked_mask(keys)  # True and 1.0 equal 1, so they pass the cover check


def _class_masks(m: Matroid, phi) -> list[int]:
    """The mask of each color class of a total coloring, its ids checked."""
    _check_total(m, phi, "coloring")
    classes: dict = {}
    for x, c in phi.items():
        classes[c] = classes.get(c, 0) | 1 << x
    return list(classes.values())


def is_proper(m: Matroid, phi) -> bool:
    """True iff every color class of the (total) coloring is independent.

    The ids are checked and the class masks built in one pass each; their
    independence is one :meth:`Matroid._all_independent` call, a table
    read per class once the table is built, else a rank call per class.
    """
    return m._all_independent(_class_masks(m, phi))


def find_monochromatic_circuit(m: Matroid, phi) -> Circuit | None:
    """Secondary properness route: first circuit inside one color class."""
    classes = _class_masks(m, phi)
    return next(
        (c for c in circuits(m) if any(c.mask() & ~cls == 0 for cls in classes)), None
    )


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
    order and lies inside those lists.  Deepening starts at
    ceil(n / max(table)): every color class S has table[S] = |S|, so no
    class holds more than max(table) elements, and no fewer colors can
    cover the ground set.  Raises
    LoopError when no proper coloring exists at all, and MatroidError
    when a loop-free oracle admits none: some singleton has rank > 1.
    """
    _refuse_above(m.n, _size_bound(max_n, CHROMATIC_BOUND), "chromatic search")
    table = m.mask_table()
    lp = loops(m)
    if lp:
        raise LoopError(f"no proper coloring exists: loops {set_literal(lp)}")
    return _deepening(table, m.n)


def _deepening(table, n: int) -> ChromaticResult:
    """chromatic_number's search on a loop-free rank table of n elements."""
    if n == 0:
        return ChromaticResult(0, {})
    for k in range(-(-n // max(table)), n + 1):
        lists = [range(x + 1) for x in range(k)] + [range(k)] * (n - k)
        witness = _first_list_coloring(table, range(n), lists)[0]
        if witness is not None:
            return ChromaticResult(k, witness)
    # with every singleton of rank 1, x -> x is a proper n-coloring
    x = next(x for x in range(n) if table[1 << x] > 1)
    raise MatroidError(
        f"not a matroid: subcardinality fails at {{{x}}}: rank {table[1 << x]} > size 1"
    )


def _color_sort_key(c):
    return (c.__class__.__name__, str(c))


def _sorted_lists(lists, elements) -> list[tuple]:
    """Each element's list as a tuple of its colors in _color_sort_key order,
    one tuple per element in the order of `elements` (a range or other
    re-iterable), read by one lookup pass.

    A listing whose colors are all of exact type str sorts with no key,
    since a str is its own str; one of another single type sorts by
    ``key=str``, as the type names tie, with no Python call per color;
    mixed types sort by _color_sort_key.  Nothing is cached by list
    value: {1} and {True} are equal but sort and print differently.

    A list that is a one-shot iterator is read up by the type scan, so
    it sorts as empty; the routes refuse it by :func:`_refuse_spent`.
    """
    got = list(map(lists.__getitem__, elements))
    types = set(map(type, chain.from_iterable(got)))
    if types == {str}:
        return list(map(tuple, map(sorted, got)))
    key = _color_sort_key if len(types) > 1 else str
    return [tuple(sorted(l, key=key)) for l in got]


def _refuse_spent(lists, elements, norm) -> None:
    """Refuse a listing whose list for some element is a one-shot iterator,
    naming the first such element.

    The type scan of :func:`_sorted_lists` reads such a list up, so it
    sorts as empty and the route fails on it; each route calls this
    only on that failure, so a listing it colors takes no step for it.
    """
    for x, colors in zip(elements, norm):
        if not colors and iter(lists[x]) is lists[x]:
            raise GroundSetError(
                f"list of element {x} is a one-shot iterator: its colors can be read only once"
            )


def _first_list_coloring(table, order, lists) -> tuple[dict | None, int]:
    """First proper list coloring of the elements in `order`, or None, and
    the length of the longest prefix of `order` that the search colored.

    Elements are assigned in the given order, each trying its list's
    colors in list order; a color is allowed while its class mask stays
    independent by the rank table (``table[mask] == popcount``).  The
    search is exhaustive on prefixes, so on failure the length is that of
    the longest colorable prefix; it stops at the first empty list.

    `lists` maps each element to its colors: a dict, or a list indexed
    by id as _sorted_lists returns; the candidates of `order` are read
    from it in one pass.  One backtracking loop: depth i resumes its
    iterator over the list of order[i]; the stack keeps, per depth, that
    iterator, the color placed and the color's previous class mask (None
    for a new class), so the first complete stack is the coloring
    returned, zipped with `order`.
    """
    order = tuple(order)
    cands = list(map(lists.__getitem__, order))
    whole = all(cands)
    if not whole:  # no prefix through an empty list is colorable
        del cands[next(i for i, l in enumerate(cands) if not l):]
    last = len(cands) - 1
    if last < 0:
        return ({} if whole else None), 0
    bits = [1 << x for x in order]
    stack = [None] * len(cands)
    class_masks: dict = {}
    get = class_masks.get
    colored = 0
    i = 0
    it = iter(cands[0])
    while True:
        bit = bits[i]
        for c in it:
            prev = get(c)
            new = bit if prev is None else prev | bit
            if table[new] == new.bit_count():
                break
        else:  # depth i is exhausted: undo depth i - 1 and resume it
            if i > colored:
                colored = i
            if i == 0:
                return None, colored
            i -= 1
            it, c, prev = stack[i]
            if prev is None:
                del class_masks[c]
            else:
                class_masks[c] = prev
            continue
        stack[i] = it, c, prev
        if i == last:
            if not whole:
                return None, len(cands)
            return dict(zip(order, map(itemgetter(1), stack))), len(cands)
        class_masks[c] = new
        i += 1
        it = iter(cands[i])


def is_list_colorable(m: Matroid, lists):
    """First proper coloring drawing each element's color from its list.

    Backtracks over the product of the lists, visiting elements by
    ascending list size (ties by id) and colors in sorted order, so the
    returned coloring is the first in that deterministic order.  Returns
    None if the lists admit no proper coloring.  Independence is read from
    the rank table, so the bound is the table's own, VALIDATION_BOUND.
    """
    _check_total(m, lists, "listing")
    norm = _sorted_lists(lists, range(m.n))
    order = sorted(range(m.n), key=list(map(len, norm)).__getitem__)  # stable: ties by id
    phi = _first_list_coloring(m.mask_table(), order, norm)[0]
    if phi is None:
        _refuse_spent(lists, range(m.n), norm)
    return phi


@dataclass(frozen=True)
class ListChromaticResult:
    """Outcome of the list-chromatic computation.

    value is the least k <= kmax for which every k-listing is colorable,
    or None if kmax was exhausted (the true value is then >= kmax + 1).
    bad_listings maps each failed k to an uncolorable k-listing, the
    constant listing {0..k-1}.
    """

    value: int | None
    kmax: int
    bad_listings: dict[int, dict[int, tuple[int, ...]]] = field(hash=False)

    @property
    def lower_bound(self) -> int:
        return self.value if self.value is not None else self.kmax + 1


def list_chromatic_number(
    m: Matroid, kmax: int = 3, max_n: int | None = None
) -> ListChromaticResult:
    """Least k such that every k-listing admits a proper list coloring.

    Exact by Seymour's counting bound (see the module docstring): the
    answer is the chromatic number chi, and for each k below it the
    constant listing {0..k-1} is the uncolorable witness: every element
    maps to one tuple (0, ..., k-1), shared by the listing.  Bounds, and
    ``max_n``, are those of :func:`chromatic_number`; a ``kmax`` or
    ``max_n`` whose type is not exactly int is refused, as is a negative
    ``max_n``.
    """
    _refuse_above(m.n, _size_bound(max_n, CHROMATIC_BOUND), "chromatic search")
    if type(kmax) is not int:
        raise BoundExceededError(f"kmax must be an int, got {kmax!r}")
    if kmax < 1:
        raise BoundExceededError(f"kmax must be at least 1, got {kmax}")
    table = m.mask_table()  # its size refusal, as in chromatic_number, comes before loops
    lp = loops(m)
    if lp:
        raise LoopError(f"no list coloring exists: loops {set_literal(lp)}")
    chi = _deepening(table, m.n).value
    bad_listings = {
        k: dict.fromkeys(range(m.n), tuple(range(k))) for k in range(1, min(chi, kmax + 1))
    }
    return ListChromaticResult(chi if chi <= kmax else None, kmax, bad_listings)


# --- the base-driven construction ----------------------------------------

def color_from_base(m: Matroid, b: OrderedBase, lists) -> dict:
    """Proper list coloring built from an ordered base's anchor classes.

    Within each anchor class, elements greedily take a list color unused
    by the class so far; injectivity inside every class is what makes the
    result proper (any circuit carries two elements with equal anchors).
    Every element's list must be at least as large as its class, and must
    hold a color its class has not used yet (ListDeficitError).  The color
    class masks are built as the elements take their colors, and their
    independence is checked by one :meth:`Matroid._all_independent` call;
    a dependent class means the oracle is not a matroid (MatroidError).
    The classes cover range(n), so the ids need no second check.
    """
    _check_total(m, lists, "listing")
    decomp = anchor_classes(m, b)
    norm = _sorted_lists(lists, range(m.n))
    for base_elem, members in decomp.classes.items():
        need = len(members)
        for x in members:
            if len(norm[x]) < need:
                _refuse_spent(lists, range(m.n), norm)
                raise ListDeficitError(
                    f"class of base element {base_elem} has {need} members but "
                    f"element {x} lists only {len(norm[x])} colors "
                    f"(short by {need - len(norm[x])})"
                )
    phi: dict[int, object] = {}
    masks: dict = {}
    for base_elem in b:
        members = decomp.classes[base_elem]
        used = set()
        for x in members:
            for c in norm[x]:
                if c not in used:
                    break
            else:  # a repeated color passed the size check above
                have = len(set(norm[x]))
                raise ListDeficitError(
                    f"class of base element {base_elem} has {len(members)} members but "
                    f"element {x} lists only {have} distinct colors "
                    f"(short by {len(members) - have})"
                )
            phi[x] = c
            used.add(c)
            masks[c] = masks.get(c, 0) | 1 << x
    if not m._all_independent(masks.values()):
        raise MatroidError("not a matroid: a class-injective coloring is not proper")
    return phi


def distinct_color_fallback(m: Matroid, lists) -> dict:
    """All-distinct list coloring; exists whenever every list has >= n colors."""
    _check_total(m, lists, "listing")
    norm = _sorted_lists(lists, range(m.n))
    used = set()
    phi: dict[int, object] = {}
    for x in range(m.n):
        free = [c for c in norm[x] if c not in used]
        if not free:
            _refuse_spent(lists, range(m.n), norm)
            raise GroundSetError(
                f"list of element {x} exhausted; needs >= {m.n} colors for the fallback"
            )
        phi[x] = free[0]
        used.add(free[0])
    return phi
