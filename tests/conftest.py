"""Shared brute-force oracles and instance fixtures.

The oracles here re-derive facts from first principles (powerset sweeps,
independence-only definitions) so the library's faster routes are always
checked against an independent computation.
"""

import itertools
import random

import pytest

from matroidkit import (
    BoundExceededError,
    ChromaticResult,
    GroundSetError,
    ListChromaticResult,
    LoopError,
    Matroid,
    MatroidError,
    VectorSpec,
    anchor_classes,
    catalog,
    chromatic_number,
    circuits,
    closure,
    closure_by_intersection,
    contract,
    graphic,
    is_base,
    is_closed,
    is_loop_free,
    linear,
    loops,
    ordered_bases,
    uniform,
    validate_axioms,
)
from matroidkit.bases import _top_swap
from matroidkit.closure import _closed_masks
from matroidkit.coloring import (
    CHROMATIC_BOUND,
    ListDeficitError,
    _first_list_coloring,
)
from matroidkit.core import (
    AxiomReport,
    Circuit,
    EliminationReport,
    _monotonicity,
    _sub_masks,
    _submodularity,
    bits,
    mask_of,
    set_literal,
)
from matroidkit.lemmas import _fail, _ok


def powerset(iterable):
    s = list(iterable)
    return itertools.chain.from_iterable(
        itertools.combinations(s, r) for r in range(len(s) + 1)
    )


def _gf_rank(rows, p):
    """Gaussian elimination mod p with exact integer arithmetic.

    The reference for linear matroids, written apart from their oracle,
    which reduces bit-sliced basis rows masked by the subset over GF(2)
    and GF(3) (``constructions._sliced_basis``) and row-reduces a
    subset's columns above (``constructions._row_basis``), and their
    mask table, which counts row-space vectors or is filled by that
    oracle.
    """
    rows = [r[:] for r in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    row = 0
    for col in range(cols):
        pivot = next((i for i in range(row, len(rows)) if rows[i][col] % p != 0), None)
        if pivot is None:
            continue
        rows[row], rows[pivot] = rows[pivot], rows[row]
        inv = pow(rows[row][col], p - 2, p)
        rows[row] = [(x * inv) % p for x in rows[row]]
        for i in range(len(rows)):
            if i != row and rows[i][col] % p:
                f = rows[i][col] % p
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[row])]
        row += 1
        rank += 1
    return rank


def brute_circuits(m):
    """Minimal dependent sets straight from the independence definition."""
    dependent = [
        frozenset(c) for c in powerset(range(m.n)) if not m.is_independent(c)
    ]
    return sorted(
        (
            tuple(sorted(d))
            for d in dependent
            if not any(other < d for other in dependent)
        ),
        key=lambda t: (len(t), t),
    )


def closed_sets(m):
    """All closed subsets, in (size, lexicographic) order, by the definition:
    Z is closed iff adding any element outside it raises its rank."""
    return [
        z
        for z in powerset(range(m.n))
        if all(m.rank(z + (y,)) > m.rank(z) for y in range(m.n) if y not in z)
    ]


def fundamental_circuit_bruteforce(m, b, x):
    """Smallest dependent subset of base + x containing x, by a subset sweep.

    Searches subsets in (size, lex) order and additionally asserts there
    is exactly one circuit inside base + x.
    """
    if x in b:
        raise GroundSetError(f"element {x} is in the base")
    if not is_base(m, b.elements):
        raise GroundSetError(f"{set_literal(b.elements)} is not a base of {m.name}")
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


def circuit_base_part(m, b, x):
    """Base elements e with r(B - e + x) = |B|, last in base order first:
    x's fundamental circuit minus x, by one swap test per base element.
    Unchecked: b a base, x outside it."""
    bmask, size = mask_of(b.elements), len(b)
    for e in reversed(b.elements):
        if m.rank_of_mask((bmask ^ 1 << e) | 1 << x) == size:
            yield e


def brute_list_colorings(m, lists, order):
    """Proper list colorings by a sweep over the product of the lists.

    Elements are taken in `order`, colors in sorted order; an assignment is
    kept when no color class contains a circuit.
    """
    circs = [frozenset(c.members) for c in circuits(m)]
    lists_in_order = [sorted(lists[x]) for x in order]
    out = []
    for colors in itertools.product(*lists_in_order):
        phi = dict(zip(order, colors))
        classes = {}
        for x, c in phi.items():
            classes.setdefault(c, set()).add(x)
        if not any(circ <= cls for circ in circs for cls in classes.values()):
            out.append(phi)
    return out


def list_colorings_by_recursion(table, order, lists):
    """The list-coloring search as one recursive generator per element.

    Every proper list coloring of the elements in `order`, as a new dict
    each: elements in `order`, each trying its list's colors in list
    order, a color allowed while its class stays independent
    (``table[mask] == popcount``).  The reference for the library's
    iterative ``_first_list_coloring``, which must return the first
    coloring yielded here, or None when none is.
    """
    order = tuple(order)
    if not all(lists[x] for x in order):
        return
    phi: dict = {}
    class_masks: dict = {}

    def dfs(i: int):
        if i == len(order):
            yield dict(phi)
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


def lists_by_color_key(lists, n):
    """Each list of range(n) as a tuple sorted by (type name, str): one
    keyed sort per list, whatever the colors' types."""
    return {x: tuple(sorted(lists[x], key=lambda c: (type(c).__name__, str(c)))) for x in range(n)}


def is_list_colorable_by_recursion(m, lists):
    """The first coloring that list_colorings_by_recursion yields with the
    elements by (list size, id) and each list sorted by lists_by_color_key."""
    check_total_by_sets(m, lists, "listing")
    norm = lists_by_color_key(lists, m.n)
    order = sorted(range(m.n), key=lambda x: (len(norm[x]), x))
    return next(list_colorings_by_recursion(m.mask_table(), order, norm), None)


def chain_coloring_by_levels(chain, lists, depth):
    """(first coloring of level `depth`, None), or (None, first level with
    no coloring), by one recursive search per level in id order."""
    for i in range(depth + 1):
        m = chain.level(i)
        norm = lists_by_color_key(lists, m.n)
        phi = next(list_colorings_by_recursion(m.mask_table(), range(m.n), norm), None)
        if phi is None:
            return None, i
    return phi, None


def all_canonical_listings(n: int, k: int, colors: int):
    """Every k-listing on n elements, up to renaming, with <= `colors` colors.

    Element i chooses a k-set from the colors seen so far plus a run of
    fresh ones; fresh colors take the next unused labels, which is exactly
    the first-occurrence canonical form.  The run is capped at
    ``colors - used``; ``colors = n * k`` gives the full space.  The first
    listing is the constant one, {0..k-1} on every element.  The reference
    for the prefix walk below, which visits these listings in this order.
    """
    acc: list[tuple[int, ...]] = []

    def rec(i: int, used: int):
        if i == n:
            yield tuple(acc)
            return
        for fresh in range(min(k, colors - used) + 1):
            for old in itertools.combinations(range(used), k - fresh):
                acc.append(tuple(sorted(old + tuple(range(used, used + fresh)))))
                yield from rec(i + 1, used + fresh)
                acc.pop()

    yield from rec(0, 0)


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


def first_uncolorable_listing(table, n: int, k: int, colors: int):
    """First uncolorable canonical k-listing with <= `colors` colors, by a prefix walk.

    Visits the listings of ``all_canonical_listings(n, k, colors)`` in
    that generator's order, so the constant listing {0..k-1} comes first.
    Each node of the listing tree keeps its prefix's proper partial
    colorings, as tuples of class masks (one per color used so far), in a
    lazily filled list that its children share: a child pulls a parent
    coloring only when it needs one, pads it with zeros for its fresh
    colors, and extends it by each color of its list whose class stays
    independent (``table[new] == popcount``).  A leaf is colorable iff its
    stream yields one coloring.  Returns ``(listing or None, leaves
    decided)``; n >= 1.
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


def list_chromatic_by_sweep(m, kmax):
    """List-chromatic number by deciding every capped canonical k-listing.

    For each k, every canonical k-listing with at most n - 1 colors in all
    is decided by the prefix walk, and the first uncolorable one is the
    witness for k.  The cap loses nothing on a loop-free matroid: each
    color on A adds at least one to sum_c r(A & E_c), so a listing that
    fails Rado's condition on A shows fewer than |A| <= n colors on A, and
    giving every element outside A the first k of those colors keeps the
    failure.  No chromatic number is read, so this is
    the exhaustive check of Seymour's finite theorem that the library's
    counting-bound route rests on.
    """
    if m.n == 0:
        return ListChromaticResult(0, kmax, {})
    table = m.mask_table()
    bad = {}
    for k in range(1, kmax + 1):
        witness, _ = first_uncolorable_listing(table, m.n, k, m.n - 1)
        if witness is None:
            return ListChromaticResult(k, kmax, bad)
        bad[k] = {x: witness[x] for x in range(m.n)}
    return ListChromaticResult(None, kmax, bad)


def brute_list_chromatic(m, kmax):
    """List-chromatic number by a sweep of the full canonical listing space.

    For each k every canonical k-listing, with no cap on the colors
    (``all_canonical_listings(n, k, n * k)``), is tested by the list
    search; the first uncolorable one is the witness for k.
    """
    if m.n == 0:
        return ListChromaticResult(0, kmax, {})
    table = m.mask_table()
    bad = {}
    for k in range(1, kmax + 1):
        witness = next(
            (
                c
                for c in all_canonical_listings(m.n, k, m.n * k)
                if _first_list_coloring(table, range(m.n), c)[0] is None
            ),
            None,
        )
        if witness is None:
            return ListChromaticResult(k, kmax, bad)
        bad[k] = {x: witness[x] for x in range(m.n)}
    return ListChromaticResult(None, kmax, bad)


def brute_anchor(m, b, x):
    """x itself inside the ordered base b, else the order-maximum base
    element of x's fundamental circuit, found by the subset sweep."""
    if x in b:
        return x
    on_base = [e for e in fundamental_circuit_bruteforce(m, b, x) if e in b]
    return max(on_base, key=b.elements.index)


def anchor_repetition_by_sweep(m):
    """L17 by one anchor decomposition per ordered base, r! * C(n, r) of them.

    The reference for the library's per-base peel: bases lex, orders lex,
    circuits in (size, lex) order; the first circuit whose anchors are
    all distinct fails the check.
    """
    key, title = "L17", "every circuit repeats an anchor value"
    if not is_loop_free(m):
        return _ok(key, title, "vacuous: loops present")
    circs = [c.members for c in circuits(m)]
    if not circs:
        return _ok(key, title, "vacuous: no circuits")
    for ob in ordered_bases(m):
        decomp = anchor_classes(m, ob)
        for c in circs:
            anchors = [decomp.mapping[x] for x in c]
            if len(set(anchors)) == len(anchors):
                return _fail(
                    key,
                    title,
                    f"base {ob.elements} circuit {set_literal(c)}: all anchors distinct",
                )
    return _ok(key, title)


# References for the lemma checks that keep their subsets as masks: each
# sweeps as the check's definition reads, one id tuple and one library
# call per subset.  tests/test_lemmas.py asserts that every check gives
# the same (status, detail), abort text included, as its reference.


def closure_minimality_by_closure(m):
    """L7abc with each closure taken by ``closure`` on an id tuple, kept in a dict."""
    key, title = "L7abc", "closure is the least closed superset, monotone, idempotent"
    by_size = sorted(range(1 << m.n), key=lambda z: (z.bit_count(), tuple(bits(z))))
    closed = [z for z in by_size if is_closed(m, bits(z))]
    sig = {}
    for x in range(1 << m.n):
        sig[x] = mask_of(closure(m, bits(x)))
    for x in range(1 << m.n):
        for z in closed:
            if x & ~z == 0 and sig[x] & ~z != 0:
                return _fail(
                    key, title, f"closure({set_literal(bits(x))}) exceeds a closed superset"
                )
    for y in range(1 << m.n):
        for x in _sub_masks(y):
            if sig[x] & ~sig[y] != 0:
                return _fail(
                    key, title, f"not monotone at {set_literal(bits(x))} <= {set_literal(bits(y))}"
                )
    for x in range(1 << m.n):
        if sig[sig[x]] != sig[x]:
            return _fail(key, title, f"not idempotent at {set_literal(bits(x))}")
    return _ok(key, title)


def base_characterization_by_closed_sets(m):
    """L9 with every rank first read in mask order, the closed sets from
    ``closed_sets``, and each B's closure the meet of those containing B."""
    key, title = "L9", "bases are exactly the independent sets with full closure"
    full = (1 << m.n) - 1
    indep = [m.rank(bits(b)) == b.bit_count() for b in range(full + 1)]
    flats = [mask_of(z) for z in closed_sets(m)]
    for b in range(full + 1):
        ids = tuple(bits(b))
        maximal = indep[b] and all(
            m.rank(ids + (x,)) == len(ids) for x in range(m.n) if x not in ids
        )
        meet = full
        for z in flats:
            if b & ~z == 0:
                meet &= z
        if maximal != (indep[b] and meet == full):
            return _fail(key, title, f"B={set_literal(ids)}")
    return _ok(key, title)


def closure_routes_by_intersection(m):
    """L8 with each X's closed supersets swept by ``closure_by_intersection``."""
    key, title = "L8", "flat-extension closure equals intersection of closed supersets"
    for x in range(1 << m.n):
        fast = closure(m, bits(x))
        slow = closure_by_intersection(m, bits(x))
        if fast != slow:
            return _fail(
                key,
                title,
                f"X={set_literal(bits(x))}: {set_literal(fast)} vs {set_literal(slow)}",
            )
    return _ok(key, title)


def fitting_monotone_by_sweep(m):
    """L10a by the full sweep over (Z, A, Z1, Z0), gains recomputed per pair."""
    key, title = "L10a", "supersets of a fitting set fit"
    t = m.mask_table()
    full = (1 << m.n) - 1
    for z in range(1 << m.n):
        for a in _sub_masks(full & ~z):
            target = t[a | z] - t[z]
            for z1 in _sub_masks(z):
                r1 = t[a | z1] - t[z1]
                for z0 in _sub_masks(z1):
                    if t[a | z0] - t[z0] == target and r1 != target:
                        return _fail(
                            key,
                            title,
                            f"Z={set_literal(bits(z))} A={set_literal(bits(a))} "
                            f"Z0={set_literal(bits(z0))} Z1={set_literal(bits(z1))}",
                        )
    return _ok(key, title)


def fitting_common_by_combinations(m):
    """L10b with the family and each fitting subset from ``itertools.combinations``."""
    key, title = "L10b", "one finite set fits a whole finite family"
    t = m.mask_table()
    full = (1 << m.n) - 1
    for z in range(1 << m.n):
        rest = full & ~z
        family = [mask_of(c) for size in (1, 2) for c in itertools.combinations(list(bits(rest)), size)]
        if not family:
            continue
        union = 0
        for a in family:
            target = t[a | z] - t[z]
            fit = next(
                mask_of(c)
                for size in range(z.bit_count() + 1)
                for c in itertools.combinations(list(bits(z)), size)
                if t[a | mask_of(c)] - t[mask_of(c)] == target
            )
            union |= fit
        for a in family:
            if t[a | union] - t[union] != t[a | z] - t[z]:
                return _fail(
                    key,
                    title,
                    f"Z={set_literal(bits(z))}: union of fitting sets misses "
                    f"A={set_literal(bits(a))}",
                )
    return _ok(key, title)


def maximal_independent_size_by_sweep(m):
    """L1 by the sweep over pairs B inside A, maximality read per element of A - B."""
    key, title = "L1", "maximal independent subsets all have the subset's rank"
    t = m.mask_table()
    for a in range(1 << m.n):
        for b in _sub_masks(a):
            size = b.bit_count()
            if t[b] != size:
                continue
            if any(t[b | (1 << x)] == size + 1 for x in bits(a & ~b)):
                continue
            if size != t[a]:
                return _fail(
                    key,
                    title,
                    f"max independent {set_literal(bits(b))} has size {size} "
                    f"but rank({set_literal(bits(a))}) = {t[a]}",
                )
    return _ok(key, title)


def weak_elimination_by_circuits(m):
    """L2a on ``Circuit`` objects: for each ordered pair and common element,
    a scan of every circuit for one inside the union less that element."""
    key, title = "L2a", "circuit elimination (weak)"
    circs = [c.mask() for c in circuits(m)]
    pairs = 0
    for i, j in itertools.permutations(range(len(circs)), 2):
        c1, c2 = circs[i], circs[j]
        if not c1 & c2:
            continue
        pairs += 1
        for e in bits(c1 & c2):
            allowed = (c1 | c2) & ~(1 << e)
            if all(cm & ~allowed for cm in circs):
                return _fail(key, title, f"no circuit inside {set_literal(bits(c1 | c2))}-{{{e}}}")
    return _ok(key, title, "" if pairs else "vacuous: no intersecting circuit pair")


def unique_circuit_in_base_extension_by_circuits(m):
    """L3 by its statement on ``Circuit`` objects: for each base (the r-sets
    of rank r, lex) and each x outside it, the circuits inside B + x are
    counted one subset test each."""
    key, title = "L3", "exactly one circuit inside base + outside element"
    circs = [set(c) for c in circuits(m)]
    r = m.full_rank()
    bases = [b for b in itertools.combinations(range(m.n), r) if m.rank(b) == r]
    for b in bases:
        for x in sorted(set(range(m.n)) - set(b)):
            inside = sum(c <= {*b, x} for c in circs)
            if inside != 1:
                return _fail(key, title, f"base {set_literal(b)} + {x}: {inside} circuits")
    return _ok(key, title, "" if any(len(b) < m.n for b in bases) else "vacuous: no base/element pair")


def strong_elimination_by_circuits(m):
    """L2b from ``circuit_elimination_by_circuits``."""
    key, title = "L2b", "circuit elimination keeping a chosen element"
    report = circuit_elimination_by_circuits(m)
    if report.ok:
        return _ok(key, title, "" if report.pairs_checked else "vacuous: no intersecting circuit pair")
    c1, c2, e, e1 = report.counterexample
    return _fail(key, title, f"pair {set_literal(c1)},{set_literal(c2)} drop {e} keep {e1}")


def flatness_monotone_by_sweep(m):
    """L4 by the sweep over (B, A inside B, x outside B), two reads per x."""
    key, title = "L4", "rank-preserving extension transfers to supersets"
    t = m.mask_table()
    full = (1 << m.n) - 1
    for b in range(1 << m.n):
        for a in _sub_masks(b):
            for x in bits(full & ~b):
                if t[a | 1 << x] == t[a] and t[b | 1 << x] != t[b]:
                    return _fail(key, title, f"A={set_literal(bits(a))} B={set_literal(bits(b))} x={x}")
    return _ok(key, title)


def flatness_joint_by_sweep(m):
    """L5 with each A's flat extensions read element by element."""
    key, title = "L5", "jointly adding rank-preserving elements preserves rank"
    t = m.mask_table()
    full = (1 << m.n) - 1
    for a in range(1 << m.n):
        flat = mask_of(x for x in bits(full & ~a) if t[a | 1 << x] == t[a])
        for xs in _sub_masks(flat):
            if t[a | xs] != t[a]:
                return _fail(key, title, f"A={set_literal(bits(a))} X={set_literal(bits(xs))}")
    return _ok(key, title)


def closed_intersection_by_pairs(m):
    """L6 by the sweep over every pair of closed sets, from ``_closed_masks``."""
    key, title = "L6", "intersections of closed sets are closed"
    closed = _closed_masks(m)
    closed_set = set(closed)
    for z1 in closed:
        for z2 in closed:
            if z1 & z2 not in closed_set:
                return _fail(key, title, f"{set_literal(bits(z1))} meet {set_literal(bits(z2))}")
    return _ok(key, title)


def contraction_independence_by_ranks(m):
    """L12 with every rank read by ``Matroid.rank`` on id tuples."""
    key, title = "L12", "independent in contraction iff union with independent parts stays independent"
    m.mask_table()
    full = (1 << m.n) - 1
    for z in range(1 << m.n):
        zs = tuple(bits(z))
        indep = [tuple(bits(y)) for y in _sub_masks(z) if m.is_independent(bits(y))]
        for x in _sub_masks(full & ~z):
            xs = tuple(bits(x))
            lhs = m.rank(xs + zs) - m.rank(zs) == len(xs)
            rhs = all(m.rank(xs + ys) == len(xs) + m.rank(ys) for ys in indep)
            if lhs != rhs:
                return _fail(key, title, f"Z={set_literal(zs)} X={set_literal(xs)}")
    return _ok(key, title)


def circuit_closure_absorption_by_closed_sets(m):
    """L16 by the sweep over closed sets, from ``_closed_masks``, and circuits."""
    key, title = "L16", "a circuit nearly inside a closed set is inside it"
    cmasks = [c.mask() for c in circuits(m)]
    for z in _closed_masks(m):
        for cm in cmasks:
            if (cm & ~z).bit_count() == 1:
                return _fail(
                    key,
                    title,
                    f"circuit {set_literal(bits(cm))} sticks one element out of {set_literal(bits(z))}",
                )
    return _ok(key, title, "" if cmasks else "vacuous: no circuits")


def flat_extension_dependence_by_combinations(m):
    """L18 with each A's flat extensions read element by element."""
    key, title = "L18", "flat-extension elements beyond |A| are dependent"
    t = m.mask_table()
    full = (1 << m.n) - 1
    for a in range(1 << m.n):
        flat = [x for x in bits(full & ~a) if t[a | 1 << x] == t[a]]
        for combo in itertools.combinations(flat, a.bit_count() + 1):
            if t[mask_of(combo)] == len(combo):
                return _fail(key, title, f"A={set_literal(bits(a))} X={set_literal(combo)} independent")
    return _ok(key, title)


def flat_extension_count_by_sweep(m):
    """L19-analog with each A's flat extensions read element by element."""
    key, title = "L19-analog", "flat extensions hold at most Chr * |A| elements"
    if not is_loop_free(m):
        return _ok(key, title, "vacuous: loops present")
    t = m.mask_table()
    full = (1 << m.n) - 1
    chrom = chromatic_number(m).value
    for a in range(1 << m.n):
        flat = [x for x in bits(full & ~a) if t[a | 1 << x] == t[a]]
        if len(flat) > chrom * a.bit_count():
            return _fail(key, title, f"A={set_literal(bits(a))}: {len(flat)} > {chrom}*{a.bit_count()}")
    return _ok(key, title)


def contract_by_oracle(m, z):
    """The contraction m / z with no table: every rank is one call to m."""
    zmask = m._checked_mask(z)
    keep = tuple(x for x in range(m.n) if not zmask >> x & 1)
    rz = m.rank_of_mask(zmask)
    return Matroid(
        len(keep), lambda a: m.rank_of_mask(zmask | mask_of(keep[i] for i in bits(a))) - rz
    )


def contraction_is_matroid_by_oracle(m):
    """L11 with each contraction tabulated by its oracle, one call per mask."""
    key, title = "L11", "contraction never raises rank and is a matroid"
    t = m.mask_table()
    full = (1 << m.n) - 1
    for z in range(1 << m.n):
        mc = contract_by_oracle(m, bits(z))
        for a in _sub_masks(full & ~z):
            if t[a | z] - t[z] > t[a]:
                return _fail(key, title, f"Z={set_literal(bits(z))} A={set_literal(bits(a))}")
        report = validate_axioms(mc)
        if not report.ok:
            return _fail(key, title, f"Z={set_literal(bits(z))}: {report.describe()}")
    return _ok(key, title)


def contraction_loop_free_by_is_closed(m):
    """L13 with closedness by ``is_closed`` on id tuples."""
    key, title = "L13", "contraction is loop-free iff the contracted set is closed"
    for z in range(1 << m.n):
        if is_loop_free(contract(m, bits(z))) != is_closed(m, bits(z)):
            return _fail(key, title, f"Z={set_literal(bits(z))}")
    return _ok(key, title)


def circuit_elimination_by_circuits(m):
    """``check_circuit_elimination`` on ``Circuit`` objects, masks by ``Circuit.mask``."""
    circs = circuits(m)
    masks = [c.mask() for c in circs]
    pairs = 0
    for i, c1 in enumerate(circs):
        for j, c2 in enumerate(circs):
            if i == j:
                continue
            common = masks[i] & masks[j]
            if common == 0:
                continue
            pairs += 1
            union = masks[i] | masks[j]
            only1 = masks[i] & ~masks[j]
            for e in bits(common):
                allowed = union & ~(1 << e)
                inside = [cm for cm in masks if cm & ~allowed == 0]
                if not inside:
                    return EliminationReport(False, pairs, (c1.members, c2.members, e, None))
                for e1 in bits(only1):
                    if not any(cm & (1 << e1) for cm in inside):
                        return EliminationReport(False, pairs, (c1.members, c2.members, e, e1))
    return EliminationReport(True, pairs)


def chromatic_by_deepening(m, max_n=None):
    """Chromatic number by list-coloring searches at k = 1, 2, .. in turn.

    Element x may take the colors 0..min(x, k-1), so the first coloring
    found is the lexicographically first proper one with k colors.
    Raises what the library raises: LoopError, BoundExceededError, or
    MatroidError when no k up to n admits a coloring.
    """
    bound = CHROMATIC_BOUND if max_n is None else max_n
    if m.n > bound:
        raise BoundExceededError(f"chromatic search needs n <= {bound}, got {m.n}")
    table = m.mask_table()
    lp = loops(m)
    if lp:
        raise LoopError(f"no proper coloring exists: loops {set_literal(lp)}")
    if m.n == 0:
        return ChromaticResult(0, {})
    for k in range(1, m.n + 1):
        lists = {x: range(min(x + 1, k)) for x in range(m.n)}
        witness = _first_list_coloring(table, range(m.n), lists)[0]
        if witness is not None:
            return ChromaticResult(k, witness)
    x = next(x for x in range(m.n) if table[1 << x] > 1)
    raise MatroidError(
        f"not a matroid: subcardinality fails at {{{x}}}: rank {table[1 << x]} > size 1"
    )


def first_violation(table, n):
    """The four rank axioms scanned over all subsets and subset pairs.

    O(4^n), the reference for the library's one local pass.  Axioms are
    tried in the order normalization, subcardinality, monotonicity,
    submodularity, and subsets in (size, lexicographic) order, so the
    first violation found is minimal in that order.  Returns
    ``AxiomReport(True)`` if there is none.
    """
    full = (1 << n) - 1
    if table[0] != 0:
        return AxiomReport(False, "normalization", ((),), f"rank({{}}) = {table[0]}")
    order = [sum(1 << e for e in c) for c in powerset(range(n))]
    for a in order:
        if table[a] > a.bit_count():
            return AxiomReport(
                False, "subcardinality", (tuple(bits(a)),), f"rank {table[a]} > size {a.bit_count()}"
            )
    for a in order:
        # iterate strict supersets of a
        rest = full & ~a
        sup = rest
        while sup:
            b = a | sup
            if table[a] > table[b]:
                return AxiomReport(
                    False,
                    "monotonicity",
                    (tuple(bits(a)), tuple(bits(b))),
                    f"rank {table[a]} > rank {table[b]}",
                )
            sup = (sup - 1) & rest
    for i, a in enumerate(order):
        for b in order[i:]:
            if table[a] + table[b] < table[a & b] + table[a | b]:
                return AxiomReport(
                    False,
                    "submodularity",
                    (tuple(bits(a)), tuple(bits(b))),
                    f"{table[a]}+{table[b]} < {table[a & b]}+{table[a | b]}",
                )
    return AxiomReport(True)


def rank_function_by_pairs(table, n):
    """The unit-increase rank axioms checked mask by mask and pair by pair.

    O(n^2 * 2^n) Python steps, the reference for the library's byte-set
    pass: masks in ascending order, elements x outside the mask
    ascending, and for a flat x every flat y below it.  The first local
    failure is reported as the classic axiom it breaks, as the library
    words it.
    """
    if table[0] != 0:
        return AxiomReport(False, "normalization", ((),), f"rank({{}}) = {table[0]}")
    for a in range(1 << n):
        r = table[a]
        flat = []  # bits x outside a with r(a+x) = r(a)
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
    return AxiomReport(True)


def circuits_by_sweep(m):
    """Circuits by a sweep over subsets in (size, lex) order.

    The reference for the library's one byte-set pass: C is kept when
    r(C) = |C| - 1 and r(C - e) = |C| - 1 for every e in C.
    """
    table = m.mask_table()
    found = []
    for size in range(1, m.n + 1):
        for combo in itertools.combinations(range(m.n), size):
            mask = mask_of(combo)
            if table[mask] != size - 1:
                continue
            if all(table[mask & ~(1 << e)] == size - 1 for e in combo):
                found.append(Circuit(combo))
    return found


def witness_fault(table, report):
    """None iff a failing report's witness breaks its named axiom on the table.

    The table is indexed by bitmask.  The witness sets must come smallest
    first in (size, lexicographic) order and the detail must give their
    ranks as the library words them.
    """
    keys = [(len(w), w) for w in report.witness]
    if keys != sorted(set(keys)):
        return f"witness {report.witness} is not in (size, lex) order"
    sets = [sum(1 << e for e in w) for w in report.witness]
    r = table.__getitem__
    if report.axiom == "normalization" and sets == [0]:
        broken, detail = r(0) != 0, f"rank({{}}) = {r(0)}"
    elif report.axiom == "subcardinality" and len(sets) == 1:
        (a,) = sets
        broken, detail = r(a) > a.bit_count(), f"rank {r(a)} > size {a.bit_count()}"
    elif report.axiom == "monotonicity" and len(sets) == 2:
        a, b = sets
        broken, detail = a & b == a and r(a) > r(b), f"rank {r(a)} > rank {r(b)}"
    elif report.axiom == "submodularity" and len(sets) == 2:
        a, b = sets
        broken = r(a) + r(b) < r(a & b) + r(a | b)
        detail = f"{r(a)}+{r(b)} < {r(a & b)}+{r(a | b)}"
    else:
        return f"unexpected report {report.axiom} with witness {report.witness}"
    if not broken:
        return f"witness {report.witness} does not break {report.axiom}"
    if report.detail != detail:
        return f"detail {report.detail!r} should read {detail!r}"
    return None


def random_matroid(rng, kind, n):
    """A seeded random uniform, graphic, GF(2) or GF(3) matroid on n elements."""
    if kind == "uniform":
        return uniform(n, rng.randint(0, n))
    if kind == "graphic":
        vertices = [f"v{i}" for i in range(rng.randint(1, n + 1))]
        return graphic([(i, rng.choice(vertices), rng.choice(vertices)) for i in range(n)])
    p = 2 if kind == "gf2" else 3
    dim = rng.randint(1, 3)
    vectors = tuple(tuple(rng.randrange(p) for _ in range(dim)) for _ in range(n))
    return linear(VectorSpec(p, dim, vectors))


def prefix(m, k):
    """m restricted to range(k): the same oracle on the ids below k."""
    return Matroid(k, m.rank_of_mask)


def perturbed_tables(seed, per_base):
    """Rank tables of random matroids with one entry moved by +-1 or +-2."""
    rng = random.Random(seed)
    for kind in ("uniform", "graphic", "gf2", "gf3"):
        for n in range(1, 7):
            base = random_matroid(rng, kind, n).mask_table()
            for _ in range(per_base):
                mask = rng.randrange(1 << n)
                delta = rng.choice([d for d in (-2, -1, 1, 2) if base[mask] + d >= 0])
                table = list(base)
                table[mask] += delta
                yield f"{kind} n={n} mask={mask} {delta:+d}", n, table


# References for the base-driven coloring and the fallback, written step
# by step: the ids checked by one generator and a two-set diagnosis, each
# list sorted by lists_by_color_key, the anchor classes gathered per base
# element with no cache, the greedy colors picked by next(), and
# properness re-checked on the finished coloring, its ids checked again
# and each class read by rank_of_mask.  tests/test_coloring.py asserts
# that the library gives the same value, or the same exception type and
# text, on odd key sets, typed colors, desk matroids and perturbed tables.


def check_total_by_sets(m, mapping, kind):
    """Refuse a mapping whose keys are not exactly range(m.n): a generator
    over the keys, then on failure the missing and unknown ids by sets."""
    n = m.n
    if len(mapping) == n and all(type(x) is int and 0 <= x < n for x in mapping):
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
    m._checked_mask(keys)


def is_proper_by_ranks(m, phi):
    """Every color class independent, each read by one rank_of_mask call."""
    check_total_by_sets(m, phi, "coloring")
    classes = {}
    for x, c in phi.items():
        classes[c] = classes.get(c, 0) | 1 << x
    return all(m.rank_of_mask(cls) == cls.bit_count() for cls in classes.values())


def color_from_base_by_steps(m, b, lists):
    """The anchor-class coloring, each step on its own.

    A list whose distinct colors run out inside its class raises
    StopIteration here, from next(); the library raises ListDeficitError.
    """
    check_total_by_sets(m, lists, "listing")
    lp = loops(m)
    if lp:
        raise LoopError(f"anchor classes undefined: loops {set_literal(lp)}")
    if not is_base(m, b.elements):
        raise GroundSetError(f"{set_literal(b.elements)} is not a base of {m.name}")
    mapping = {x: x if x in b else _top_swap(m, b, x) for x in range(m.n)}
    classes = {e: tuple(x for x, a in mapping.items() if a == e) for e in b}
    norm = lists_by_color_key(lists, m.n)
    for base_elem, members in classes.items():
        need = len(members)
        for x in members:
            if len(norm[x]) < need:
                raise ListDeficitError(
                    f"class of base element {base_elem} has {need} members but "
                    f"element {x} lists only {len(norm[x])} colors "
                    f"(short by {need - len(norm[x])})"
                )
    phi = {}
    for base_elem in b:
        used = set()
        for x in classes[base_elem]:
            c = next(c for c in norm[x] if c not in used)
            phi[x] = c
            used.add(c)
    if not is_proper_by_ranks(m, phi):
        raise MatroidError("not a matroid: a class-injective coloring is not proper")
    return phi


def distinct_color_fallback_by_steps(m, lists):
    """Each element in id order takes the first color of its sorted list
    that no earlier element took; a list with none left is refused."""
    check_total_by_sets(m, lists, "listing")
    norm = lists_by_color_key(lists, m.n)
    phi = {}
    for x in range(m.n):
        free = [c for c in norm[x] if c not in phi.values()]
        if not free:
            raise GroundSetError(
                f"list of element {x} exhausted; needs >= {m.n} colors for the fallback"
            )
        phi[x] = free[0]
    return phi


def brute_max_independent_size(m, subset):
    """Largest independent subset of `subset`, by full enumeration."""
    best = 0
    for c in powerset(sorted(subset)):
        if m.is_independent(c):
            best = max(best, len(c))
    return best


@pytest.fixture(scope="session")
def suite6():
    return catalog.desk_suite(6)


@pytest.fixture(scope="session")
def suite7():
    return catalog.desk_suite(7)
