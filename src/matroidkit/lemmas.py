"""The lemma battery: exhaustive desk-scale checks of the structure theory.

Each entry verifies one named property (rank/maximal-independent agreement,
circuit elimination, closure calculus, contraction, anchor repetition, the
coloring degree bounds) on a concrete matroid, by enumeration.  Keys L1..L19
are stable battery ids; a check either passes, fails with a witness, or is
skipped above its size bound.  Vacuously-true cases pass with a note.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .bases import OrderedBase, _circuit_base_part, all_bases, anchor_classes
from .closure import _closed_masks, _closure_mask, _is_closed_mask
from .coloring import chromatic_number, distinct_color_fallback, is_proper
from .core import (
    LoopError,
    Matroid,
    MatroidError,
    _bad_rank,
    _circuit_masks,
    _is_rank_function,
    _rank_bytes,
    _sub_masks,
    _subsets_by_size,
    bits,
    check_circuit_elimination,
    circuits,
    is_loop_free,
    mask_of,
    set_literal,
    validate_axioms,
)

LEMMA_BOUND = 8
# max_n may lift LEMMA_BOUND up to here, never past it.  The battery on
# uniform(9, 7) takes 0.25-0.44 s, and on a 9-edge graph (K4 plus a
# vertex joined to three of its vertices) 0.30-0.47 s, L10ab half or
# more of it; at n = 10 it takes about 5 s (uniform(10, 5)), 3.2-3.5 s
# of it in L2a and L2b's scans of circuit pairs and 1.1-1.4 s in L10ab
# (2-vCPU x86-64 guest, Python 3.11)
LEMMA_N_CEILING = 9


@dataclass(frozen=True)
class LemmaResult:
    key: str
    title: str
    status: str  # "pass" | "fail" | "skipped"
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status != "fail"


def _fail(key, title, detail):
    return LemmaResult(key, title, "fail", detail)


def _ok(key, title, detail=""):
    return LemmaResult(key, title, "pass", detail)


def check_maximal_independent_size(m: Matroid) -> LemmaResult:
    key, title = "L1", "maximal independent subsets all have the subset's rank"
    t = m.mask_table()
    for a in range(1 << m.n):
        for b in _sub_masks(a):
            size = b.bit_count()
            if t[b] != size:
                continue
            # maximal inside a?
            if any(
                t[b | (1 << x)] == size + 1 for x in bits(a & ~b)
            ):
                continue
            if size != t[a]:
                return _fail(
                    key,
                    title,
                    f"max independent {set_literal(bits(b))} has size {size} "
                    f"but rank({set_literal(bits(a))}) = {t[a]}",
                )
    return _ok(key, title)


def check_weak_elimination(m: Matroid) -> LemmaResult:
    key, title = "L2a", "circuit elimination (weak)"
    cmasks = _circuit_masks(m)
    pairs = 0
    for i, c1 in enumerate(cmasks):
        for j, c2 in enumerate(cmasks):
            if i == j or not c1 & c2:
                continue
            pairs += 1
            for e in bits(c1 & c2):
                allowed = (c1 | c2) & ~(1 << e)
                if not any(cm & ~allowed == 0 for cm in cmasks):
                    return _fail(
                        key,
                        title,
                        f"no circuit inside {set_literal(bits(c1 | c2))}-{{{e}}}",
                    )
    return _ok(key, title, "" if pairs else "vacuous: no intersecting circuit pair")


def check_strong_elimination(m: Matroid) -> LemmaResult:
    key, title = "L2b", "circuit elimination keeping a chosen element"
    report = check_circuit_elimination(m)
    if report.ok:
        note = "" if report.pairs_checked else "vacuous: no intersecting circuit pair"
        return _ok(key, title, note)
    c1, c2, e, e1 = report.counterexample
    return _fail(key, title, f"pair {set_literal(c1)},{set_literal(c2)} drop {e} keep {e1}")


def check_unique_circuit_in_base_extension(m: Matroid) -> LemmaResult:
    key, title = "L3", "exactly one circuit inside base + outside element"
    cmasks = _circuit_masks(m)
    all_b = all_bases(m)
    for b in all_b:
        bmask = mask_of(b)
        for x in range(m.n):
            if bmask >> x & 1:
                continue
            inside = [cm for cm in cmasks if cm & ~(bmask | 1 << x) == 0]
            if len(inside) != 1:
                return _fail(
                    key,
                    title,
                    f"base {set_literal(b)} + {x}: {len(inside)} circuits",
                )
    note = "vacuous: no base/element pair" if not all_b or all(len(b) == m.n for b in all_b) else ""
    return _ok(key, title, note)


def check_flatness_monotone(m: Matroid) -> LemmaResult:
    key, title = "L4", "rank-preserving extension transfers to supersets"
    t = m.mask_table()
    full = (1 << m.n) - 1
    for b in range(1 << m.n):
        for a in _sub_masks(b):
            for x in bits(full & ~b):
                if t[a | 1 << x] == t[a] and t[b | 1 << x] != t[b]:
                    return _fail(
                        key,
                        title,
                        f"A={set_literal(bits(a))} B={set_literal(bits(b))} x={x}",
                    )
    return _ok(key, title)


def check_flatness_joint(m: Matroid) -> LemmaResult:
    key, title = "L5", "jointly adding rank-preserving elements preserves rank"
    t = m.mask_table()
    full = (1 << m.n) - 1
    for a in range(1 << m.n):
        flat = mask_of(
            x for x in bits(full & ~a) if t[a | 1 << x] == t[a]
        )
        for xs in _sub_masks(flat):
            if t[a | xs] != t[a]:
                return _fail(
                    key,
                    title,
                    f"A={set_literal(bits(a))} X={set_literal(bits(xs))}",
                )
    return _ok(key, title)


def check_closed_intersection(m: Matroid) -> LemmaResult:
    key, title = "L6", "intersections of closed sets are closed"
    closed = _closed_masks(m)
    closed_set = set(closed)
    for z1 in closed:
        for z2 in closed:
            if z1 & z2 not in closed_set:
                return _fail(
                    key,
                    title,
                    f"{set_literal(bits(z1))} meet {set_literal(bits(z2))}",
                )
    # closed under pairwise meets, so every finite family's meet is closed
    return _ok(key, title)


def check_closure_minimality(m: Matroid) -> LemmaResult:
    """L7abc: closure(X) lies in every closed superset of X, and closure is
    monotone and idempotent.

    The closed sets are listed first; then each mask's closure is taken
    by ``_closure_mask``, in mask order, with the rank reads ``closure``
    makes, and kept as a mask.
    """
    key, title = "L7abc", "closure is the least closed superset, monotone, idempotent"
    closed = _closed_masks(m)
    sig = [_closure_mask(m, x) for x in range(1 << m.n)]
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


def check_closure_routes_agree(m: Matroid) -> LemmaResult:
    """L8: closure(X) equals the meet of the closed supersets of X, for every X.

    Closedness is decided by rank alone, once per mask in mask order,
    after closure({}): the same oracle calls, in the same order, as
    ``closure_by_intersection`` makes for X = {}, and they reach every
    mask.  The meet of X's closed supersets is X itself if X is closed,
    else the meet over X + y, y outside X, read from the masks above X.
    Each closure is a mask from ``_closure_mask``, which reads the ranks
    that ``closure`` reads, in its order.
    """
    key, title = "L8", "flat-extension closure equals intersection of closed supersets"
    full = (1 << m.n) - 1
    first = _closure_mask(m, 0)
    closed = [_is_closed_mask(m, z) for z in range(full + 1)]
    meet = [0] * (full + 1)
    for x in range(full, -1, -1):  # the whole set is closed, so every X has a closed superset
        if closed[x]:
            meet[x] = x
        else:
            acc = full
            for y in bits(full & ~x):
                acc &= meet[x | 1 << y]
            meet[x] = acc
    for x in range(full + 1):
        fast, slow = _closure_mask(m, x) if x else first, meet[x]
        if fast != slow:
            return _fail(
                key,
                title,
                f"X={set_literal(bits(x))}: {set_literal(bits(fast))} vs {set_literal(bits(slow))}",
            )
    return _ok(key, title)


def check_base_characterization(m: Matroid) -> LemmaResult:
    """L9: B is a maximal independent set iff B is independent and its
    closure is the ground set.

    "Maximal" reads r(B) = |B| and r(B + x) = |B| for each x outside B;
    the closure of B is the meet of the closed sets that contain it,
    found by ANDing each closed set, from ``_closed_masks``, into each of
    its subsets, so the two sides read different ranks."""
    key, title = "L9", "bases are exactly the independent sets with full closure"
    t = m.mask_table()
    full = (1 << m.n) - 1
    meet = [full] * (full + 1)
    for z in _closed_masks(m):
        for x in _sub_masks(z):
            meet[x] &= z
    for b in range(full + 1):
        size = b.bit_count()
        indep = t[b] == size
        maximal = indep and all(
            t[b | 1 << x] == size for x in range(m.n) if not b >> x & 1
        )
        if maximal != (indep and meet[b] == full):
            return _fail(key, title, f"B={set_literal(bits(b))}")
    return _ok(key, title)


def check_fitting_monotone(m: Matroid) -> LemmaResult:
    """L10a: for every Z and A outside it, a subset of Z that contains a
    fitting Z0 fits too, where W fits iff r(A u W) - r(W) = r(A u Z) - r(Z).

    The gain r(A u W) - r(W) is read once per W inside Z.  Z1 that fit
    are passed over, as no Z0 inside them can break the claim; for each
    other Z1 the first fitting Z0, in the order of the sweep, is the
    witness.
    """
    key, title = "L10a", "supersets of a fitting set fit"
    t = m.mask_table()
    full = (1 << m.n) - 1
    for z in range(1 << m.n):
        inside = list(_sub_masks(z))
        for a in _sub_masks(full & ~z):
            target = t[a | z] - t[z]
            gain = {w: t[a | w] - t[w] for w in inside}
            for z1 in inside:
                if gain[z1] == target:
                    continue
                z0 = next((w for w in _sub_masks(z1) if gain[w] == target), None)
                if z0 is not None:
                    return _fail(
                        key,
                        title,
                        f"Z={set_literal(bits(z))} A={set_literal(bits(a))} "
                        f"Z0={set_literal(bits(z0))} Z1={set_literal(bits(z1))}",
                    )
    return _ok(key, title)


def check_fitting_common(m: Matroid) -> LemmaResult:
    """L10b: for every Z, the union of the first fitting subsets of Z, one
    for each A of one or two elements outside Z, fits every such A.

    The A are taken in (size, lex) order, and each first fitting subset
    from the subsets of Z in (size, lex) order, listed once per Z.
    """
    key, title = "L10b", "one finite set fits a whole finite family"
    t = m.mask_table()
    full = (1 << m.n) - 1
    for z in range(1 << m.n):
        singles = [1 << x for x in bits(full & ~z)]
        if not singles:
            continue
        family = singles + [a | b for i, a in enumerate(singles) for b in singles[i + 1 :]]
        in_order = _subsets_by_size(z)
        union = 0
        for a in family:
            target = t[a | z] - t[z]
            union |= next(w for w in in_order if t[a | w] - t[w] == target)
        for a in family:
            if t[a | union] - t[union] != t[a | z] - t[z]:
                return _fail(
                    key,
                    title,
                    f"Z={set_literal(bits(z))}: union of fitting sets misses "
                    f"A={set_literal(bits(a))}",
                )
    return _ok(key, title)


def _contracted_axioms(t: list[int], n: int, z: int):
    """The axiom report of M/Z, read from M's mask table t, with no matroid built.

    The ranks r(Z u A) - r(Z) are listed in mask order of A over the
    kept ids, by doubling; the first negative one is refused as a
    contraction's oracle would refuse it, in the contracted ids.
    """
    parents = [z]
    for x in range(n):
        if not z >> x & 1:
            bit = 1 << x
            parents += [p | bit for p in parents]
    rz = t[z]
    ranks = [t[p] - rz for p in parents]
    for a, r in enumerate(ranks):
        if r < 0:
            raise _bad_rank(r, a)
    return _is_rank_function(ranks, _rank_bytes(ranks), n - z.bit_count())


def check_contraction_is_matroid(m: Matroid) -> LemmaResult:
    """L11: for every Z, r(A u Z) - r(Z) <= r(A) for A outside Z, and M/Z is
    a matroid.

    M/Z's unit-increase tests are M's at the masks that hold Z, and its
    empty set has rank 0, so when M passes :func:`validate_axioms` every
    contraction passes too: M's one pass stands for all of them.  Only
    when it fails is each M/Z validated, after Z's sweep, on its rank
    list read from M's table.
    """
    key, title = "L11", "contraction never raises rank and is a matroid"
    t = m.mask_table()
    full = (1 << m.n) - 1
    contractions_hold = validate_axioms(m).ok
    for z in range(1 << m.n):
        for a in _sub_masks(full & ~z):
            if t[a | z] - t[z] > t[a]:
                return _fail(
                    key, title, f"Z={set_literal(bits(z))} A={set_literal(bits(a))}"
                )
        if contractions_hold:
            continue
        report = _contracted_axioms(t, m.n, z)
        if not report.ok:
            return _fail(key, title, f"Z={set_literal(bits(z))}: {report.describe()}")
    return _ok(key, title)


def check_contraction_independence(m: Matroid) -> LemmaResult:
    key, title = "L12", "independent in contraction iff union with independent parts stays independent"
    t = m.mask_table()
    full = (1 << m.n) - 1
    for z in range(1 << m.n):
        indep_in_z = [y for y in _sub_masks(z) if t[y] == y.bit_count()]
        for x in _sub_masks(full & ~z):
            size = x.bit_count()
            lhs = t[x | z] - t[z] == size
            rhs = all(t[x | y] == size + t[y] for y in indep_in_z)
            if lhs != rhs:
                return _fail(
                    key, title, f"Z={set_literal(bits(z))} X={set_literal(bits(x))}"
                )
    return _ok(key, title)


def _contraction_loop_free(m: Matroid, z: int) -> bool:
    """True iff M/Z has no loop: r(Z + x) - r(Z) = 1 for every x outside Z.

    The reads are those of ``is_loop_free(contract(m, z))``: r(Z), then
    each kept x in ascending order until a gain is not 1.  A negative
    gain is refused as the contraction's oracle refuses it, at the
    singleton of x's contracted id.
    """
    rz = m.rank_of_mask(z)
    kept = (x for x in range(m.n) if not z >> x & 1)
    for i, x in enumerate(kept):
        gain = m.rank_of_mask(z | 1 << x) - rz
        if gain < 0:
            raise _bad_rank(gain, 1 << i)
        if gain != 1:
            return False
    return True


def check_contraction_loop_free(m: Matroid) -> LemmaResult:
    """L13: M/Z is loop-free iff Z is closed, for every Z.

    Both sides are read by rank on the mask, with no contraction built.
    """
    key, title = "L13", "contraction is loop-free iff the contracted set is closed"
    for z in range(1 << m.n):
        if _contraction_loop_free(m, z) != _is_closed_mask(m, z):
            return _fail(key, title, f"Z={set_literal(bits(z))}")
    return _ok(key, title)


def check_colorability_iff_loop_free(m: Matroid) -> LemmaResult:
    key, title = "L14", "proper colorings exist exactly for loop-free matroids"
    lf = is_loop_free(m)
    try:
        result = chromatic_number(m)
    except LoopError:
        if lf:
            return _fail(key, title, "loop-free matroid refused a coloring")
        return _ok(key, title, "loopy matroid correctly refused")
    if not lf:
        return _fail(key, title, "loopy matroid produced a coloring")
    if not is_proper(m, result.coloring):
        return _fail(key, title, "witness coloring is not proper")
    return _ok(key, title)


def check_distinct_fallback(m: Matroid) -> LemmaResult:
    key, title = "L15", "full-size lists always admit an all-distinct coloring"
    if not is_loop_free(m):
        return _ok(key, title, "vacuous: loops present")
    if m.n == 0:
        return _ok(key, title, "vacuous: empty ground set")
    rng = random.Random(0)
    pool = [f"c{i}" for i in range(2 * m.n)]
    for _ in range(3):
        lists = {x: frozenset(rng.sample(pool, m.n)) for x in range(m.n)}
        phi = distinct_color_fallback(m, lists)
        if not is_proper(m, phi):
            return _fail(key, title, "fallback coloring not proper")
        if any(phi[x] not in lists[x] for x in range(m.n)):
            return _fail(key, title, "fallback coloring ignored a list")
    return _ok(key, title)


def check_circuit_closure_absorption(m: Matroid) -> LemmaResult:
    key, title = "L16", "a circuit nearly inside a closed set is inside it"
    cmasks = _circuit_masks(m)
    for z in _closed_masks(m):
        for cm in cmasks:
            if (cm & ~z).bit_count() == 1:
                return _fail(
                    key,
                    title,
                    f"circuit {set_literal(bits(cm))} sticks one element out of "
                    f"{set_literal(bits(z))}",
                )
    return _ok(key, title, "" if cmasks else "vacuous: no circuits")


def _distinct_anchor_order(parts: list[int], base: int) -> tuple[int, ...] | None:
    """A base order giving each part a distinct order-maximum, or None.

    ``parts`` are masks inside the ``base`` mask: the fundamental-circuit
    base parts F_x of one circuit's elements.  Peel: remove a base element
    that lies in at most one pending part, and retire that part.  Removing
    an element only lowers the counts of the others, so the peel empties
    every part iff some order works, whatever the removal order.  The
    untouched elements, then the removed ones read backwards, are such an
    order: each part's maximum is the element that retired it.
    """
    pending, removed = list(parts), []
    while pending:
        e = next((e for e in bits(base) if sum(p >> e & 1 for p in pending) <= 1), None)
        if e is None:
            return None
        removed.append(e)
        base &= ~(1 << e)
        pending = [p for p in pending if not p >> e & 1]
    return (*bits(base), *reversed(removed))


def check_anchor_repetition(m: Matroid) -> LemmaResult:
    """L17: under every ordered base, every circuit repeats an anchor.

    The anchor of x is the order-maximum of its fundamental-circuit base
    part F_x ({x} for x in the base), so for each base, in all_bases
    order, one peel per circuit decides whether some order of that base
    gives the circuit distinct anchors.  anchor_classes runs once per
    base for its loop, base and swap checks.  A failure names the first
    such base and circuit, with an order the peel found.
    """
    key, title = "L17", "every circuit repeats an anchor value"
    if not is_loop_free(m):
        return _ok(key, title, "vacuous: loops present")
    circs = [c.members for c in circuits(m)]
    if not circs:
        return _ok(key, title, "vacuous: no circuits")
    for b in all_bases(m):
        ob = OrderedBase(b)
        anchor_classes(m, ob)
        bmask = mask_of(b)
        parts = [
            1 << x if bmask >> x & 1 else mask_of(_circuit_base_part(m, ob, x))
            for x in range(m.n)
        ]
        for c in circs:
            order = _distinct_anchor_order([parts[x] for x in c], bmask)
            if order is not None:
                return _fail(
                    key,
                    title,
                    f"base {order} circuit {set_literal(c)}: all anchors distinct",
                )
    return _ok(key, title)


def check_flat_extension_dependence(m: Matroid) -> LemmaResult:
    key, title = "L18", "flat-extension elements beyond |A| are dependent"
    t = m.mask_table()
    full = (1 << m.n) - 1
    for a in range(1 << m.n):
        flat = [
            x for x in bits(full & ~a) if t[a | 1 << x] == t[a]
        ]
        for combo in itertools.combinations(flat, a.bit_count() + 1):
            if t[mask_of(combo)] == len(combo):
                return _fail(
                    key,
                    title,
                    f"A={set_literal(bits(a))} X={set_literal(combo)} independent",
                )
    return _ok(key, title)


def check_flat_extension_count(m: Matroid) -> LemmaResult:
    key, title = "L19-analog", "flat extensions hold at most Chr * |A| elements"
    if not is_loop_free(m):
        return _ok(key, title, "vacuous: loops present")
    t = m.mask_table()
    full = (1 << m.n) - 1
    chrom = chromatic_number(m).value
    for a in range(1 << m.n):
        flat = [x for x in bits(full & ~a) if t[a | 1 << x] == t[a]]
        if len(flat) > chrom * a.bit_count():
            return _fail(
                key,
                title,
                f"A={set_literal(bits(a))}: {len(flat)} > {chrom}*{a.bit_count()}",
            )
    return _ok(key, title)


def _combined_fitting(m: Matroid) -> LemmaResult:
    title = "fitting sets grow and combine"
    a = check_fitting_monotone(m)
    if a.status == "fail":
        return LemmaResult("L10ab", title, "fail", a.detail)
    b = check_fitting_common(m)
    return LemmaResult("L10ab", title, b.status, b.detail)


BATTERY = (
    ("L1", check_maximal_independent_size),
    ("L2a", check_weak_elimination),
    ("L2b", check_strong_elimination),
    ("L3", check_unique_circuit_in_base_extension),
    ("L4", check_flatness_monotone),
    ("L5", check_flatness_joint),
    ("L6", check_closed_intersection),
    ("L7abc", check_closure_minimality),
    ("L8", check_closure_routes_agree),
    ("L9", check_base_characterization),
    ("L10ab", _combined_fitting),
    ("L11", check_contraction_is_matroid),
    ("L12", check_contraction_independence),
    ("L13", check_contraction_loop_free),
    ("L14", check_colorability_iff_loop_free),
    ("L15", check_distinct_fallback),
    ("L16", check_circuit_closure_absorption),
    ("L17", check_anchor_repetition),
    ("L18", check_flat_extension_dependence),
    ("L19-analog", check_flat_extension_count),
)


def run_lemma_battery(m: Matroid, max_n: int | None = None) -> list[LemmaResult]:
    """Run every battery check on one matroid, skipping above the bound.

    ``max_n`` raises the size bound, but not past LEMMA_N_CEILING.
    """
    bound = LEMMA_BOUND if max_n is None else min(max_n, LEMMA_N_CEILING)
    if m.n > bound:
        return [
            LemmaResult(key, "", "skipped", f"skipped (size {m.n} > {bound})")
            for key, _ in BATTERY
        ]
    results = []
    for key, fn in BATTERY:
        try:
            results.append(fn(m))
        except MatroidError as e:
            # a check blowing up on a malformed oracle is still a failure
            results.append(LemmaResult(key, "", "fail", f"check aborted: {e}"))
    return results
