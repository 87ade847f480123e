"""The lemma battery: exhaustive desk-scale checks of the structure theory.

Each entry verifies one named property (rank/maximal-independent agreement,
circuit elimination, closure calculus, contraction, anchor repetition, the
coloring degree bounds) on a concrete matroid, by enumeration.  Keys L1..L19
are stable battery ids; a check either passes, fails with a witness, or is
skipped above its size bound.  Vacuously-true cases pass with a note.

The checks read shared whole-table facts, each built by one helper:
the flat extensions and unit steps of every mask (``core._step_masks``)
and the closed masks (``core._closed_flags``), each in O(n) operations
on the rank image, the meet of each mask's closed supersets
(:func:`_closed_meets`), one AND per (mask, element), the axiom report,
the circuit masks, the bases and the chromatic number.  One battery run
builds each of them once, on its first read, in one :class:`_Facts`
that it hands to every check; a check called on its own builds its
own.  A check whose lemma follows from a unit-step form decides by that
form first: a table that passes the unit-increase rank axioms
(:func:`validate_axioms`) certifies L2a, L2b, L10a, L10b, L11 and L12,
L6, L16 and L7abc's monotonicity are certified by a test per mask or
per (mask, element), and L17 by a certificate per base and circuit
that holds in every matroid.  A form that does not certify runs the
exact sweep, which names the same witness.  When the oracle faults, so
that no mask table can be built, a check that reads ranks mask by mask
meets the faults in that route's order.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass

from .bases import OrderedBase, all_bases, anchor_classes
from .closure import _closed_masks, _closure_mask, _is_closed_mask
from .coloring import ChromaticResult, chromatic_number, distinct_color_fallback, is_proper
from .core import (
    AxiomReport,
    LoopError,
    Matroid,
    MatroidError,
    _bad_rank,
    _circuit_masks,
    _closed_flags,
    _is_rank_function,
    _rank_bytes,
    _step_masks,
    _sub_masks,
    _subsets_by_size,
    bits,
    check_circuit_elimination,
    is_loop_free,
    mask_of,
    set_literal,
    validate_axioms,
)

LEMMA_BOUND = 8
# max_n may lift LEMMA_BOUND up to here, never past it.  At n = 10 the
# battery takes 0.028-0.032 s on uniform(10, 5), which has the most
# bases of any 10-element matroid, and 0.019-0.022 s on K5.  A 10-element
# table that is no matroid runs the fallback sweeps: 0.9-1.3 s, almost
# all of it in L10ab's (2-vCPU x86-64 guest, Python 3.11)
LEMMA_N_CEILING = 10


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


def _table_or_fault(m: Matroid, per_mask_reads) -> list[int]:
    """m's mask table, built if need be.  When the oracle faults, the
    check's per-mask route, ``per_mask_reads(m)``, reads every mask in its
    own order first, so that the fault it meets first is the one raised."""
    try:
        return m.mask_table()
    except MatroidError:
        per_mask_reads(m)
        raise


def _closed_meets(closed, n: int) -> list[int]:
    """For each mask X, the meet of the closed masks that contain it.

    Top down over the masks: X itself if X is closed, else the meet over
    X + y, y outside X, one AND per (X, y).  The whole set is closed, so
    every X has a closed superset.
    """
    full = (1 << n) - 1
    meet = [0] * (full + 1)
    for x in range(full, -1, -1):
        if closed[x]:
            meet[x] = x
        else:
            acc = full
            for y in bits(full & ~x):
                acc &= meet[x | 1 << y]
            meet[x] = acc
    return meet


class _Facts:
    """The whole-table facts of one matroid that several checks read.

    Each is built on its first read and kept for the rest of one battery
    run.  A build that raises keeps nothing, so the next check that
    reads the fact builds it again and meets the oracle's fault in its
    own order.
    """

    def __init__(self, m: Matroid):
        self.m = m

    @functools.cached_property
    def axioms(self) -> AxiomReport:
        return validate_axioms(self.m)

    @functools.cached_property
    def flat(self) -> list[int]:
        return _step_masks(self.m, 0)

    @functools.cached_property
    def unit(self) -> list[int]:
        return _step_masks(self.m, 1)

    @functools.cached_property
    def closed(self) -> bytes | list[bool]:
        return _closed_flags(self.m)

    @functools.cached_property
    def meets(self) -> list[int]:
        return _closed_meets(self.closed, self.m.n)

    @functools.cached_property
    def circuit_masks(self) -> list[int]:
        return _circuit_masks(self.m)

    @functools.cached_property
    def bases(self) -> list[tuple[int, ...]]:
        return all_bases(self.m)

    @functools.cached_property
    def chromatic(self) -> ChromaticResult:
        return chromatic_number(self.m)


def _closed_by_size(closed, n: int) -> list[int]:
    """The closed masks in (size, lexicographic) order, as ``_closed_masks`` lists them."""
    return [z for z in _subsets_by_size((1 << n) - 1) if closed[z]]


def _circuits_meet(cmasks: list[int]) -> bool:
    """True iff two of the distinct circuit masks share an element: their
    sizes add up to more than the size of their union."""
    union = 0
    for c in cmasks:
        union |= c
    return sum(map(int.bit_count, cmasks)) > union.bit_count()


def _certified_or_swept(m: Matroid, facts: _Facts | None, key: str, title: str, sweep) -> LemmaResult:
    """A pass when m's table passes the unit-increase axioms, of which the
    lemma is a consequence; else ``sweep(table, n)``'s verdict, its fail
    detail or None for a pass."""
    detail = None if (facts or _Facts(m)).axioms.ok else sweep(m.mask_table(), m.n)
    return _ok(key, title) if detail is None else _fail(key, title, detail)


def check_maximal_independent_size(m: Matroid, facts: _Facts | None = None) -> LemmaResult:
    """L1: every maximal independent subset of A has size r(A), for every A.

    An independent B is maximal inside A iff A holds none of B's unit
    steps (the x with r(B + x) = |B| + 1), so each pair (A, B) takes one
    AND; a dependent B is gated out by a bit above the ground set.
    """
    key, title = "L1", "maximal independent subsets all have the subset's rank"
    t = m.mask_table()
    top = 1 << m.n
    gate = [
        u if r == b.bit_count() else top
        for b, (r, u) in enumerate(zip(t, (facts or _Facts(m)).unit))
    ]
    for a in range(top):
        ra, tagged = t[a], a | top
        for b in _sub_masks(a):
            if not gate[b] & tagged and b.bit_count() != ra:
                return _fail(
                    key,
                    title,
                    f"max independent {set_literal(bits(b))} has size {b.bit_count()} "
                    f"but rank({set_literal(bits(a))}) = {t[a]}",
                )
    return _ok(key, title)


def _weak_elimination_sweep(cmasks: list[int]) -> str | None:
    """The first (C1, C2, e) of weak elimination's sweep with no circuit inside
    (C1 u C2) - e, as L2a's fail detail, or None."""
    for i, c1 in enumerate(cmasks):
        for j, c2 in enumerate(cmasks):
            if i == j or not c1 & c2:
                continue
            for e in bits(c1 & c2):
                allowed = (c1 | c2) & ~(1 << e)
                if not any(cm & ~allowed == 0 for cm in cmasks):
                    return f"no circuit inside {set_literal(bits(c1 | c2))}-{{{e}}}"
    return None


def check_weak_elimination(m: Matroid, facts: _Facts | None = None) -> LemmaResult:
    """L2a: for circuits C1 != C2 and e in both, some circuit lies inside (C1 u C2) - e.

    A table that passes the unit-increase axioms is a matroid's, where
    weak elimination holds; any other gets the sweep over circuit pairs.
    """
    key, title = "L2a", "circuit elimination (weak)"
    facts = facts or _Facts(m)
    cmasks = facts.circuit_masks
    if not facts.axioms.ok:
        detail = _weak_elimination_sweep(cmasks)
        if detail is not None:
            return _fail(key, title, detail)
    note = "" if _circuits_meet(cmasks) else "vacuous: no intersecting circuit pair"
    return _ok(key, title, note)


def check_strong_elimination(m: Matroid, facts: _Facts | None = None) -> LemmaResult:
    """L2b: strong circuit elimination, by :func:`check_circuit_elimination`
    on a table that fails the unit-increase axioms; a matroid's table
    passes it, as strong elimination holds in every matroid."""
    key, title = "L2b", "circuit elimination keeping a chosen element"
    facts = facts or _Facts(m)
    cmasks = facts.circuit_masks
    if facts.axioms.ok:
        note = "" if _circuits_meet(cmasks) else "vacuous: no intersecting circuit pair"
        return _ok(key, title, note)
    report = check_circuit_elimination(m)
    if report.ok:
        note = "" if report.pairs_checked else "vacuous: no intersecting circuit pair"
        return _ok(key, title, note)
    c1, c2, e, e1 = report.counterexample
    return _fail(key, title, f"pair {set_literal(c1)},{set_literal(c2)} drop {e} keep {e1}")


def check_unique_circuit_in_base_extension(m: Matroid, facts: _Facts | None = None) -> LemmaResult:
    """L3: for every base B and x outside it, exactly one circuit lies inside B + x.

    A circuit lies inside B + x iff its part outside B is {x} or empty,
    so the circuits' parts outside B, listed once per base, are counted
    by one C-level ``list.count`` per x.
    """
    key, title = "L3", "exactly one circuit inside base + outside element"
    facts = facts or _Facts(m)
    cmasks = facts.circuit_masks
    all_b = facts.bases
    for b in all_b:
        bmask = mask_of(b)
        beyond = list(map((~bmask).__and__, cmasks))
        within = beyond.count(0)
        for x in range(m.n):
            if not bmask >> x & 1:
                inside = beyond.count(1 << x) + within
                if inside != 1:
                    return _fail(key, title, f"base {set_literal(b)} + {x}: {inside} circuits")
    note = "vacuous: no base/element pair" if not all_b or all(len(b) == m.n for b in all_b) else ""
    return _ok(key, title, note)


def check_flatness_monotone(m: Matroid, facts: _Facts | None = None) -> LemmaResult:
    """L4: r(A + x) = r(A) and A inside B imply r(B + x) = r(B), for x outside B.

    Each pair (A, B) takes one AND of flat-extension masks: the
    elements that fail are flat at A, outside B and not flat at B, and
    the lowest of them is the first x of a sweep over x.
    """
    key, title = "L4", "rank-preserving extension transfers to supersets"
    flat = (facts or _Facts(m)).flat
    full = (1 << m.n) - 1
    for b in range(full + 1):
        lost = full ^ (b | flat[b])
        for a in _sub_masks(b):
            bad = flat[a] & lost
            if bad:
                x = (bad & -bad).bit_length() - 1
                return _fail(
                    key,
                    title,
                    f"A={set_literal(bits(a))} B={set_literal(bits(b))} x={x}",
                )
    return _ok(key, title)


def check_flatness_joint(m: Matroid, facts: _Facts | None = None) -> LemmaResult:
    key, title = "L5", "jointly adding rank-preserving elements preserves rank"
    t = m.mask_table()
    for a, flat in enumerate((facts or _Facts(m)).flat):
        for xs in _sub_masks(flat):
            if t[a | xs] != t[a]:
                return _fail(
                    key,
                    title,
                    f"A={set_literal(bits(a))} X={set_literal(bits(xs))}",
                )
    return _ok(key, title)


def check_closed_intersection(m: Matroid, facts: _Facts | None = None) -> LemmaResult:
    """L6: the meet of two closed sets is closed.

    The closed sets are closed under meets iff, for every mask X, the
    meet of X's closed supersets is closed: for closed Z1 and Z2 that
    meet is Z1 & Z2 itself.  Only when some meet is not closed are the
    pairs swept, in (size, lex) order, for the first witness.
    """
    key, title = "L6", "intersections of closed sets are closed"
    _table_or_fault(m, _closed_masks)
    facts = facts or _Facts(m)
    closed = facts.closed
    if not all(closed[z] for z in facts.meets):
        listed = _closed_by_size(closed, m.n)
        for z1 in listed:
            for z2 in listed:
                if not closed[z1 & z2]:
                    return _fail(
                        key,
                        title,
                        f"{set_literal(bits(z1))} meet {set_literal(bits(z2))}",
                    )
    # closed under pairwise meets, so every finite family's meet is closed
    return _ok(key, title)


def _first_not_monotone(sig: list[int]) -> tuple[int, int] | None:
    """The first (X, Y), Y in mask order and X in ``_sub_masks(Y)`` order,
    with sig[X] not inside sig[Y], or None."""
    for y, sy in enumerate(sig):
        for x in _sub_masks(y):
            if sig[x] & ~sy:
                return x, y
    return None


def check_closure_minimality(m: Matroid, facts: _Facts | None = None) -> LemmaResult:
    """L7abc: closure(X) lies in every closed superset of X, and closure is
    monotone and idempotent.

    Each closure is X plus its flat extensions.  It lies in every closed
    superset of X iff it lies in their meet.  Closure is monotone iff it
    grows along every unit step X -> X + y; only when some step shrinks
    it are the pairs X inside Y swept for the first witness.
    """
    key, title = "L7abc", "closure is the least closed superset, monotone, idempotent"
    _table_or_fault(m, _closed_masks)
    facts = facts or _Facts(m)
    full = (1 << m.n) - 1
    meet = facts.meets
    sig = [x | f for x, f in enumerate(facts.flat)]
    for x in range(full + 1):
        if sig[x] & ~meet[x]:
            return _fail(
                key, title, f"closure({set_literal(bits(x))}) exceeds a closed superset"
            )
    if any(sig[x] & ~sig[x | 1 << y] for x in range(full + 1) for y in bits(full & ~x)):
        x, y = _first_not_monotone(sig)
        return _fail(
            key, title, f"not monotone at {set_literal(bits(x))} <= {set_literal(bits(y))}"
        )
    for x in range(full + 1):
        if sig[sig[x]] != sig[x]:
            return _fail(key, title, f"not idempotent at {set_literal(bits(x))}")
    return _ok(key, title)


def _closure_route_reads(m: Matroid) -> None:
    """The ranks of closure({}), then of each mask's closedness test, in mask order."""
    _closure_mask(m, 0)
    for z in range(1 << m.n):
        _is_closed_mask(m, z)


def check_closure_routes_agree(m: Matroid, facts: _Facts | None = None) -> LemmaResult:
    """L8: closure(X) equals the meet of the closed supersets of X, for every X.

    Each closure is X plus its flat extensions; each meet is read from
    :func:`_closed_meets`.  When the oracle faults, the ranks are read
    as ``closure_by_intersection`` reads them for X = {}, then mask by
    mask, which meets the fault that route meets first.
    """
    key, title = "L8", "flat-extension closure equals intersection of closed supersets"
    _table_or_fault(m, _closure_route_reads)
    facts = facts or _Facts(m)
    meet = facts.meets
    for x, flat in enumerate(facts.flat):
        if x | flat != meet[x]:
            return _fail(
                key,
                title,
                f"X={set_literal(bits(x))}: {set_literal(bits(x | flat))} "
                f"vs {set_literal(bits(meet[x]))}",
            )
    return _ok(key, title)


def check_base_characterization(m: Matroid, facts: _Facts | None = None) -> LemmaResult:
    """L9: B is a maximal independent set iff B is independent and its
    closure is the ground set.

    "Maximal" reads r(B) = |B| and r(B + x) = |B| for each x outside B,
    so B plus its flat extensions is the ground set; the closure is the
    meet of the closed sets that contain B, from :func:`_closed_meets`,
    so the two sides read different ranks."""
    key, title = "L9", "bases are exactly the independent sets with full closure"
    t = m.mask_table()
    facts = facts or _Facts(m)
    full = (1 << m.n) - 1
    meet = facts.meets
    for b, flat in enumerate(facts.flat):
        if t[b] == b.bit_count() and (b | flat == full) != (meet[b] == full):
            return _fail(key, title, f"B={set_literal(bits(b))}")
    return _ok(key, title)


def _fitting_monotone_sweep(t: list[int], n: int) -> str | None:
    """L10a's sweep: its fail detail, or None.

    The gain r(A u W) - r(W) is read once per W inside Z.  Z1 that fit
    are passed over, as no Z0 inside them can break the claim; for each
    other Z1 the first fitting Z0, in the order of the sweep, is the
    witness.
    """
    full = (1 << n) - 1
    for z in range(1 << n):
        inside = list(_sub_masks(z))
        for a in _sub_masks(full & ~z):
            target = t[a | z] - t[z]
            gain = {w: t[a | w] - t[w] for w in inside}
            for z1 in inside:
                if gain[z1] == target:
                    continue
                z0 = next((w for w in _sub_masks(z1) if gain[w] == target), None)
                if z0 is not None:
                    return (
                        f"Z={set_literal(bits(z))} A={set_literal(bits(a))} "
                        f"Z0={set_literal(bits(z0))} Z1={set_literal(bits(z1))}"
                    )
    return None


def check_fitting_monotone(m: Matroid, facts: _Facts | None = None) -> LemmaResult:
    """L10a: for every Z and A outside it, a subset of Z that contains a
    fitting Z0 fits too, where W fits iff r(A u W) - r(W) = r(A u Z) - r(Z).

    The unit-increase axioms that :func:`validate_axioms` tests include
    gain monotonicity in unit steps, r(S+y+u) - r(S+y) <= r(S+u) - r(S),
    so every gain r(A u W) - r(W) shrinks as W grows, and Z0 inside Z1
    inside Z gives gain(Z) <= gain(Z1) <= gain(Z0) = gain(Z): a table
    that passes them passes.  Any other table gets the sweep.
    """
    key, title = "L10a", "supersets of a fitting set fit"
    return _certified_or_swept(m, facts, key, title, _fitting_monotone_sweep)


def _fitting_common_sweep(t: list[int], n: int) -> str | None:
    """L10b's sweep: its fail detail, or None.

    The A are taken in (size, lex) order, and each first fitting subset
    from the subsets of Z in (size, lex) order, listed once per Z.
    """
    full = (1 << n) - 1
    for z in range(1 << n):
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
                return (
                    f"Z={set_literal(bits(z))}: union of fitting sets misses "
                    f"A={set_literal(bits(a))}"
                )
    return None


def check_fitting_common(m: Matroid, facts: _Facts | None = None) -> LemmaResult:
    """L10b: for every Z, the union of the first fitting subsets of Z, one
    for each A of one or two elements outside Z, fits every such A.

    On a table that passes the unit-increase axioms each fitting subset
    W_A of Z lies inside the union, which lies inside Z, and gains shrink
    as sets grow (see L10a), so the union fits A.  Any other table gets
    the sweep.
    """
    key, title = "L10b", "one finite set fits a whole finite family"
    return _certified_or_swept(m, facts, key, title, _fitting_common_sweep)


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


def check_contraction_is_matroid(m: Matroid, facts: _Facts | None = None) -> LemmaResult:
    """L11: for every Z, r(A u Z) - r(Z) <= r(A) for A outside Z, and M/Z is
    a matroid.

    M/Z's unit-increase tests are M's at the masks that hold Z, and its
    empty set has rank 0, so when M passes :func:`validate_axioms` every
    contraction passes too: M's one pass stands for all of them.  So
    does the rank bound, r(A u Z) + r({}) <= r(A) + r(Z) being
    submodularity with r({}) = 0.  Only when the pass fails is each Z
    swept, and each M/Z validated on its rank list read from M's table.
    """
    key, title = "L11", "contraction never raises rank and is a matroid"
    t = m.mask_table()
    if (facts or _Facts(m)).axioms.ok:
        return _ok(key, title)
    full = (1 << m.n) - 1
    for z in range(1 << m.n):
        for a in _sub_masks(full & ~z):
            if t[a | z] - t[z] > t[a]:
                return _fail(
                    key, title, f"Z={set_literal(bits(z))} A={set_literal(bits(a))}"
                )
        report = _contracted_axioms(t, m.n, z)
        if not report.ok:
            return _fail(key, title, f"Z={set_literal(bits(z))}: {report.describe()}")
    return _ok(key, title)


def _contraction_independence_sweep(t: list[int], n: int) -> str | None:
    """L12's sweep: its fail detail, or None."""
    full = (1 << n) - 1
    for z in range(1 << n):
        indep_in_z = [y for y in _sub_masks(z) if t[y] == y.bit_count()]
        for x in _sub_masks(full & ~z):
            size = x.bit_count()
            lhs = t[x | z] - t[z] == size
            rhs = all(t[x | y] == size + t[y] for y in indep_in_z)
            if lhs != rhs:
                return f"Z={set_literal(bits(z))} X={set_literal(bits(x))}"
    return None


def check_contraction_independence(m: Matroid, facts: _Facts | None = None) -> LemmaResult:
    """L12: X outside Z is independent in M/Z iff X u Y is independent for
    every independent Y inside Z.

    In a matroid both sides hold exactly when X plus a basis of Z is
    independent, so a table that passes the unit-increase axioms passes;
    any other gets the sweep.
    """
    key, title = "L12", "independent in contraction iff union with independent parts stays independent"
    return _certified_or_swept(m, facts, key, title, _contraction_independence_sweep)


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


def check_contraction_loop_free(m: Matroid, facts: _Facts | None = None) -> LemmaResult:
    """L13: M/Z is loop-free iff Z is closed, for every Z.

    Both sides are read by rank on the mask, with no contraction built:
    M/Z is loop-free iff every x outside Z is a unit step of Z, and the
    first x that is not has the gain that ``_contraction_loop_free``
    reads last.  When the oracle faults, each Z is read mask by mask.
    """
    key, title = "L13", "contraction is loop-free iff the contracted set is closed"
    try:
        t = m.mask_table()
    except MatroidError:
        for z in range(1 << m.n):
            if _contraction_loop_free(m, z) != _is_closed_mask(m, z):
                return _fail(key, title, f"Z={set_literal(bits(z))}")
        return _ok(key, title)
    full = (1 << m.n) - 1
    facts = facts or _Facts(m)
    closed = facts.closed
    for z, unit in enumerate(facts.unit):
        odd = full ^ z ^ unit  # the x outside Z whose gain is not 1
        if odd:
            x = (odd & -odd).bit_length() - 1
            gain = t[z | 1 << x] - t[z]
            if gain < 0:
                raise _bad_rank(gain, 1 << ((full ^ z) & ((1 << x) - 1)).bit_count())
        if (not odd) != bool(closed[z]):
            return _fail(key, title, f"Z={set_literal(bits(z))}")
    return _ok(key, title)


def check_colorability_iff_loop_free(m: Matroid, facts: _Facts | None = None) -> LemmaResult:
    key, title = "L14", "proper colorings exist exactly for loop-free matroids"
    lf = is_loop_free(m)
    try:
        result = (facts or _Facts(m)).chromatic
    except LoopError:
        if lf:
            return _fail(key, title, "loop-free matroid refused a coloring")
        return _ok(key, title, "loopy matroid correctly refused")
    if not lf:
        return _fail(key, title, "loopy matroid produced a coloring")
    if not is_proper(m, result.coloring):
        return _fail(key, title, "witness coloring is not proper")
    return _ok(key, title)


@functools.lru_cache(maxsize=LEMMA_N_CEILING + 1)
def _full_size_listings(n: int) -> tuple[dict[int, frozenset[str]], ...]:
    """L15's three listings on n elements: n of 2n colors for each element,
    drawn by ``random.Random(0)``, so the same for every matroid of size n.
    Kept for as many sizes as the battery runs at and shared, so no caller
    may change them."""
    rng = random.Random(0)
    pool = [f"c{i}" for i in range(2 * n)]
    return tuple({x: frozenset(rng.sample(pool, n)) for x in range(n)} for _ in range(3))


def check_distinct_fallback(m: Matroid, facts: _Facts | None = None) -> LemmaResult:
    key, title = "L15", "full-size lists always admit an all-distinct coloring"
    if not is_loop_free(m):
        return _ok(key, title, "vacuous: loops present")
    if m.n == 0:
        return _ok(key, title, "vacuous: empty ground set")
    for lists in _full_size_listings(m.n):
        phi = distinct_color_fallback(m, lists)
        if not is_proper(m, phi):
            return _fail(key, title, "fallback coloring not proper")
        if any(phi[x] not in lists[x] for x in range(m.n)):
            return _fail(key, title, "fallback coloring ignored a list")
    return _ok(key, title)


def check_circuit_closure_absorption(m: Matroid, facts: _Facts | None = None) -> LemmaResult:
    """L16: no circuit has exactly one element outside a closed set.

    A closed set holding C - e but not e exists iff e lies outside the
    meet of C - e's closed supersets, so one test per (circuit, element)
    decides; only when one fails are the closed sets, in (size, lex)
    order, and the circuits swept for the first witness.
    """
    key, title = "L16", "a circuit nearly inside a closed set is inside it"
    facts = facts or _Facts(m)
    cmasks = facts.circuit_masks
    closed = facts.closed
    meet = facts.meets
    if not all(meet[cm ^ 1 << e] >> e & 1 for cm in cmasks for e in bits(cm)):
        for z in _closed_by_size(closed, m.n):
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


def _swap_sets(t: list[int], base: int, n: int) -> list[int]:
    """For each element e of the ``base`` mask, ascending, the x whose part
    F_x holds e: e itself, and each x outside the base with
    r(B - e + x) = r(B), read from the mask table t."""
    r = t[base]
    outside = [1 << x for x in range(n) if not base >> x & 1]
    return [
        bit | sum(y for y in outside if t[base ^ bit | y] == r)
        for bit in (1 << e for e in bits(base))
    ]


def _circuits_met_once(holders: list[int], y: int) -> int:
    """The circuits that hold exactly one element of the mask y, one bit
    per circuit, from holders[x], the circuits that hold x."""
    once = twice = 0
    for x in bits(y):
        twice |= once & holders[x]
        once |= holders[x]
    return once & ~twice


def check_anchor_repetition(m: Matroid, facts: _Facts | None = None) -> LemmaResult:
    """L17: under every ordered base, every circuit repeats an anchor.

    The anchor of x is the order-maximum of its fundamental-circuit base
    part F_x ({x} for x in the base).  For a base B, a circuit C and
    e in B, let S_e be the x in C whose part holds e.  In a matroid no
    S_e has exactly one element: if S_e = {x0}, every other x in C lies
    in cl(B - e) (its part, or x itself, avoids e), so x0 lies in
    cl(C - x0), inside cl(B - e); but e in F_x0 says that B - e + x0 is
    a base (or x0 = e), so x0 is outside cl(B - e).  So the order-maximum
    of the union of the parts is the anchor of two elements of C, in
    every order of B.  For each base, in all_bases order, one fold per
    e in B over the circuit sets of the x whose part holds e certifies
    that no S_e has one element; only a base where that fails (on a
    table that is no matroid) gets one peel per circuit, which decides
    exactly whether some order gives the circuit distinct anchors.  anchor_classes runs
    once per base for its loop, base and swap checks.  A failure names
    the first such base and circuit, with an order the peel found.
    """
    key, title = "L17", "every circuit repeats an anchor value"
    if not is_loop_free(m):
        return _ok(key, title, "vacuous: loops present")
    facts = facts or _Facts(m)
    cmasks = facts.circuit_masks
    if not cmasks:
        return _ok(key, title, "vacuous: no circuits")
    t = m.mask_table()
    holders = [0] * m.n
    for i, cm in enumerate(cmasks):
        for x in bits(cm):
            holders[x] |= 1 << i
    for b in facts.bases:
        anchor_classes(m, OrderedBase(b))
        bmask = mask_of(b)
        swaps = _swap_sets(t, bmask, m.n)
        if not any(_circuits_met_once(holders, y) for y in swaps):
            continue
        parts = [sum(1 << e for e, y in zip(b, swaps) if y >> x & 1) for x in range(m.n)]
        for cm in cmasks:
            order = _distinct_anchor_order([parts[x] for x in bits(cm)], bmask)
            if order is not None:
                return _fail(
                    key,
                    title,
                    f"base {order} circuit {set_literal(bits(cm))}: all anchors distinct",
                )
    return _ok(key, title)


def check_flat_extension_dependence(m: Matroid, facts: _Facts | None = None) -> LemmaResult:
    key, title = "L18", "flat-extension elements beyond |A| are dependent"
    t = m.mask_table()
    for a, flat in enumerate((facts or _Facts(m)).flat):
        for combo in itertools.combinations(bits(flat), a.bit_count() + 1):
            if t[mask_of(combo)] == len(combo):
                return _fail(
                    key,
                    title,
                    f"A={set_literal(bits(a))} X={set_literal(combo)} independent",
                )
    return _ok(key, title)


def check_flat_extension_count(m: Matroid, facts: _Facts | None = None) -> LemmaResult:
    key, title = "L19-analog", "flat extensions hold at most Chr * |A| elements"
    if not is_loop_free(m):
        return _ok(key, title, "vacuous: loops present")
    m.mask_table()  # its faults and size refusal come before the chromatic search's
    facts = facts or _Facts(m)
    chrom = facts.chromatic.value
    for a, flat in enumerate(facts.flat):
        if flat.bit_count() > chrom * a.bit_count():
            return _fail(
                key,
                title,
                f"A={set_literal(bits(a))}: {flat.bit_count()} > {chrom}*{a.bit_count()}",
            )
    return _ok(key, title)


def _combined_fitting(m: Matroid, facts: _Facts | None = None) -> LemmaResult:
    title = "fitting sets grow and combine"
    facts = facts or _Facts(m)
    a = check_fitting_monotone(m, facts)
    if a.status == "fail":
        return LemmaResult("L10ab", title, "fail", a.detail)
    b = check_fitting_common(m, facts)
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
    facts = _Facts(m)
    results = []
    for key, fn in BATTERY:
        try:
            results.append(fn(m, facts))
        except MatroidError as e:
            # a check blowing up on a malformed oracle is still a failure
            results.append(LemmaResult(key, "", "fail", f"check aborted: {e}"))
    return results
