"""list-search: the list-coloring searches and candidate-listing generation.

Exists to measure the four near-copy list searches and the canonical
listing generators, which axiom-scan never reaches.  Each cycle holds
one ``list_chromatic_number`` op (fast route, kmax 3) per loop-free desk
matroid with n <= 5, ``is_list_colorable`` ops on seeded n = 8..10
matroids with seeded lists of size chi (colorable by Seymour's theorem),
and ``extend_coloring`` ops on the three built-in chains, falling back to
``first_uncolorable_level`` when a listing has no extension.  A cycle
runs every listing set once, so the mix is fixed per cycle: the median falls among the growing-cycle chain ops, the
90th percentile among the disjoint-triangles ones, and
``list_chromatic_number`` takes most of the op time.
"""

from __future__ import annotations

import random

import matroidkit as mk
from matroidkit import catalog

from harness import Workload
from workloads.common import circuit_masks, coloring_fault, random_listing, random_matroid

KMAX = 3
COLORABLE_SIZES = (8, 9, 10)
COLORABLE_PER_SIZE = 8
CHAIN_DEPTH = 3
# family -> (ops per cycle, list size, palette size); singleton lists
# usually leave some level uncolorable.  The sixteen growing-cycle ops
# cost nearly the same and surround the median.
CHAIN_LISTINGS = {
    "disjoint-triangles": ((6, 2, 3), (2, 1, 2)),
    "growing-cycle": ((16, 2, 3),),
    "growing-uniform": ((6, 2, 3), (2, 1, 2)),
}
LISTING_SETS = 4


class ListSearch(Workload):
    name = "list-search"

    def __init__(self, seed: int, workdir=None):
        rng = random.Random(seed)
        self.small = [m for m in catalog.desk_suite(5, loop_free_only=True) if m.n >= 1]
        self.small_chi = [mk.chromatic_number(m).value for m in self.small]
        self.big = []
        for n in COLORABLE_SIZES:
            for j in range(COLORABLE_PER_SIZE):
                m = random_matroid(rng, ("graphic", "gf2", "gf3")[j % 3], n)
                self.big.append((m, mk.chromatic_number(m).value, circuit_masks(m)))
        self.chains = []
        for family in sorted(mk.BUILTIN_FAMILIES):
            chain = mk.BUILTIN_FAMILIES[family]()
            levels = [chain.level(i) for i in range(CHAIN_DEPTH + 1)]
            self.chains.append((chain, [(m.n, circuit_masks(m)) for m in levels]))
        self.ops = []
        for _ in range(LISTING_SETS):
            ops = [("lcn", i) for i in range(len(self.small))]
            for i, (m, chi, _) in enumerate(self.big):
                ops.append(("ilc", i, random_listing(rng, m.n, chi, chi + 2)))
            for i, (chain, levels) in enumerate(self.chains):
                top = levels[-1][0]
                for count, size, palette in CHAIN_LISTINGS[chain.name]:
                    ops += [("chain", i, random_listing(rng, top, size, palette)) for _ in range(count)]
            rng.shuffle(ops)
            self.ops += ops
        self._checked_lcn: dict = {}
        # warm-up, one listing set: fills every mask table and chain level
        for op in self.ops[: len(self.ops) // LISTING_SETS]:
            self.run(op)

    def cycle(self, index: int) -> list:
        return self.ops

    def run(self, op):
        if op[0] == "lcn":
            return mk.list_chromatic_number(self.small[op[1]], kmax=KMAX)
        if op[0] == "ilc":
            return mk.is_list_colorable(self.big[op[1]][0], op[2])
        chain = self.chains[op[1]][0]
        phi = mk.extend_coloring(chain, op[2], CHAIN_DEPTH)
        if phi is not None:
            return phi, None
        return None, mk.first_uncolorable_level(chain, op[2], CHAIN_DEPTH)

    def check(self, op, result):
        if op[0] == "lcn":
            return self._check_lcn(op[1], result)
        if op[0] == "ilc":
            m, _, circ = self.big[op[1]]
            return coloring_fault(m.n, circ, op[2], result)
        phi, level = result
        levels = self.chains[op[1]][1]
        if phi is None:
            if level is None:
                return "extend_coloring failed but every level is colorable"
            return None
        for n, circ in levels:
            fault = coloring_fault(n, circ, op[2], {x: phi[x] for x in range(n)})
            if fault is not None:
                return f"level with {n} elements: {fault}"
        return None

    def _check_lcn(self, i: int, result):
        """Seymour: list-chromatic equals chromatic; every witness is uncolorable."""
        key = (i, result.value, repr(sorted(result.bad_listings.items())))
        if key not in self._checked_lcn:
            m, chi = self.small[i], self.small_chi[i]
            fault = None
            if result.value is None and chi <= KMAX:
                fault = f"no answer up to k={KMAX} but chi={chi}"
            elif result.value is not None and result.value != chi:
                fault = f"list-chromatic {result.value} != chromatic {chi}"
            for k, listing in result.bad_listings.items():
                if mk.is_list_colorable(m, listing) is not None:
                    fault = f"witness listing for k={k} is colorable"
            self._checked_lcn[key] = fault
        return self._checked_lcn[key]
