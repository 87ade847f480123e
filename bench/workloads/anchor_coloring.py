"""anchor-coloring: many colorings against a few warm matroids.

Exists to measure the per-call rank path (frozenset + check_subset and
the memo) under ``color_from_base`` and ``is_proper``, with no exhaustive
scan.  Each cycle is one round: fresh instances of the loop-free desk
suite (3 <= n <= 6) with a warm memo, two seeded ordered bases per
matroid and four seeded listings per base, so the first listing of each
base (a quarter of the ops) pays the anchor decomposition.
"""

from __future__ import annotations

import itertools
import random

import matroidkit as mk
from matroidkit import catalog

from harness import Workload
from workloads.common import circuit_masks, coloring_fault, random_listing

BASES_PER_MATROID = 2
LISTINGS_PER_BASE = 4
ROUND_PLANS = 16
WARMUP_ROUNDS = 3


def _suite():
    return [m for m in catalog.desk_suite(6, loop_free_only=True) if m.n >= 3]


class AnchorColoring(Workload):
    name = "anchor-coloring"
    trace_cycles = 3

    def __init__(self, seed: int, workdir=None):
        rng = random.Random(seed)
        suite = _suite()
        self.circ = [circuit_masks(m) for m in suite]
        counts = [sum(1 for _ in mk.ordered_bases(m)) for m in suite]
        self.plans = []
        for _ in range(ROUND_PLANS):
            plan = []
            for i, m in enumerate(suite):
                size = m.n - m.full_rank() + 1  # no anchor class is larger
                for b in sorted(rng.sample(range(counts[i]), BASES_PER_MATROID)):
                    listings = [
                        random_listing(rng, m.n, size, size + 2)
                        for _ in range(LISTINGS_PER_BASE)
                    ]
                    plan.append((i, b, listings))
            self.plans.append(plan)
        for index in range(WARMUP_ROUNDS):
            for op in self.cycle(index):
                self.run(op)

    def cycle(self, index: int) -> list:
        suite = _suite()
        for m in suite:
            m.mask_table()  # warm memo: every rank below is a memo read
        wanted: dict[int, list[int]] = {}
        for i, b, _ in self.plans[index % ROUND_PLANS]:
            wanted.setdefault(i, []).append(b)
        bases = {
            i: list(itertools.islice(mk.ordered_bases(suite[i]), max(bs) + 1))
            for i, bs in wanted.items()
        }
        ops = []
        for i, b, listings in self.plans[index % ROUND_PLANS]:
            for lists in listings:
                ops.append((i, suite[i], bases[i][b], lists, not ops))
        return ops

    def run(self, op):
        _, m, base, lists, _ = op
        phi = mk.color_from_base(m, base, lists)
        return phi, mk.is_proper(m, phi)

    def check(self, op, result):
        i, m, _, lists, first = op
        phi, proper = result
        if not proper:
            return "is_proper rejected the coloring"
        fault = coloring_fault(m.n, self.circ[i], lists, phi)
        if fault is None and first and mk.find_monochromatic_circuit(m, phi) is not None:
            fault = "find_monochromatic_circuit found a monochromatic circuit"
        return fault
