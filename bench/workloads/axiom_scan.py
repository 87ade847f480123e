"""axiom-scan: build a matroid and certify it, with a cold memo every op.

Exists to measure the core layer used write-heavy: each op builds its
matroid inside the op, so every rank is an oracle evaluation and every op
builds a mask table before ``validate_axioms`` scans it.  Six ops in
forty are perturbed rank tables that are not matroids, which exercises
the scan's early exit to a witness.  The mix is fixed per input set so
that each reported percentile falls in the middle of a block of ops of
one size and near-equal cost; a cycle runs every input set once, so
every cycle holds the same n = 12 ops.
"""

from __future__ import annotations

import random

import matroidkit as mk

from harness import Workload
from workloads.common import random_edges, random_vectors

KINDS = ("gf2", "gf3", "graphic")
# (n, kind, ops per cycle).  Sorted by cost the cycle runs: perturbed
# tables (early exit), n = 8, graphic n = 9, then twelve linear n = 9 ops
# at positions 15-26 around the median, n = 10, six linear n = 11 ops at
# positions 34-39 around the 90th percentile, and one n = 12 op whose
# kind rotates with the input set.
MIX = (
    (8, "perturbed", 2), (9, "perturbed", 2), (10, "perturbed", 2),
    (8, "gf2", 2), (8, "gf3", 2), (8, "graphic", 2),
    (9, "graphic", 2), (9, "gf2", 6), (9, "gf3", 6),
    (10, "gf2", 3), (10, "gf3", 2), (10, "graphic", 2),
    (11, "gf2", 3), (11, "gf3", 3),
)
INPUT_SETS = 3


def _spec(rng: random.Random, kind: str, n: int):
    if kind == "gf2":
        return mk.VectorSpec(2, 5, random_vectors(rng, n, 2, 5, False))
    if kind == "gf3":
        return mk.VectorSpec(3, 4, random_vectors(rng, n, 3, 4, False))
    return mk.GraphSpec(random_edges(rng, n, n // 2 + 2))


def _build(kind: str, spec):
    return mk.graphic(spec) if kind == "graphic" else mk.linear(spec)


def _perturbed_table(rng: random.Random, kind: str, n: int) -> dict:
    """A rank table one entry away from a matroid, and never a matroid.

    Picks a nonempty A and x outside it.  If x raises the rank of A, the
    entry for A+x is raised by one more, so r(A+x) = r(A) + 2 breaks
    submodularity of A and {x}; otherwise r(A+x) = r(A) is lowered by
    one, which breaks monotonicity (or raised by 2 when r(A) = 0).
    """
    base = _build(kind, _spec(rng, kind, n))
    ranks = dict(mk.tabulate(base).ranks)
    x = rng.randrange(n)
    others = [e for e in range(n) if e != x]
    a = frozenset(rng.sample(others, rng.randrange(1, n)))
    ax = a | {x}
    if ranks[ax] == ranks[a] + 1 or ranks[a] == 0:
        ranks[ax] = ranks[a] + 2
    else:
        ranks[ax] = ranks[a] - 1
    return ranks


def witness_fault(ranks: dict, report) -> str | None:
    """None iff the report's witness violates its axiom on the raw table."""
    if report.ok:
        return "perturbed table passed the axiom check"
    sets = [frozenset(w) for w in report.witness]
    r = lambda s: ranks[s]  # noqa: E731
    if report.axiom == "normalization":
        holds = r(frozenset()) == 0
    elif report.axiom == "subcardinality" and len(sets) == 1:
        holds = r(sets[0]) <= len(sets[0])
    elif report.axiom == "monotonicity" and len(sets) == 2:
        holds = not sets[0] <= sets[1] or r(sets[0]) <= r(sets[1])
    elif report.axiom == "submodularity" and len(sets) == 2:
        a, b = sets
        holds = r(a) + r(b) >= r(a & b) + r(a | b)
    else:
        return f"unexpected report {report.axiom} with {len(sets)} witness sets"
    return f"witness for {report.axiom} does not reproduce" if holds else None


class AxiomScan(Workload):
    name = "axiom-scan"

    def __init__(self, seed: int, workdir=None):
        rng = random.Random(seed)
        self.ops = []
        for s in range(INPUT_SETS):
            ops = []
            tables = 0  # perturbed tables so far; their kinds rotate
            for n, kind, count in MIX:
                for _ in range(count):
                    if kind == "perturbed":
                        base = KINDS[tables % len(KINDS)]
                        ops.append(("table", n, None, _perturbed_table(rng, base, n)))
                        tables += 1
                    else:
                        ops.append(("build", n, kind, _spec(rng, kind, n)))
            kind = KINDS[s % len(KINDS)]
            ops.append(("build", 12, kind, _spec(rng, kind, 12)))
            rng.shuffle(ops)
            self.ops += ops
        # warm-up: the eight n = 8 ops of the first input set, the same
        # mix of kinds on every seed
        for op in self.ops[: len(self.ops) // INPUT_SETS]:
            if op[1] == 8:
                self.run(op)

    def cycle(self, index: int) -> list:
        return self.ops

    def run(self, op):
        what, n, kind, spec = op
        if what == "table":
            try:
                mk.from_table(mk.TableSpec(n, spec))
            except mk.AxiomError as e:
                return e.report
            return None
        m = _build(kind, spec)
        return m, mk.validate_axioms(m), mk.circuits(m)

    def check(self, op, result):
        what = op[0]
        if what == "table":
            if result is None:
                return "from_table accepted a perturbed table"
            return witness_fault(op[3], result)
        m, report, circuits = result
        if not report.ok:
            return f"{op[2]} matroid failed its axiom check: {report.describe()}"
        if m.full_rank() < m.n and not circuits:
            return "dependent ground set but no circuits"
        for c in circuits:
            members = frozenset(c)
            size = len(members)
            if m.rank(members) != size - 1 or any(
                m.rank(members - {e}) != size - 1 for e in members
            ):
                return f"{mk.set_literal(members)} is not a circuit"
        return None
