"""Acceptance criteria, one test per criterion, each timed against its budget.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.
"""

import io
import itertools
import random
import time
from contextlib import redirect_stdout
from pathlib import Path

from matroidkit import (
    OrderedBase,
    VectorSpec,
    anchor_classes,
    chromatic_number,
    circuits,
    color_from_base,
    contract,
    extend_coloring,
    first_uncolorable_level,
    graphic,
    is_closed,
    is_loop_free,
    is_proper,
    linear,
    ordered_bases,
    run_lemma_battery,
    uniform,
    validate_axioms,
)
from matroidkit.catalog import desk_suite
from matroidkit.cli import run
from matroidkit.compactness import disjoint_triangles
from matroidkit.files import parse_matroid_text, serialize_matroid

from conftest import list_chromatic_by_sweep

DATA = Path(__file__).parent / "data"


def report(criterion, label, t0, limit):
    elapsed = time.time() - t0
    print(f"ACCEPTANCE {criterion} ({label}): PASS [{elapsed:.2f}s < {limit}s]")
    assert elapsed < limit, f"criterion {criterion} over budget: {elapsed:.1f}s"


def all_small_multigraphs(max_edges=5, n_vertices=4):
    """Every multigraph (self-loops and parallel edges included) as an
    edge-type multiset over labeled vertices."""
    verts = [str(v) for v in range(n_vertices)]
    types = [(u, v) for i, u in enumerate(verts) for v in verts[i:]]
    for m in range(max_edges + 1):
        for combo in itertools.combinations_with_replacement(types, m):
            yield [(i, u, v) for i, (u, v) in enumerate(combo)]


def test_criterion_1_axiom_suite():
    t0 = time.time()
    for n in range(8):
        for k in range(n + 1):
            assert validate_axioms(uniform(n, k)).ok, (n, k)
    graphs = 0
    for edges in all_small_multigraphs():
        assert validate_axioms(graphic(edges)).ok, edges
        graphs += 1
    assert graphs == 3003  # multisets of <=5 edges over 10 endpoint pairs
    rng = random.Random(2024)
    for _ in range(50):
        nvec = rng.randint(1, 6)
        dim = rng.randint(1, 4)
        vecs = tuple(
            tuple(rng.randint(0, 1) for _ in range(dim)) for _ in range(nvec)
        )
        assert validate_axioms(linear(VectorSpec(2, dim, vecs))).ok, vecs
    report(1, "axiom suite", t0, 10)


def test_criterion_2_lemma_battery():
    t0 = time.time()
    for m in desk_suite(7):
        for r in run_lemma_battery(m):
            assert r.status != "fail", (m.name, r.key, r.detail)
            assert r.status != "skipped", (m.name, r.key)
    report(2, "lemma battery", t0, 60)


def test_criterion_3_seymour_equality():
    t0 = time.time()
    anchors = {"uniform(4,2)": 2, "uniform(3,1)": 3, "triangle": 2}
    seen = {}
    for m in desk_suite(5, loop_free_only=True):
        chrom = chromatic_number(m).value
        if chrom > 3:
            continue
        lres = list_chromatic_by_sweep(m, kmax=3)
        assert lres.value == chrom, (m.name, chrom, lres.value)
        seen[m.name] = chrom
    for name, expected in anchors.items():
        assert seen[name] == expected, (name, seen.get(name))
    report(3, "Seymour equality", t0, 300)


def test_criterion_4_base_coloring_construction():
    t0 = time.time()
    failures = 0
    for m in desk_suite(6, loop_free_only=True):
        rng = random.Random(1000 + m.n)
        pool = [f"c{i}" for i in range(2 * max(m.n, 1) + 2)]
        for ob in ordered_bases(m):
            decomp = anchor_classes(m, ob)
            size_of = {
                x: len(members)
                for members in decomp.classes.values()
                for x in members
            }
            for _ in range(100):
                lists = {x: frozenset(rng.sample(pool, size_of[x])) for x in range(m.n)}
                phi = color_from_base(m, ob, lists)
                if not is_proper(m, phi):
                    failures += 1
    assert failures == 0
    report(4, "base-driven coloring", t0, 30)


def test_criterion_5_anchor_repetition():
    t0 = time.time()
    for m in desk_suite(6, loop_free_only=True):
        circs = [c.members for c in circuits(m)]
        if not circs:
            continue
        for ob in ordered_bases(m):
            mapping = anchor_classes(m, ob).mapping
            for c in circs:
                values = [mapping[x] for x in c]
                assert len(set(values)) < len(values), (m.name, ob.elements, c)
    d = anchor_classes(uniform(4, 2), OrderedBase((0, 1)))
    assert (0, 2, 3) in [c.members for c in circuits(uniform(4, 2))]
    assert d.mapping[2] == d.mapping[3] == 1
    report(5, "anchor repetition", t0, 60)


def test_criterion_6_contraction_identities():
    t0 = time.time()
    m = uniform(4, 2)
    mc = contract(m, {0})
    target = uniform(3, 1)
    for size in range(4):
        for a in itertools.combinations(range(3), size):
            assert mc.rank(a) == target.rank(a), a
    for zsize in range(5):
        for z in itertools.combinations(range(4), zsize):
            assert is_loop_free(contract(m, z)) == is_closed(m, z), z
    report(6, "contraction identities", t0, 10)


def test_criterion_7_compactness_harness():
    t0 = time.time()
    chain = disjoint_triangles()
    n4 = chain.level(4).n
    lists = {x: frozenset(["a", "b"]) for x in range(n4)}
    phi = extend_coloring(chain, lists, 4)
    assert phi is not None
    for i in range(5):
        mi = chain.level(i)
        assert is_proper(mi, {x: phi[x] for x in range(mi.n)})
    bad = dict(lists)
    for x in (6, 7, 8):  # the triangle that level 2 introduces
        bad[x] = frozenset(["a"])
    assert extend_coloring(chain, bad, 4) is None
    assert first_uncolorable_level(chain, bad, 4) == 2
    report(7, "compactness harness", t0, 5)


def test_criterion_8_cli_determinism_and_roundtrip():
    t0 = time.time()
    files = [DATA / "u24.m", DATA / "triangle.m", DATA / "gf2_line.m"]

    def invoke(argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = run(argv)
        return code, buf.getvalue()

    for path in files:
        for argv in (
            ["circuits", "-i", str(path)],
            ["check-lemmas", "-i", str(path)],
            ["chromatic", "-i", str(path)],
        ):
            first = invoke(argv)
            second = invoke(argv)
            assert first == second, argv
            assert first[0] == 0

    for path in files:
        m1 = parse_matroid_text(path.read_text())
        m2 = parse_matroid_text(serialize_matroid(m1))
        for size in range(m1.n + 1):
            for combo in itertools.combinations(range(m1.n), size):
                assert m1.rank(combo) == m2.rank(combo), (path.name, combo)
    report(8, "CLI determinism and round-trip", t0, 30)
