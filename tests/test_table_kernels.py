"""The byte-set axiom pass and circuit pass, against mask-by-mask references.

``validate_axioms`` and ``circuits`` read the whole mask table at once, as
ints with one byte per mask.  Each must give exactly what the sweeps in
``conftest`` give mask by mask: the same ``AxiomReport`` (verdict, axiom,
witness and detail) and the same circuit list in the same order, on
matroids and on tables that are not matroids.
"""

import random

import pytest

from matroidkit import Matroid, circuits, uniform, validate_axioms

from conftest import circuits_by_sweep, perturbed_tables, random_matroid, rank_function_by_pairs


def _agree(m):
    """The report of m's axiom pass; asserts both kernels match their references."""
    report = validate_axioms(m)
    assert report == rank_function_by_pairs(m.mask_table(), m.n), m.name
    assert circuits(m, max_n=m.n) == circuits_by_sweep(m), m.name
    return report


def _tabled(n, table, name):
    return Matroid(n, lambda a: table[a], name=name)


def _seeded(kind, seed):
    """Three seeded matroids of the kind on each n <= 10."""
    rng = random.Random(seed)
    return [random_matroid(rng, kind, n) for n in range(11) for _ in range(3)]


def _one_entry_off(rng, m, count):
    """Tables of m with one entry moved by +-1 or +-2, kept nonnegative."""
    base = m.mask_table()
    for _ in range(count):
        mask = rng.randrange(1 << m.n)
        delta = rng.choice([d for d in (-2, -1, 1, 2) if base[mask] + d >= 0])
        table = list(base)
        table[mask] += delta
        yield _tabled(m.n, table, f"{m.name} mask={mask} {delta:+d}")


def test_kernels_match_the_references_on_the_desk_suite(suite7):
    for m in suite7:
        assert _agree(m).ok, m.name


@pytest.mark.parametrize("kind", ["gf2", "gf3", "graphic"])
def test_kernels_match_the_references_on_seeded_matroids(kind):
    for m in _seeded(kind, seed=14):
        assert _agree(m).ok, m.name


@pytest.mark.parametrize("kind", ["gf2", "gf3", "graphic"])
def test_kernels_match_the_references_on_one_entry_perturbed_tables(kind):
    rng = random.Random(15)
    axioms = set()
    for m in _seeded(kind, seed=16):
        for bad in _one_entry_off(rng, m, 4):
            axioms.add(_agree(bad).axiom)
    # every failing path is taken, and a move that keeps a matroid passes
    assert axioms >= {"normalization", "monotonicity", "submodularity"}


def test_kernels_match_the_references_on_small_perturbed_tables():
    axioms = set()
    for label, n, table in perturbed_tables(seed=17, per_base=10):
        axioms.add(_agree(_tabled(n, table, label)).axiom)
    assert axioms == {None, "normalization", "subcardinality", "monotonicity", "submodularity"}


def test_kernels_match_the_references_on_random_tables():
    rng = random.Random(18)
    axioms = set()
    for n in range(6):
        for i in range(40):
            table = [rng.randint(0, 2) for _ in range(1 << n)]
            if i % 8:
                table[0] = 0
            axioms.add(_agree(_tabled(n, table, f"random n={n} #{i}")).axiom)
    assert axioms == {None, "normalization", "subcardinality", "monotonicity", "submodularity"}


def test_kernels_match_the_references_on_ranks_above_a_byte():
    # ranks are held one byte per mask, capped; the first failure must not move
    rng = random.Random(19)
    for n in range(5):
        for i in range(20):
            table = [rng.choice((0, 1, 2, 254, 255, 256, 10**6)) for _ in range(1 << n)]
            table[0] = 0
            _agree(_tabled(n, table, f"large n={n} #{i}"))
    for n, mask in ((4, 0b0001), (4, 0b1111), (8, 0b10110000)):
        table = uniform(n, 2).mask_table()[:]
        table[mask] = 300
        assert not _agree(_tabled(n, table, f"U({n},2) r({mask})=300")).ok
