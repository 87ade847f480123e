import pytest

from matroidkit import (
    GroundSetError,
    Matroid,
    MatroidError,
    circuits,
    contract,
    contracted_rank_by_minimization,
    is_closed,
    is_loop_free,
    uniform,
    validate_axioms,
)
from matroidkit.catalog import theta, triangle

from matroidkit.core import bits, set_literal

from conftest import contract_by_oracle, perturbed_tables, powerset


def test_contract_u24_is_u13():
    mc = contract(uniform(4, 2), {0})
    assert mc.n == 3
    assert mc.element_map == (1, 2, 3)
    for a in powerset(range(3)):
        assert mc.rank(a) == min(len(a), 1)
    assert [c.members for c in circuits(mc)] == [(0, 1), (0, 2), (1, 2)]


def test_contract_nothing_is_identity():
    m = uniform(4, 2)
    mc = contract(m, set())
    for a in powerset(range(4)):
        assert mc.rank(a) == m.rank(a)


def test_contract_triangle_edge_gives_parallel_pair():
    mc = contract(triangle(), {0})
    assert mc.n == 2
    assert mc.rank({0, 1}) == 1
    assert [c.members for c in circuits(mc)] == [(0, 1)]
    # theta: contracting the tree {bc, bd} makes {ab, ca} a parallel pair
    t = theta()
    assert t.rank({0, 2}) == 2
    assert contract(t, {1, 3}).rank({0, 1}) == 1


def test_contract_everything():
    mc = contract(uniform(3, 2), {0, 1, 2})
    assert mc.n == 0 and mc.rank(()) == 0


def test_shortcut_matches_minimization(suite6):
    for m in suite6:
        for z in powerset(range(m.n)):
            zs = frozenset(z)
            mc = contract(m, zs)
            others = [x for x in range(m.n) if x not in zs]
            for a in powerset(others):
                direct = m.rank(set(a) | zs) - m.rank(zs)
                assert direct == contracted_rank_by_minimization(m, zs, a), m.name
    with pytest.raises(GroundSetError):
        contracted_rank_by_minimization(uniform(4, 2), {0}, {0, 1})  # a meets z


def test_contractions_are_matroids(suite6):
    for m in suite6:
        for z in powerset(range(m.n)):
            assert validate_axioms(contract(m, z)).ok, m.name


def test_loop_free_iff_closed(suite6):
    for m in suite6:
        for z in powerset(range(m.n)):
            assert is_loop_free(contract(m, z)) == is_closed(m, z), m.name


def test_independence_transfer(suite6):
    # independent in the contraction iff joinable with every independent
    # subset of the contracted part
    for m in suite6:
        if m.n > 5:
            continue
        for z in powerset(range(m.n)):
            zs = frozenset(z)
            mc = contract(m, zs)
            keep = sorted(x for x in range(m.n) if x not in zs)
            to_old = {i: e for i, e in enumerate(keep)}
            indep_z = [frozenset(y) for y in powerset(sorted(zs)) if m.is_independent(y)]
            for xs in powerset(range(mc.n)):
                old = frozenset(to_old[i] for i in xs)
                lhs = mc.is_independent(xs)
                rhs = all(m.is_independent(old | y) for y in indep_z)
                assert lhs == rhs, m.name


def _table_outcome(m):
    try:
        return m.mask_table()
    except MatroidError as e:
        return str(e)


def test_contraction_table_equals_its_oracle_on_non_matroids():
    # the table is read in one pass from the parent's ranks; it must equal
    # the contraction's oracle asked mask by mask, and refuse the first
    # negative rank in mask order with the oracle route's message
    seen = set()
    for label, n, table in perturbed_tables(seed=7, per_base=6):
        parent = Matroid(n, table.__getitem__)
        for z in range(1 << n):
            mc = contract(parent, bits(z))
            oracle = contract_by_oracle(parent, bits(z))
            got = _table_outcome(mc)
            assert got == _table_outcome(oracle), (label, z)
            assert mc.name == f"{parent.name}/{set_literal(bits(z))}"
            seen.add(type(got))
    assert seen == {list, str}
    bad = Matroid(3, [0, 1, 1, 2, 1, 2, 0, 2].__getitem__)
    assert _table_outcome(contract(bad, [2])) == "oracle returned -1 for {1}"


def test_contraction_oracle_answers_before_its_table():
    # a rank asked before the table exists is one call to the parent
    calls = []
    parent = Matroid(4, lambda a: calls.append(a) or min(a.bit_count(), 2))
    mc = contract(parent, [1])
    assert calls == [0b0010]
    assert mc.rank_of_mask(0b101) == 1  # new ids 0 and 2 are 0 and 3
    assert calls[1:] == [0b1011]
    assert mc.mask_table() == [0, 1, 1, 1, 1, 1, 1, 1]
    assert calls[2:] == [0b0010 | a for a in (0, 1, 4, 5, 8, 9, 12, 13)]
