import copy
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matroidkit import (
    BoundExceededError,
    GroundSetError,
    Matroid,
    MatroidError,
    check_circuit_elimination,
    circuits,
    is_loop_free,
    loops,
    uniform,
    validate_axioms,
)
from matroidkit.catalog import theta, triangle
from matroidkit.core import (
    VALIDATION_BOUND,
    AxiomReport,
    Circuit,
    bits,
    mask_of,
    set_literal,
)

from conftest import (
    brute_circuits,
    brute_max_independent_size,
    first_violation,
    perturbed_tables,
    powerset,
    random_matroid,
    witness_fault,
)


def test_rank_examples():
    m = uniform(4, 2)
    assert m.rank({0, 1, 2}) == 2
    assert m.rank(set()) == 0
    # triangle: 3 covered vertices, 1 component
    assert triangle().rank({0, 1, 2}) == 2


def test_rank_rejects_out_of_range():
    m = uniform(4, 2)
    with pytest.raises(GroundSetError):
        m.rank({0, 4})
    with pytest.raises(GroundSetError):
        m.rank({-1})
    with pytest.raises(GroundSetError):
        m.rank({True})


def test_the_mask_table_is_the_only_rank_cache():
    calls = []

    def oracle(a):
        calls.append(a)
        return min(a.bit_count(), 2)

    m = Matroid(4, oracle)
    # before the table, every rank call evaluates the oracle, repeats included
    assert [m.rank({0, 1}), m.rank({1, 0}), m.rank_of_mask(0b11)] == [2, 2, 2]
    assert calls == [0b11] * 3
    calls.clear()
    table = m.mask_table()
    assert calls == list(range(16))
    calls.clear()
    # after it, no call does
    assert [m.rank({0, 1, 2}), m.rank_of_mask(0b1111), m.full_rank()] == [2, 2, 2]
    assert m.is_independent({3}) and m.mask_table() is table
    assert calls == []


def test_validate_axioms_pass():
    assert validate_axioms(uniform(4, 2)).ok
    assert validate_axioms(triangle()).ok


def test_validate_axioms_bad_table():
    # r({0})=0 with r({0,1})=2 breaks submodularity on the pair {0},{1}
    table = {
        frozenset(): 0,
        frozenset({0}): 0,
        frozenset({1}): 1,
        frozenset({0, 1}): 2,
    }
    m = Matroid(2, lambda a: table[frozenset(bits(a))])
    report = validate_axioms(m)
    assert not report.ok
    assert report.axiom == "submodularity"
    assert report.witness == ((0,), (1,))


def _full_scan_fault(n, table, report):
    """None iff the full scan gives the same verdict and a failure's witness holds."""
    if report.ok != first_violation(table, n).ok:
        return f"verdict {report.ok} differs from the full scan's"
    return None if report.ok else witness_fault(table, report)


def test_validate_axioms_matches_full_scan(suite7):
    for m in suite7:
        assert validate_axioms(m) == first_violation(m.mask_table(), m.n) == AxiomReport(True), m.name
    failed_axioms = set()
    passed = 0
    for label, n, table in perturbed_tables(seed=2, per_base=40):
        report = validate_axioms(Matroid(n, lambda a, t=table: t[a]))
        assert _full_scan_fault(n, table, report) is None, label
        if report.ok:
            passed += 1
        else:
            failed_axioms.add(report.axiom)
    # both verdicts and every axiom's witness path are exercised
    assert passed > 0
    assert failed_axioms == {"normalization", "subcardinality", "monotonicity", "submodularity"}


@st.composite
def _rank_tables(draw):
    """A table with n <= 4 and entries 0..4: U(n, k) with some entries overwritten."""
    n = draw(st.integers(0, 4))
    k = draw(st.integers(0, n))
    table = [min(a.bit_count(), k) for a in range(1 << n)]
    for a in draw(st.lists(st.integers(0, (1 << n) - 1), max_size=1 << n)):
        table[a] = draw(st.integers(0, 4))
    return n, table


@settings(max_examples=300, deadline=None)
@given(_rank_tables())
def test_validate_axioms_matches_full_scan_on_random_tables(case):
    n, table = case
    report = validate_axioms(Matroid(n, lambda a: table[a]))
    assert _full_scan_fault(n, table, report) is None


def test_validate_axioms_names_a_witness_at_sixteen_elements():
    # U(16, 8) with r(E) raised to 9: every 14-set A has r(A) = r(A+x) = 8
    # for both missing x, yet r(E) = 9; the O(4^n) reference is too slow here
    n = 16
    full = (1 << n) - 1
    m = Matroid(n, lambda a: 9 if a == full else min(a.bit_count(), 8))
    report = validate_axioms(m)
    assert report.axiom == "submodularity"
    assert witness_fault(m.mask_table(), report) is None
    assert report.witness == (tuple(range(15)), tuple(range(14)) + (15,))


def test_validate_axioms_at_validation_bound():
    assert validate_axioms(uniform(VALIDATION_BOUND, VALIDATION_BOUND // 2)).ok


def test_validate_axioms_refuses_above_bound():
    m = Matroid(17, lambda a: a.bit_count())
    with pytest.raises(BoundExceededError):
        validate_axioms(m)


def test_is_independent():
    m = uniform(4, 2)
    assert m.is_independent({0, 1})
    assert m.is_independent(set())
    assert not triangle().is_independent({0, 1, 2})


def test_circuits_u24():
    m = uniform(4, 2)
    got = [c.members for c in circuits(m)]
    assert got == [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]


def test_circuits_free_and_triangle():
    assert circuits(uniform(3, 3)) == []
    assert [c.members for c in circuits(triangle())] == [(0, 1, 2)]


def test_circuits_are_slotted_frozen_values():
    c = Circuit((0, 2, 5))
    assert c == Circuit((0, 2, 5)) and c != Circuit((0, 2)) and c != (0, 2, 5)
    assert hash(c) == hash(Circuit((0, 2, 5)))
    assert repr(c) == "Circuit(members=(0, 2, 5))"
    assert (list(c), len(c), c.mask()) == ([0, 2, 5], 3, 0b100101)
    assert not hasattr(c, "__dict__")
    with pytest.raises(AttributeError):
        c.members = (1,)
    # refused either way; Python 3.11's slotted frozen dataclasses raise
    # TypeError, not FrozenInstanceError, for a name that is not a field
    with pytest.raises((AttributeError, TypeError)):
        c.note = "x"
    found = circuits(triangle())
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(found, protocol)) == found
    assert copy.deepcopy(found) == found and copy.copy(c) == c
    assert {c: 1}[pickle.loads(pickle.dumps(c))] == 1


def test_circuits_match_bruteforce(suite6):
    rng = random.Random(3)
    randoms = [
        random_matroid(rng, kind, n)
        for kind in ("uniform", "graphic", "gf2", "gf3")
        for n in range(1, 8)
        for _ in range(3)
    ]
    for m in suite6 + randoms:
        assert [c.members for c in circuits(m)] == brute_circuits(m), m.name


def test_is_loop_free():
    assert is_loop_free(uniform(4, 2))
    assert not is_loop_free(uniform(3, 0))
    assert loops(uniform(3, 0)) == (0, 1, 2)


def test_loops_call_the_checked_oracle_until_the_table_is_built():
    calls = []
    ranks = [0, 0, 1, 1, 1, 1, 1, 1]  # element 0 is a loop
    m = Matroid(3, lambda a: calls.append(a) or ranks[a])
    assert loops(m) == (0,)
    assert calls == [1, 2, 4]
    m.mask_table()
    del calls[:]
    assert loops(m) == (0,)
    assert calls == []
    for bad in (-1, True, 1.5):
        # a rank that is no nonnegative int is refused before the table
        m = Matroid(3, lambda a, bad=bad: bad if a == 2 else min(a, 1))
        with pytest.raises(MatroidError) as err:
            loops(m)
        assert str(err.value) == f"oracle returned {bad!r} for {{1}}"


def test_circuit_elimination_u24_and_triangle():
    assert check_circuit_elimination(uniform(4, 2)).ok
    rep = check_circuit_elimination(triangle())
    assert rep.ok and rep.pairs_checked == 0  # single circuit: vacuous


def test_circuit_elimination_theta_outer_cycle():
    m = theta()
    rep = check_circuit_elimination(m)
    assert rep.ok
    # dropping the shared edge 1 from the two triangles leaves the outer 4-cycle
    cmasks = [c.mask() for c in circuits(m)]
    union_minus_e = mask_of({0, 2, 3, 4})
    inside = [cm for cm in cmasks if cm & ~union_minus_e == 0]
    assert inside == [mask_of({0, 2, 3, 4})]


def test_unit_rank_increase(suite6):
    for m in suite6:
        t = m.mask_table()
        for a in range(1 << m.n):
            for x in range(m.n):
                if a >> x & 1:
                    continue
                assert t[a | 1 << x] - t[a] in (0, 1), m.name


def test_axiom_invariants_exhaustive(suite6):
    for m in suite6:
        t = m.mask_table()
        full = (1 << m.n) - 1
        for a in range(1 << m.n):
            assert t[a] <= bin(a).count("1")
            sup = full & ~a
            s = sup
            while True:
                assert t[a] <= t[a | s]
                if s == 0:
                    break
                s = (s - 1) & sup
        for a in range(1 << m.n):
            for b in range(1 << m.n):
                assert t[a] + t[b] >= t[a & b] + t[a | b], m.name


def test_maximal_independent_matches_rank(suite6):
    for m in suite6:
        for a in powerset(range(m.n)):
            assert brute_max_independent_size(m, a) == m.rank(a), m.name


def test_no_circuit_contains_another(suite6):
    for m in suite6:
        masks = [c.mask() for c in circuits(m)]
        for i, c1 in enumerate(masks):
            assert c1 != 0
            for j, c2 in enumerate(masks):
                if i != j:
                    assert c1 & ~c2 != 0, m.name


def test_every_dependent_set_contains_circuit(suite6):
    for m in suite6:
        masks = [c.mask() for c in circuits(m)]
        for a in powerset(range(m.n)):
            if not m.is_independent(a):
                am = mask_of(a)
                assert any(cm & ~am == 0 for cm in masks), m.name


def test_set_literal_and_bits():
    assert set_literal([2, 0, 1]) == "{0,1,2}"
    assert set_literal([]) == "{}"
    assert list(bits(0b1011)) == [0, 1, 3]


def test_misbehaving_oracle_is_reported():
    from matroidkit import MatroidError

    m = Matroid(2, lambda a: -1)
    with pytest.raises(MatroidError):
        m.rank({0})
    m = Matroid(2, lambda a: 0.5)
    with pytest.raises(MatroidError):
        m.rank({0})
    m = Matroid(2, lambda a: True)
    with pytest.raises(MatroidError):
        m.rank({0})


def test_circuits_refuses_above_bound():
    big = Matroid(13, lambda a: a.bit_count())
    with pytest.raises(BoundExceededError):
        circuits(big)
    # an explicit override runs it
    assert circuits(big, max_n=13) == []
