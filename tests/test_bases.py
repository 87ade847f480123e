import itertools
import random
import tracemalloc

import pytest

from matroidkit import (
    BoundExceededError,
    GroundSetError,
    LoopError,
    Matroid,
    MatroidError,
    OrderedBase,
    VectorSpec,
    all_bases,
    anchor_classes,
    circuits,
    closure,
    contract,
    greedy_base,
    is_base,
    is_closed,
    linear,
    ordered_bases,
    uniform,
)
from matroidkit import bases
from matroidkit.catalog import self_loop_triangle, theta, triangle
from matroidkit.core import is_loop_free, loops, mask_of

from conftest import (
    brute_anchor,
    circuit_base_part,
    fundamental_circuit_bruteforce,
    perturbed_tables,
    random_matroid,
)


def test_greedy_base_examples():
    assert greedy_base(uniform(4, 2), (0, 1, 2, 3)).elements == (0, 1)
    assert greedy_base(uniform(3, 3)).elements == (0, 1, 2)
    assert greedy_base(uniform(3, 0)).elements == ()
    assert greedy_base(uniform(4, 2), (3, 1, 0, 2)).elements == (3, 1)


def test_greedy_base_validates_order():
    with pytest.raises(GroundSetError):
        greedy_base(uniform(3, 2), (0, 1))
    with pytest.raises(GroundSetError):
        greedy_base(uniform(3, 2), (0, 1, 1))


@pytest.mark.parametrize("odd_id", [True, 1.0])
def test_greedy_base_refuses_an_order_id_that_only_equals_an_int(odd_id):
    # (0, True) and (0, 1.0) sort equal to [0, 1]; the id is refused before
    # any rank is read, and a true non-permutation keeps its own message
    calls = []
    m = Matroid(2, lambda a: calls.append(a) or min(2, a.bit_count()))
    with pytest.raises(GroundSetError, match=r"^element .* outside ground set of size 2$"):
        greedy_base(m, (0, odd_id))
    with pytest.raises(GroundSetError, match="^order must be a permutation of the ground set$"):
        greedy_base(m, (1, 1))
    assert calls == []


@pytest.mark.parametrize(
    "scan",
    [greedy_base, lambda m: greedy_base(m, (1, 0)), lambda m: closure(m, {0}),
     lambda m: is_closed(m, {0}), lambda m: contract(m, {0})],
)
def test_ground_set_scans_refuse_above_their_ceiling(scan):
    # refused before range(n) is built: 10^18 elements would not fit in memory
    with pytest.raises(BoundExceededError, match=r"^ground-set scan needs n <= 10000, got 10001$"):
        scan(uniform(10_001, 3))
    with pytest.raises(BoundExceededError):
        scan(uniform(10**18, 3))


def test_greedy_base_leaves_no_ranks_behind():
    rng = random.Random(17)
    vectors = tuple(tuple(rng.randrange(3) for _ in range(12)) for _ in range(2000))
    m = linear(VectorSpec(3, 12, vectors))
    greedy_base(linear(VectorSpec(3, 12, vectors[:50])))  # one-off allocations
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        base = greedy_base(m)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(base) == 12
    # a rank cache keyed by each scanned mask would hold hundreds of KB here
    assert held < 16 * 1024


def test_greedy_base_always_a_base(suite6):
    for m in suite6:
        ob = greedy_base(m)
        assert is_base(m, ob.as_set()), m.name
        ob2 = greedy_base(m, tuple(reversed(range(m.n))))
        assert is_base(m, ob2.as_set()), m.name


def test_is_base_examples():
    m = uniform(4, 2)
    assert is_base(m, {0, 1})
    assert not is_base(m, {0})
    assert not is_base(m, {0, 1, 2})


def test_is_base_matches_maximal_independent(suite6):
    from conftest import powerset

    for m in suite6:
        for b in powerset(range(m.n)):
            bs = set(b)
            maximal = m.is_independent(bs) and all(
                not m.is_independent(bs | {x}) for x in range(m.n) if x not in bs
            )
            assert is_base(m, bs) == maximal, m.name


def _fundamental_circuit(m, b, x):
    """x's fundamental circuit in the ordered base b: x and its base part."""
    return tuple(sorted([x, *circuit_base_part(m, b, x)]))


def test_fundamental_circuit_examples():
    m = uniform(4, 2)
    b = OrderedBase((0, 1))
    assert _fundamental_circuit(m, b, 2) == (0, 1, 2)
    assert list(circuit_base_part(m, b, 2)) == [1, 0]  # last in base order first
    t = triangle()
    assert _fundamental_circuit(t, OrderedBase((0, 1)), 2) == (0, 1, 2)
    # theta: tree {ab, bc, bd}; chord ca closes the left triangle,
    # chord dc the right one
    th = theta()
    tree = OrderedBase((0, 1, 3))
    assert _fundamental_circuit(th, tree, 2) == (0, 1, 2)
    assert _fundamental_circuit(th, tree, 4) == (1, 3, 4)


def test_anchor_classes_refuses_a_non_base():
    with pytest.raises(GroundSetError, match="is not a base"):
        anchor_classes(uniform(4, 2), OrderedBase((0,)))


def test_fundamental_circuit_matches_bruteforce(suite6):
    for m in suite6:
        if m.n > 5:
            continue
        for ob in ordered_bases(m):
            for x in range(m.n):
                if x in ob:
                    continue
                slow = fundamental_circuit_bruteforce(m, ob, x)
                assert _fundamental_circuit(m, ob, x) == slow.members, m.name


def test_unique_circuit_in_base_extension(suite6):
    for m in suite6:
        cmasks = [c.mask() for c in circuits(m)]
        for b in all_bases(m):
            bmask = mask_of(b)
            for x in range(m.n):
                if bmask >> x & 1:
                    continue
                inside = [cm for cm in cmasks if cm & ~(bmask | 1 << x) == 0]
                assert len(inside) == 1, m.name


def test_anchor_examples():
    m = uniform(4, 2)
    assert anchor_classes(m, OrderedBase((0, 1))).mapping[2] == 1
    assert anchor_classes(m, OrderedBase((0, 1))).mapping[0] == 0
    assert anchor_classes(m, OrderedBase((1, 0))).mapping[2] == 0  # reversed order flips the max


def test_anchor_classes_examples():
    m = uniform(4, 2)
    d = anchor_classes(m, OrderedBase((0, 1)))
    assert d.classes == {0: (0,), 1: (1, 2, 3)}
    assert d.max_class_size == 3

    free = uniform(3, 3)
    d = anchor_classes(free, OrderedBase((0, 1, 2)))
    assert d.max_class_size == 1

    t = triangle()
    d = anchor_classes(t, OrderedBase((0, 1)))
    assert d.classes == {0: (0,), 1: (1, 2)}
    assert d.max_class_size == 2


def test_anchor_classes_partition(suite6):
    for m in suite6:
        if not is_loop_free(m) or m.n > 5:
            continue
        for ob in ordered_bases(m):
            d = anchor_classes(m, ob)
            members = sorted(x for cls in d.classes.values() for x in cls)
            assert members == list(range(m.n)), m.name
            assert set(d.classes) == set(ob.elements)
            assert all(d.mapping[b] == b for b in ob)


def test_anchor_classes_rejects_loops():
    with pytest.raises(LoopError):
        anchor_classes(uniform(3, 0), OrderedBase(()))


def test_anchor_repetition_on_circuits(suite6):
    for m in suite6:
        if not is_loop_free(m):
            continue
        circs = [c.members for c in circuits(m)]
        if not circs:
            continue
        for ob in ordered_bases(m):
            d = anchor_classes(m, ob)
            for c in circs:
                anchors = [d.mapping[x] for x in c]
                assert len(set(anchors)) < len(anchors), (m.name, ob.elements, c)


def test_anchor_repetition_anchor_case():
    # circuit {0,2,3} under base (0,1): elements 2 and 3 share anchor 1
    m = uniform(4, 2)
    d = anchor_classes(m, OrderedBase((0, 1)))
    assert d.mapping[2] == d.mapping[3] == 1


def _assert_anchors_match_reference(m, ob):
    want = {x: brute_anchor(m, ob, x) for x in range(m.n)}
    assert anchor_classes(m, ob).mapping == want, (m.name, ob.elements)


def test_anchors_match_the_bruteforce_circuit_reference(suite6):
    for m in suite6:
        if not is_loop_free(m) or m.n > 5:
            continue
        for ob in ordered_bases(m):
            _assert_anchors_match_reference(m, ob)


def test_anchors_match_the_reference_on_random_matroids():
    rng = random.Random(11)
    checked = 0
    for kind in ("uniform", "graphic", "gf2", "gf3"):
        for n in range(1, 8):
            for _ in range(2):
                m = random_matroid(rng, kind, n)
                if loops(m):
                    continue
                for _ in range(3):
                    order = list(range(n))
                    rng.shuffle(order)
                    _assert_anchors_match_reference(m, greedy_base(m, order))
                    checked += 1
    assert checked > 50


def test_anchor_of_a_non_loop_beside_a_loop():
    m = self_loop_triangle()  # element 3 is a loop
    ob = OrderedBase((0, 1))
    assert bases._top_swap(m, ob, 2) == brute_anchor(m, ob, 2) == 1
    assert bases._top_swap(m, OrderedBase((1, 0)), 2) == 0
    with pytest.raises(LoopError):
        bases._top_swap(m, ob, 3)
    with pytest.raises(LoopError):
        anchor_classes(m, ob)


def test_a_non_loop_without_a_swap_is_an_oracle_fault_not_a_loop():
    # r({1}) = 2 > r({0, 1}) = 1: element 1 is no loop, yet no base
    # element swaps for it, so the oracle is not a matroid
    m = Matroid(2, lambda a: [0, 1, 2, 1][a])
    ob = OrderedBase((0,))
    for call in (lambda: bases._top_swap(m, ob, 1), lambda: anchor_classes(m, ob)):
        with pytest.raises(MatroidError, match="element 1 is not a loop") as err:
            call()
        assert not isinstance(err.value, LoopError)
    faults = 0
    for label, n, table in perturbed_tables(seed=4, per_base=10):
        m = Matroid(n, lambda a, t=table: t[a])
        if loops(m):
            continue
        try:
            anchor_classes(m, greedy_base(m))
        except LoopError:
            pytest.fail(f"{label}: a loop-free oracle reported a loop")
        except MatroidError as e:
            faults += "is not a loop" in str(e)
    assert faults > 0


def test_anchor_classes_checks_its_base_once(monkeypatch):
    calls = []
    real = bases.is_base
    monkeypatch.setattr(bases, "is_base", lambda m, b: calls.append(b) or real(m, b))
    d = anchor_classes(uniform(6, 3), OrderedBase((0, 1, 2)))
    assert d.classes == {0: (0,), 1: (1,), 2: (2, 3, 4, 5)}
    assert len(calls) == 1


def test_anchor_cache_is_keyed_by_the_base_sequence():
    m = uniform(4, 2)
    first = anchor_classes(m, OrderedBase((0, 1)))
    flipped = anchor_classes(m, OrderedBase((1, 0)))
    assert first.mapping[2] == 1 and flipped.mapping[2] == 0
    assert anchor_classes(m, OrderedBase((1, 0))) is flipped
    assert m._anchor_cache is flipped


def test_ordered_bases_are_every_order_of_every_base_bases_first(suite6):
    # against a sweep of all distinct r-tuples: bases lex, then orders lex
    for m in suite6:
        r = m.rank(range(m.n))
        want = sorted(
            (t for t in itertools.permutations(range(m.n), r) if m.rank(t) == r),
            key=lambda t: (sorted(t), t),
        )
        assert [ob.elements for ob in ordered_bases(m)] == want, m.name


def test_anchor_classes_over_every_ordered_base_keep_one_decomposition():
    m = uniform(5, 3)
    obs = list(ordered_bases(m))
    assert len(obs) == 60
    for ob in obs:
        assert anchor_classes(m, ob) is m._anchor_cache
    assert m._anchor_cache.base == obs[-1]
