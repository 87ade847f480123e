"""Mask tables walked by construction steps, against per-mask ranks.

``linear`` and ``graphic`` give their matroid a rank step, and
``Matroid.mask_table`` builds the table by one depth-first walk over
prefixes.  The walked table must equal the
table of the plain definition computed mask by mask: Gaussian
elimination for vectors, covered vertices minus components for graphs.
The walk must also do no other work.  Both steps return their input
state when the gain is 0, and the walk then copies that subtree instead
of stepping it, so it steps once per independent set and element above
the set's top element.  It makes no oracle call, and nothing at all
above the table's ceiling.
"""

import random
import sys
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matroidkit import BoundExceededError, Matroid, VectorSpec, graphic, linear
from matroidkit.core import bits

from conftest import _gf_rank


@st.composite
def vector_specs(draw):
    """Vectors over GF(2), GF(3), GF(5), GF(7) or GF(2^31 - 1), unreduced,
    with zero and parallel ones."""
    p = draw(st.sampled_from((2, 3, 5, 7, 2**31 - 1)))
    dim = draw(st.integers(1, 5))
    coord = st.integers(-2 * p, 2 * p)
    vectors = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(("fresh", "zero", "parallel")))
        if kind == "zero":
            # multiples of p reduce to the zero vector
            v = tuple(p * draw(st.integers(-2, 2)) for _ in range(dim))
        elif kind == "parallel" and vectors:
            base = draw(st.sampled_from(vectors))
            c = draw(st.integers(1, p - 1))
            v = tuple(c * b + p * draw(st.integers(-1, 1)) for b in base)
        else:
            v = tuple(draw(coord) for _ in range(dim))
        vectors.append(v)
    return VectorSpec(p, dim, tuple(vectors))


@st.composite
def edge_lists(draw):
    """Multigraphs on five vertices, so self-loops and parallel edges are common."""
    vertex = st.sampled_from("abcde")
    n = draw(st.integers(0, 10))
    return [(i, draw(vertex), draw(vertex)) for i in range(n)]


def graph_rank(edges, mask):
    """Covered vertices minus connected components, by merging vertex sets."""
    parts = []
    for e in bits(mask):
        _, u, v = edges[e]
        touching = [s for s in parts if u in s or v in s]
        merged = {u, v}.union(*touching)
        parts = [s for s in parts if s not in touching] + [merged]
    return sum(len(s) for s in parts) - len(parts)


@settings(max_examples=80, deadline=None)
@given(vector_specs())
def test_linear_walked_table_equals_gaussian_elimination(spec):
    n = len(spec.vectors)
    want = [_gf_rank([list(spec.vectors[i]) for i in bits(a)], spec.p) for a in range(1 << n)]
    assert linear(spec).mask_table() == want
    # the oracle folds the same step over each subset, with no table built
    fresh = linear(spec)
    assert [fresh.rank_of_mask(a) for a in range(1 << n)] == want


def test_linear_fold_over_thousands_of_elements_equals_gaussian_elimination():
    # a fold reduces each element through its ancestors' rows, with no
    # memo filled by a walk to help it; the even elements span only a
    # 5-dimensional subspace, so a fold that drops a row shows
    rng = random.Random(3)
    span = [[rng.randrange(3) for _ in range(12)] for _ in range(5)]

    def in_span():
        cs = [rng.randrange(3) for _ in span]
        return [sum(c * row[j] for c, row in zip(cs, span)) for j in range(12)]

    vectors = [in_span() if i % 2 == 0 else [rng.randrange(3) for _ in range(12)]
               for i in range(2000)]
    m = linear(VectorSpec(3, 12, tuple(map(tuple, vectors))))
    everything = (1 << 2000) - 1
    even = sum(1 << i for i in range(0, 2000, 2))
    want = {mask: _gf_rank([vectors[i] for i in bits(mask)], 3) for mask in (everything, even)}
    assert want == {everything: 12, even: 5}
    assert {mask: m.rank_of_mask(mask) for mask in want} == want


def test_linear_fold_deeper_than_the_recursion_limit():
    # a fold's state chain is as long as the rank; reducing through it
    # must not recurse once per row
    n = 1100
    vectors = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    assert linear(VectorSpec(2, n, vectors)).rank_of_mask((1 << n) - 1) == n


@settings(max_examples=80, deadline=None)
@given(edge_lists())
def test_graphic_walked_table_equals_component_count(edges):
    n = len(edges)
    want = [graph_rank(edges, a) for a in range(1 << n)]
    assert graphic(edges).mask_table() == want
    fresh = graphic(edges)
    assert [fresh.rank_of_mask(a) for a in range(1 << n)] == want


def _counted(m):
    """A copy of m whose oracle and step count their calls."""
    calls = Counter()
    start, fn = m._step

    def oracle(a):
        calls["oracle"] += 1
        return m._oracle(a)

    def step(state, x):
        calls["step"] += 1
        return fn(state, x)

    return Matroid(m.n, oracle, step=(start, step)), calls


def _gf3(n, seed=0):
    rng = random.Random(seed)
    return linear(VectorSpec(3, 4, tuple(tuple(rng.randrange(3) for _ in range(4)) for _ in range(n))))


WALKED = {
    "linear": _gf3(10),
    # a self-loop (2) and parallel edges (0, 1) among ten edges
    "graphic": graphic(
        [(0, "a", "b"), (1, "b", "a"), (2, "c", "c"), (3, "b", "c"), (4, "c", "d"),
         (5, "d", "a"), (6, "d", "e"), (7, "e", "f"), (8, "f", "a"), (9, "e", "b")]
    ),
    "linear n=0": linear(VectorSpec(3, 2, ())),
    "linear n=1": _gf3(1),
    "linear n=1 zero": linear(VectorSpec(3, 2, ((0, 3),))),
    "graphic n=0": graphic([]),
    "graphic n=1": graphic([(0, "a", "b")]),
    "graphic n=1 self-loop": graphic([(0, "a", "a")]),
}


def _walk_steps(m):
    """Steps the walk should make, read from the oracle alone.

    n at the root, plus n - 1 - top(M) for every nonempty M whose
    elements each raised the rank, in ascending order, when added: the
    independent sets.  Any other mask lies in a subtree that is copied.
    """
    return sum(m.n - a.bit_length() for a in range(1 << m.n) if m._oracle(a) == a.bit_count())


@pytest.mark.parametrize("kind", sorted(WALKED))
def test_table_walk_steps_once_per_independent_set_and_element_above_it(kind):
    m = WALKED[kind]
    counted, calls = _counted(m)
    table = counted.mask_table()
    assert calls == Counter(step=_walk_steps(m))
    assert table == [m._oracle(a) for a in range(1 << m.n)]


def test_table_walk_copies_only_a_kept_state_with_no_gain():
    # a step that keeps its state but gains 1 (the free matroid), and one
    # that gains 0 but moves its state (r(A) = |A| - 1, not a matroid),
    # must be walked, not copied
    n = 9
    free = Matroid(n, int.bit_count, step=(None, lambda s, x: (s, 1)))
    assert free.mask_table() == [a.bit_count() for a in range(1 << n)]
    late = Matroid(
        n, lambda a: max(a.bit_count() - 1, 0), step=(0, lambda s, x: (s + 1, int(s > 0)))
    )
    assert late.mask_table() == [max(a.bit_count() - 1, 0) for a in range(1 << n)]


def test_table_walk_refuses_17_elements_before_any_step():
    counted, calls = _counted(_gf3(17))
    with pytest.raises(BoundExceededError, match=r"^mask table needs n <= 16, got 17$"):
        counted.mask_table()
    assert not calls


def test_table_walk_keeps_few_states_alive():
    # the first build in a process also pays one-off allocations
    _gf3(14, seed=1).mask_table()
    m = _gf3(14, seed=2)
    tracemalloc.start()
    try:
        table = m.mask_table()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one state per depth: the table itself is nearly all of the peak,
    # where one state per mask would cost several times the table
    assert peak < 2 * sys.getsizeof(table)
