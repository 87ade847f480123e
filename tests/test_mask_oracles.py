"""Property test: derived rank oracles on int masks against their definitions.

Restriction and contraction hand their parent a mapped bitmask.  Their
ranks are checked on every subset against the definitions: the parent's
rank of the mapped subset for a restriction, and the explicit
minimization of r(A u Z0) - r(Z0) for a contraction.  Ranks are read
by oracle calls (before the mask table exists) and through the table.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from matroidkit import contract, contracted_rank_by_minimization, restrict
from matroidkit.core import bits, mask_of

from conftest import powerset, random_matroid


def _step(parent, how, chosen):
    """Derive a matroid from parent; return it with its definitional rank."""
    ids = tuple(range(parent.n))
    if how == "restrict":
        keep = tuple(x for x in ids if x in chosen)
        child = restrict(parent, keep)
        definition = lambda s: parent.rank(keep[i] for i in s)  # noqa: E731
    else:
        keep = tuple(x for x in ids if x not in chosen)
        child = contract(parent, chosen)
        definition = lambda s: contracted_rank_by_minimization(  # noqa: E731
            parent, chosen, [keep[i] for i in s]
        )
    parent_map = parent.element_map or ids
    assert child.element_map == tuple(parent_map[x] for x in keep)
    return child, definition


def _check(m, definition, oracle_first):
    """rank(S) = table[mask(S)] = definition(S), read before and after the table."""
    subsets = list(powerset(range(m.n)))
    before = {s: m.rank(s) for s in subsets if oracle_first(s)}
    assert m._mask_table is None
    table = m.mask_table()
    for s in subsets:
        want = definition(s)
        assert m.rank(s) == table[mask_of(s)] == want, (m.name, s)
        assert before.get(s, want) == want, (m.name, s)


# which ranks are read by oracle calls before the mask table is built
ORACLE_FIRST = {
    "none": lambda s: False,
    "even-sized": lambda s: len(s) % 2 == 0,
    "all": lambda s: True,
}


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(["uniform", "graphic", "gf2", "gf3"]),
    n=st.integers(1, 7),
    seed=st.integers(0, 2**32 - 1),
    steps=st.sampled_from([("restrict", "contract"), ("contract", "restrict")]),
    root_table_first=st.booleans(),
    data=st.data(),
)
def test_derived_mask_oracles_match_definitions(kind, n, seed, steps, root_table_first, data):
    m = random_matroid(random.Random(seed), kind, n)
    if root_table_first:
        m.mask_table()
    for how in steps:
        chosen = frozenset(bits(data.draw(st.integers(0, (1 << m.n) - 1))))
        child, definition = _step(m, how, chosen)
        _check(child, definition, ORACLE_FIRST[data.draw(st.sampled_from(sorted(ORACLE_FIRST)))])
        m = child
