"""Property test: contracted rank oracles on int masks against their definition.

A contraction hands its parent a mapped bitmask.  Its ranks are checked
on every subset against the explicit minimization of r(A u Z0) - r(Z0),
for two contractions in a row, so the second's element map composes
through the first's.  Ranks are read by oracle calls (before the mask
table exists) and through the table.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from matroidkit import contract, contracted_rank_by_minimization
from matroidkit.core import bits, mask_of

from conftest import powerset, random_matroid


def _contract(parent, chosen):
    """Contract chosen in parent; return the child with its definitional rank."""
    ids = tuple(range(parent.n))
    keep = tuple(x for x in ids if x not in chosen)
    child = contract(parent, chosen)
    parent_map = parent.element_map or ids
    assert child.element_map == tuple(parent_map[x] for x in keep)
    return child, lambda s: contracted_rank_by_minimization(parent, chosen, [keep[i] for i in s])


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
    root_table_first=st.booleans(),
    data=st.data(),
)
def test_derived_mask_oracles_match_definitions(kind, n, seed, root_table_first, data):
    m = random_matroid(random.Random(seed), kind, n)
    if root_table_first:
        m.mask_table()
    for _ in range(2):
        chosen = frozenset(bits(data.draw(st.integers(0, (1 << m.n) - 1))))
        child, definition = _contract(m, chosen)
        _check(child, definition, ORACLE_FIRST[data.draw(st.sampled_from(sorted(ORACLE_FIRST)))])
        m = child
