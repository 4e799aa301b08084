"""The projection-count kernel checked against the partition and topology
reference paths on random tables with duplicate rows, under both decision
policies."""

from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reduct_forge import (
    CountSplit,
    ObjectSet,
    SetFamily,
    ThresholdSplit,
    UnknownAttribute,
    compose_bases,
    conditional_attributes,
    decision_partition,
    eliminate,
    family_equal,
    gamma,
    ind_partition,
    is_redundant,
    minimal_neighborhoods,
    subbase_of,
)
from reduct_forge.partition import block_count, dependency

from conftest import make_table


@st.composite
def tables(draw):
    """Rows drawn from a small pool, so duplicate rows are common; a named
    decision column may give duplicates different decisions."""
    m = draw(st.integers(1, 5))
    pool = draw(st.lists(st.lists(st.sampled_from("012"), min_size=m, max_size=m),
                         min_size=1, max_size=6))
    rows = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
    attrs = [f"c{i + 1}" for i in range(m)]
    if not draw(st.booleans()):
        return make_table(rows, attrs)
    decisions = draw(st.lists(st.sampled_from("xy"), min_size=len(rows), max_size=len(rows)))
    return make_table([r + [d] for r, d in zip(rows, decisions)], attrs + ["d"], decision="d")


def _base(table, attrs) -> SetFamily:
    if not attrs:
        return SetFamily.from_sets([ObjectSet.full(table.object_count)], table.object_count)
    return minimal_neighborhoods(subbase_of(table, attrs))


@given(tables())
@settings(max_examples=150, deadline=None)
def test_kernel_matches_partition_and_topology(table):
    cond = conditional_attributes(table)
    dec = decision_partition(table)
    for size in range(len(cond) + 1):
        for attrs in combinations(cond, size):
            part = ind_partition(table, attrs)
            assert block_count(table, attrs) == len(part)
            if attrs:
                assert block_count(table, attrs) == len(_base(table, attrs))
            assert dependency(table, attrs) == gamma(part, dec)


@given(tables(), st.integers(0, 5))
@settings(max_examples=150, deadline=None)
def test_eliminate_verdicts_match_composed_bases(table, count):
    cond = conditional_attributes(table)
    policy = CountSplit(count) if count <= len(cond) else ThresholdSplit()
    result = eliminate(table, policy)
    low_group = {entry.attribute for entry in result.trace if entry.group == "low"}
    target = _base(table, cond)
    remaining = list(cond)
    for entry in result.trace:
        candidate = [a for a in remaining if a != entry.attribute]
        composed = compose_bases(
            _base(table, [a for a in candidate if a in low_group]),
            _base(table, [a for a in candidate if a not in low_group]),
        )
        redundant = family_equal(target, composed)
        assert entry.verdict == ("redundant" if redundant else "kept")
        assert (entry.base_size_before, entry.base_size_after) == (len(target), len(composed))
        if redundant:
            remaining = candidate
    assert tuple(remaining) == result.reduct


def test_kernel_rejects_names_outside_the_conditional_set():
    table = make_table([["0", "1", "x"]], ["p", "q", "d"], decision="d")
    for attrs in (["p", "z"], ["p", "d"]):
        with pytest.raises(UnknownAttribute):
            block_count(table, attrs)
        with pytest.raises(UnknownAttribute):
            dependency(table, attrs)
    with pytest.raises(UnknownAttribute):
        is_redundant(table, "p", ["p", "q", "d"])
