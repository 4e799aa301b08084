"""The projection-count kernel checked against the partition and topology
reference paths, significance and the ranking checked against the gamma
drop, the leave-one-out walk checked against direct projections,
the shared grouping routine checked against direct grouping, and the
exhaustive oracle checked against plain subset enumeration, on random tables
with duplicate rows, under both decision policies."""

from __future__ import annotations

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reduct_forge import (
    CountSplit,
    ObjectSet,
    Partition,
    SetFamily,
    ThresholdSplit,
    UnknownAttribute,
    compose_bases,
    conditional_attributes,
    core_attributes,
    decision_partition,
    eliminate,
    exhaustive_reducts,
    family_equal,
    gamma,
    ind_partition,
    is_redundant,
    meet,
    minimal_neighborhoods,
    rank_attributes,
    significance,
    subbase_of,
)
import reduct_forge.partition as partition
from reduct_forge.partition import _leave_one_out, block_count, dependency, projections

from conftest import make_table, minimal_preserving_subsets_oracle


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


@st.composite
def tables_with_redundant_columns(draw):
    """``tables()`` with copied and all-constant columns shuffled in, so the
    core can be empty, partial or all of the attributes."""
    table = draw(tables())
    cond = conditional_attributes(table)
    columns = [table.column(a) for a in cond]
    for source in draw(st.lists(st.none() | st.sampled_from(range(len(cond))), max_size=3)):
        columns.append(("k",) * table.object_count if source is None else columns[source])
    columns = draw(st.permutations(columns))
    attrs = [f"c{i + 1}" for i in range(len(columns))]
    rows = [list(row) for row in zip(*columns)]
    if table.decision is None:
        return make_table(rows, attrs)
    decisions = table.column(table.decision)
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


@given(tables())
@settings(max_examples=150, deadline=None)
def test_significance_matches_the_gamma_drop(table):
    """``significance`` reads its value off the ranking walk, so both are
    checked here against the positive-region reference: the drop in gamma
    when the attribute leaves the full conditional set."""
    cond = conditional_attributes(table)
    dec = decision_partition(table)
    full = gamma(ind_partition(table, cond), dec)
    ranked = dict(rank_attributes(table).ranked)
    assert list(ranked) == sorted(cond, key=ranked.__getitem__)
    for a in cond:
        expected = full - gamma(ind_partition(table, [b for b in cond if b != a]), dec)
        assert significance(table, a) == ranked[a] == expected


def test_kernel_rejects_names_outside_the_conditional_set():
    table = make_table([["0", "1", "x"]], ["p", "q", "d"], decision="d")
    for attrs in (["p", "z"], ["p", "d"]):
        with pytest.raises(UnknownAttribute):
            block_count(table, attrs)
        with pytest.raises(UnknownAttribute):
            dependency(table, attrs)
    with pytest.raises(UnknownAttribute):
        is_redundant(table, "p", ["p", "q", "d"])


@given(tables(), st.data())
@settings(max_examples=150, deadline=None)
def test_shared_grouping_matches_direct_grouping(table, data):
    """``meet`` and ``decision_partition`` both group through one routine, so
    each is checked here by a construction that does not use it."""
    n = table.object_count
    cond = list(conditional_attributes(table))
    p = ind_partition(table, data.draw(st.lists(st.sampled_from(cond), unique=True)))
    q = ind_partition(table, data.draw(st.lists(st.sampled_from(cond), unique=True)))
    dec = decision_partition(table)
    for other in (q, dec):
        pairwise = [a & b for a in p.blocks for b in other.blocks if a & b]
        assert meet(p, other) == Partition.from_blocks(pairwise, n)

    if table.decision is None:
        classes = [[i] for i in range(n)]
    else:
        col = table.attributes.index(table.decision)
        by_value: dict[str, list[int]] = {}
        for i, row in enumerate(table.rows):
            by_value.setdefault(row[col], []).append(i)
        classes = list(by_value.values())
    assert dec == Partition.from_blocks([ObjectSet.from_indices(c, n) for c in classes], n)


@given(tables_with_redundant_columns())
@settings(max_examples=200, deadline=None)
def test_exhaustive_reducts_match_plain_enumeration(table):
    reducts = exhaustive_reducts(table)
    assert set(reducts) == minimal_preserving_subsets_oracle(table)
    core = core_attributes(table)
    assert all(core <= r for r in reducts)


def _first_seen_numbering(keys) -> list[int]:
    """``keys`` renumbered by first occurrence: equal exactly when two key
    lists group the objects alike."""
    ids: dict[object, int] = {}
    return [ids.setdefault(key, len(ids)) for key in keys]


@given(tables_with_redundant_columns(), st.data())
@settings(max_examples=200, deadline=None)
def test_leave_one_out_matches_direct_projections(table, data):
    attrs = data.draw(st.permutations(conditional_attributes(table)))
    walk = _leave_one_out(table, attrs)
    full = next(walk)
    assert _first_seen_numbering(full) == _first_seen_numbering(projections(table, attrs))
    kept: list[str] = []
    keep = True
    for i, attribute in enumerate(attrs):
        # ``None`` advances with plain next(), which must keep the attribute.
        keys = next(walk) if keep is None else walk.send(keep)
        expected = kept + list(attrs[i + 1:])
        assert _first_seen_numbering(keys) == _first_seen_numbering(projections(table, expected))
        assert len(set(keys)) == block_count(table, expected)
        keep = data.draw(st.none() | st.booleans())
        if keep is not False:
            kept.append(attribute)


def _identity_table(n: int, m: int, k: int):
    rng = random.Random(f"refine-guard/{n}/{m}/{k}")
    return make_table([[str(rng.randrange(k)) for _ in range(m)] for _ in range(n)],
                      [f"c{i + 1}" for i in range(m)])


def test_eliminate_refinements_grow_linearly_in_attributes(monkeypatch):
    """Rank, eliminate and verify each make one leave-one-out walk of O(m)
    refinements; a rebuilt projection per candidate would make O(m²)."""
    calls = 0
    refine = partition._refine

    def counting_refine(*args):
        nonlocal calls
        calls += 1
        return refine(*args)

    monkeypatch.setattr(partition, "_refine", counting_refine)
    counts = []
    for m in (8, 16):
        calls = 0
        eliminate(_identity_table(300, m, 3))
        counts.append(calls)
    # Per walk over r attributes: r suffix refinements and r - 1 prefix ones.
    # Here nothing is redundant at m = 8, so all three walks cover 8.
    assert counts[0] == 45
    assert counts[1] <= 2.2 * counts[0]
