"""The projection-count kernel checked against the partition and topology
reference paths, significance and the ranking checked against the gamma
drop, the leave-one-out walk checked against direct projections,
the shared grouping routine checked against direct grouping, and the
exhaustive oracle checked against plain subset enumeration, on random tables
with duplicate rows, under both decision policies.  The kernel walks a
table's distinct conditional rows, so it is also checked against the
per-object partitions on tables of a few rows repeated many times, and a
work guard pins that it refines those rows, not the objects."""

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
    load_csv,
    meet,
    minimal_neighborhoods,
    rank_attributes,
    significance,
    subbase_of,
)
import reduct_forge.dataset as dataset
import reduct_forge.partition as partition
import reduct_forge.reduct as reduct
from reduct_forge.partition import _leave_one_out, block_count, dependency, projections

from conftest import make_table, minimal_preserving_subsets_oracle


@st.composite
def tables(draw, max_repeats=None):
    """Rows drawn from a small pool, so duplicate rows are common; a named
    decision column may give duplicates different decisions.

    With ``max_repeats``, every pool row appears 1 to ``max_repeats`` times,
    in shuffled order.  Under a named decision its copies either share one
    decision or draw their own, so the table has repeats with equal and with
    conflicting decisions."""
    m = draw(st.integers(1, 5))
    pool = draw(st.lists(st.lists(st.sampled_from("012"), min_size=m, max_size=m),
                         min_size=1, max_size=6))
    attrs = [f"c{i + 1}" for i in range(m)]
    if max_repeats is not None:
        named = draw(st.booleans())
        rows = []
        for row in pool:
            copies = draw(st.integers(1, max_repeats))
            if named and draw(st.booleans()):
                decisions = draw(st.lists(st.sampled_from("xyz"), min_size=copies,
                                          max_size=copies))
            else:
                decisions = [draw(st.sampled_from("xyz"))] * copies
            rows += [row + [d] if named else row for d in decisions]
        rows = draw(st.permutations(rows))
        if named:
            return make_table(rows, attrs + ["d"], decision="d")
        return make_table(rows, attrs)
    rows = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
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
            projections(table, attrs)
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
    """The walk yields, for the full set and each leave-one-out set, keys
    that group the view's granules as that set does: on the per-object view
    they number the objects as ``projections`` does, and on the granule view
    the kernel walks they have the block count of the set's partition."""
    attrs = data.draw(st.permutations(conditional_attributes(table)))
    # ``None`` advances with plain next(), which must keep the attribute.
    keeps = data.draw(st.lists(st.none() | st.booleans(),
                               min_size=len(attrs), max_size=len(attrs)))
    objects = partition._objects(table)
    for view in (objects, table._granules):
        walk = _leave_one_out(view, attrs)
        yields = [(next(walk), list(attrs))]
        kept: list[str] = []
        keep = True
        for i, attribute in enumerate(attrs):
            keys = next(walk) if keep is None else walk.send(keep)
            yields.append((keys, kept + list(attrs[i + 1:])))
            keep = keeps[i]
            if keep is not False:
                kept.append(attribute)
        for keys, expected in yields:
            assert len(set(keys)) == len(ind_partition(table, expected))
            if view is objects:
                assert (_first_seen_numbering(keys)
                        == _first_seen_numbering(projections(table, expected)))


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


def _gamma_via(table, attrs):
    """The object-level reference: gamma of the indiscernibility partition."""
    return gamma(ind_partition(table, attrs), decision_partition(table))


def _assert_matches_object_level_reference(table):
    """Ranking, ``block_count``, ``dependency``, the elimination trace, the
    core and the oracle, each checked against the per-object partitions."""
    cond = conditional_attributes(table)
    full = _gamma_via(table, cond)
    full_blocks = len(ind_partition(table, cond))
    for a, value in rank_attributes(table).ranked:
        assert value == full - _gamma_via(table, [b for b in cond if b != a])
    for size in range(len(cond) + 1):
        for attrs in combinations(cond, size):
            assert block_count(table, attrs) == len(ind_partition(table, attrs))
            assert dependency(table, attrs) == _gamma_via(table, attrs)

    result = eliminate(table)
    remaining = list(cond)
    for entry in result.trace:
        candidate = [a for a in remaining if a != entry.attribute]
        after = len(ind_partition(table, candidate))
        assert (entry.base_size_before, entry.base_size_after) == (full_blocks, after)
        assert entry.verdict == ("redundant" if after == full_blocks else "kept")
        if after == full_blocks:
            remaining = candidate
    assert tuple(remaining) == result.reduct
    assert result.verified_minimal

    core = {a for a in cond
            if len(ind_partition(table, [b for b in cond if b != a])) != full_blocks}
    assert core_attributes(table) == core
    assert set(exhaustive_reducts(table)) == minimal_preserving_subsets_oracle(table)


@given(tables(max_repeats=40))
@settings(max_examples=100, deadline=None)
def test_kernel_on_repeated_rows_matches_object_level_reference(table):
    """The kernel walks the table's distinct conditional rows, weighted by
    their object counts; on tables of few rows repeated many times each of
    its answers is checked against the per-object partitions."""
    _assert_matches_object_level_reference(table)


@pytest.mark.parametrize("decision", [None, "d"])
def test_kernel_keeps_objects_when_few_rows_repeat(decision):
    """Under one repeat in 16 rows the view keeps every object as a granule
    of its own, repeats included, and the answers still match."""
    rng = random.Random("few-repeats")
    distinct: set[tuple[str, ...]] = set()
    while len(distinct) < 195:
        distinct.add(tuple(str(rng.randrange(3)) for _ in range(7)))
    rows = sorted(distinct)
    rows += rows[:5]
    rng.shuffle(rows)
    attrs = [f"c{i + 1}" for i in range(7)]
    if decision is None:
        table = make_table([list(r) for r in rows], attrs)
    else:
        table = make_table([[*r, rng.choice("xy")] for r in rows], attrs + ["d"], decision="d")
    view = table._granules
    assert len(view.labels) == 200 and view.weights is None
    _assert_matches_object_level_reference(table)


@given(tables(max_repeats=40).filter(lambda t: t.decision is not None),
       st.sampled_from([2, 3]))
@settings(max_examples=100, deadline=None)
def test_significance_unchanged_when_every_row_repeats(table, times):
    """Under a named decision, repeating every row scales each positive
    region and the universe alike, so no significance moves."""
    repeated = make_table([list(row) for row in table.rows for _ in range(times)],
                          list(table.attributes), decision="d")
    assert rank_attributes(repeated).ranked == rank_attributes(table).ranked


def _repeated_rows_table(n: int, distinct: int):
    rng = random.Random(f"granule-guard/{n}/{distinct}")
    pool = set()
    while len(pool) < distinct:
        pool.add(tuple(str(rng.randrange(3)) for _ in range(6)))
    pool = sorted(pool)
    rows = [[*pool[i % distinct], rng.choice("xyz")] for i in range(n)]
    rng.shuffle(rows)
    return make_table(rows, [f"c{i + 1}" for i in range(6)] + ["d"], decision="d")


def test_kernel_refines_granules_not_objects(monkeypatch):
    """Every refinement made by ``eliminate`` and ``exhaustive_reducts``
    walks the 12 distinct conditional rows, keys and codes alike, not the 600
    objects, and one
    ``eliminate`` call builds the granule view once."""
    sizes = []
    builds = 0
    refine, granulate = partition._refine, partition._granulate

    def recording_refine(view, keys, name):
        sizes.append((len(view.labels), len(keys)))
        return refine(view, keys, name)

    def counting_granulate(table):
        nonlocal builds
        builds += 1
        return granulate(table)

    monkeypatch.setattr(partition, "_refine", recording_refine)
    monkeypatch.setattr(reduct, "_refine", recording_refine)
    monkeypatch.setattr(partition, "_granulate", counting_granulate)
    eliminate(_repeated_rows_table(600, 12))
    assert builds == 1
    assert sizes and set(sizes) == {(12, 12)}
    sizes.clear()
    exhaustive_reducts(_repeated_rows_table(600, 12))
    assert sizes and set(sizes) == {(12, 12)}


@pytest.mark.parametrize("decision", [None, "d"])
def test_ranking_and_elimination_build_no_per_object_codes(monkeypatch, decision):
    """On a factorized table the kernel folds the stored distinct rows, so
    ranking and elimination never derive per-object code columns; deriving
    them would cost what factorizing saved."""
    rows = _repeated_rows_table(600, 12).rows
    csv = "\n".join(["id,c1,c2,c3,c4,c5,c6,d"]
                     + [",".join([f"o{i}", *row]) for i, row in enumerate(rows)])
    calls = 0
    object_codes = dataset._Rows.object_codes

    def counting(self):
        nonlocal calls
        calls += 1
        return object_codes(self)

    monkeypatch.setattr(dataset._Rows, "object_codes", counting)
    table = load_csv(csv, decision=decision)
    assert table.rows.index is not None and len(table.rows.weights) < 600
    rank_attributes(table)
    eliminate(table)
    assert calls == 0
    ind_partition(table, ["c1"])  # the per-object reference path derives them
    assert calls == 1
