"""The projection-count kernel checked against the partition and topology
reference paths, significance and the ranking checked against the gamma
drop, the leave-one-out walk checked against the granules' code tuples,
the shared grouping routine checked against direct grouping, the
elimination pass checked against block counts, and the exhaustive oracle
checked against plain subset enumeration, on random tables
with duplicate rows, under both decision policies.  The per-object
partitions that the kernel is checked against are themselves checked
against plain groupings of the row tuples.  The kernel walks a
table's stored distinct rows, folded on their conditional codes when that
pays, so it is also checked against the per-object partitions on tables of
a few rows repeated many times, and a work guard pins that it refines
those rows, not the objects.  Its keys are mixed-radix numbers renumbered
before they pass one int digit, so wide tables check the walk across that
switch and a guard pins the bound.  A dense grouping packs its keys into
one int, so a differential checks packed splits, count scans and witness
scans against plain per-granule lists, and a guard pins that a dense
refinement the distinct-key bound leaves uncounted spells out no list."""

from __future__ import annotations

import ast
import random
import sys
import weakref
from bisect import bisect_left
from collections import Counter
from collections.abc import Sequence
from fractions import Fraction
from itertools import combinations, product
from math import prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reduct_forge import (
    CountSplit,
    ObjectSet,
    Partition,
    ReductResult,
    SetFamily,
    ThresholdSplit,
    TraceEntry,
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
    split_groups,
    subbase_of,
)
import reduct_forge.cli as cli
import reduct_forge.dataset as dataset
import reduct_forge.kernel as kernel
import reduct_forge.partition as partition
import reduct_forge.reduct as reduct
from reduct_forge.kernel import _grouping, _without_each, _witness, block_count
from reduct_forge.partition import projections
from reduct_forge.significance import dependency

from conftest import grouping_oracle, make_table, minimal_preserving_subsets_oracle

# Every attribute but c is core, and e, ranked after c, has fewer blocks
# without c than it has in C - e.
ONE_NON_CORE = Path(__file__).parent / "data" / "one_non_core.csv"


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


_ELIMINATION_CASES = ("none", "first", "several", "after kept", "kept, then several")


@st.composite
def elimination_tables(draw, case=None):
    """Tables on which ``eliminate`` meets each of ``_ELIMINATION_CASES``: no
    removal, one removal at the first candidate, several from the first
    candidate on, and one or several after a kept candidate.  The case is
    ``case`` when it is given, and drawn otherwise.

    Each base attribute gets a witness row that differs from another row in
    that attribute only, so it stays indispensable; the removals are then
    exactly the copied or constant columns shuffled in, as many as the case
    drawn asks for.  For removals after a kept candidate, a column ``s``
    comes first that splits only a block of two equal rows with one named
    decision: it ranks first at significance 0 and is kept."""
    m = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(st.sampled_from("012"), min_size=m, max_size=m),
                         min_size=1, max_size=6))
    for i in range(m):
        witness = list(draw(st.sampled_from(rows)))
        witness[i] = "9"
        rows.append(witness)
    if case is None:
        case = draw(st.sampled_from(_ELIMINATION_CASES))
    removals = draw(st.integers(2, 3)) if "several" in case else int(case != "none")
    split = "kept" in case
    named = split or draw(st.booleans())
    if split:
        rows += [["8"] * m] * 2
    columns = [tuple(column) for column in zip(*rows)]
    for _ in range(removals):
        source = draw(st.none() | st.sampled_from(range(len(columns))))
        columns.append(("k",) * len(rows) if source is None else columns[source])
    columns = draw(st.permutations(columns))
    attrs = [f"c{i + 1}" for i in range(len(columns))]
    if split:
        columns.insert(0, ("0",) * (len(rows) - 1) + ("1",))
        attrs.insert(0, "s")
    rows = [list(row) for row in zip(*columns)]
    if not named:
        return make_table(rows, attrs)
    decisions = draw(st.lists(st.sampled_from("xy"), min_size=len(rows), max_size=len(rows)))
    if split:
        decisions[-1] = decisions[-2]
    return make_table([r + [d] for r, d in zip(rows, decisions)], attrs + ["d"], decision="d")


def _eliminate_by_block_counts(table, policy):
    """``eliminate`` by ``block_count`` alone: the ranked-order backward
    elimination, each candidate's count that of the kept attributes ranked
    before it and all ranked after it, then the result checked minimal by
    dropping each of its attributes in turn."""
    cond = conditional_attributes(table)
    grouping = split_groups(rank_attributes(table), policy)
    ranked = grouping.attributes
    full_count = block_count(table, cond)
    removed, trace = [], []
    for i, (attribute, sig) in enumerate(grouping.ranked):
        candidate_count = block_count(table, [a for a in ranked[:i] if a not in removed]
                                      + list(ranked[i + 1:]))
        redundant = candidate_count == full_count
        trace.append(TraceEntry(
            attribute=attribute, significance=sig,
            group="low" if attribute in grouping.low_group else "high",
            verdict="redundant" if redundant else "kept",
            base_size_before=full_count, base_size_after=candidate_count))
        if redundant:
            removed.append(attribute)
    reduct = tuple(a for a in cond if a not in removed)
    minimal = block_count(table, reduct) == full_count and all(
        block_count(table, [b for b in reduct if b != a]) != full_count for a in reduct)
    return ReductResult(reduct, tuple(removed), tuple(trace), minimal)


def _elimination_case(result) -> str:
    """Which of ``_ELIMINATION_CASES`` a result's verdicts show: no removal,
    or one or several removals, the first of them at the first candidate
    or after a kept one."""
    verdicts = [entry.verdict for entry in result.trace]
    removals = verdicts.count("redundant")
    if removals == 0:
        return "none"
    if verdicts[0] == "redundant":
        return "first" if removals == 1 else "several"
    return "after kept" if removals == 1 else "kept, then several"


_CORE_CASES = ("no non-core", "one non-core", "non-core kept", "empty core")

# (table, split count) pairs that show every elimination and core case.
_ELIMINATION_EXAMPLES = (
    # p and q are both core: no removal.
    (make_table([["0", "0"], ["1", "0"], ["0", "1"]], ["p", "q"]), 5),
    # A copied pair, so an empty core: the first candidate goes, its copy
    # stays.
    (make_table([["0", "0"], ["1", "1"]], ["p", "q"]), 5),
    # s splits only a block of one decision, so it is kept first; then one
    # of the copies p and q goes.
    (make_table([["0", "0", "0", "x"], ["1", "0", "0", "x"], ["0", "1", "1", "y"]],
                ["s", "p", "q", "d"], decision="d"), 5),
    # Three copies: two go, from the first candidate on.
    (make_table([["0", "0", "0"], ["1", "1", "1"]], ["p", "q", "r"]), 1),
    # s kept, then two of three copies go.
    (make_table([["0", "0", "0", "0", "x"], ["1", "0", "0", "0", "x"],
                 ["0", "1", "1", "1", "y"]], ["s", "p", "q", "r", "d"], decision="d"), 5),
    # One non-core attribute, ranked between core ones.
    (load_csv(ONE_NON_CORE.read_text(), decision="d"), 5),
)


def _core_cases(table, result) -> list[str]:
    """Which of ``_CORE_CASES`` a table and its result show: every attribute
    core, exactly one not, a non-core attribute kept after the first
    removal (one of a copied pair), or no core attribute at all."""
    cond = conditional_attributes(table)
    non_core = set(cond) - core_attributes(table)
    cases = []
    if not non_core:
        cases.append("no non-core")
    if len(non_core) == 1:
        cases.append("one non-core")
    if non_core & set(result.reduct):
        cases.append("non-core kept")
    if len(non_core) == len(cond):
        cases.append("empty core")
    return cases


def test_eliminate_matches_one_ranked_walk_and_a_separate_verify_walk():
    """``eliminate`` tests the attributes on one column-order walk and
    certifies the reduct with witness pairs; its trace ranks them when
    read, and takes its counts off one replay of the ranked-order
    elimination.  The reference counts blocks with ``block_count`` alone,
    one candidate at a time in ranked order, then drops each attribute of
    the result in turn.  Both give the same reduct, removals, trace and
    ``verified_minimal``.  A kept candidate followed by two or more
    removals is the case where the reference's minimality check measures
    sets that no walk of ``eliminate`` measured as a whole; the core
    shapes are each drawn too, the one non-core attribute ranked between
    core ones among them.  Each case has an explicit example, and one run
    of the property draws the tables of each elimination case, and one
    more the tables with redundant columns, so every case is drawn more
    than once by the strategies' construction, not by luck."""
    seen = Counter()

    def cases(table, count) -> list[str]:
        cond = conditional_attributes(table)
        policy = CountSplit(count) if count <= len(cond) else ThresholdSplit()
        result = eliminate(table, policy)
        assert result == _eliminate_by_block_counts(table, policy)
        return [_elimination_case(result), *_core_cases(table, result)]

    for args in _ELIMINATION_EXAMPLES:
        cases(*args)
    for strategy in [*map(elimination_tables, _ELIMINATION_CASES),
                     tables_with_redundant_columns()]:
        @given(strategy, st.integers(0, 5))
        @settings(max_examples=40, deadline=None)
        def check(table, count):
            seen.update(cases(table, count))

        check()
    assert all(seen[case] > 1 for case in _ELIMINATION_CASES + _CORE_CASES), seen


def _column_order_removals(table) -> tuple[str, ...]:
    """The backward elimination of the conditional attributes in column
    order, by ``block_count`` alone: each is dropped from the kept set when
    the rest keeps the block count of all of them."""
    cond = conditional_attributes(table)
    full = block_count(table, cond)
    kept, removed = list(cond), []
    for attribute in cond:
        rest = [a for a in kept if a != attribute]
        if block_count(table, rest) == full:
            kept, removed = rest, removed + [attribute]
    return tuple(removed)


def test_significance_order_leaves_the_reduct_to_column_order():
    """Every attribute outside the core has significance exactly 0: its
    removal keeps the partition of all attributes, so the positive region
    too.  The ranking sorts stably, so those come in column order, and
    ``eliminate``'s removals are the column-order backward elimination,
    under the threshold split and every count split.  Checked against a
    reference that uses ``block_count`` alone, on tables with and without
    a named decision, both of which are drawn."""
    seen = Counter()

    @given(tables() | elimination_tables())
    @settings(max_examples=200, deadline=None)
    def check(table):
        cond = conditional_attributes(table)
        core = core_attributes(table)
        assert all(value == 0 for a, value in rank_attributes(table).ranked if a not in core)
        removals = _column_order_removals(table)
        for policy in [ThresholdSplit(), *map(CountSplit, range(len(cond) + 1))]:
            assert eliminate(table, policy).removed == removals
        seen["identity" if table.decision is None else "named"] += 1

    check()
    assert seen["identity"] > 1 and seen["named"] > 1, seen


def _differing(view, attrs, pair) -> list[str]:
    """The attributes of ``attrs`` on which the two granules of ``pair``
    have different codes."""
    x, y = pair
    return [a for a in attrs if view.columns[a][0][x] != view.columns[a][0][y]]


@given(tables(), st.data())
@settings(max_examples=150, deadline=None)
def test_witness_pair_exists_exactly_when_an_attribute_splits_a_block(table, data):
    """``_witness`` of the grouping by a set S beside the one-block
    grouping finds two granules in one block of S that differ on ``a``,
    and finds none exactly when adding ``a`` to S splits no block."""
    cond = list(conditional_attributes(table))
    attrs = data.draw(st.lists(st.sampled_from(cond), unique=True))
    name = data.draw(st.sampled_from(cond))
    view = table._granules
    pair = _witness(_grouping(view, ()), _grouping(view, attrs), name)
    splits = block_count(table, attrs + [name]) != block_count(table, attrs)
    assert (pair is not None) == splits
    if pair is not None:
        assert _differing(view, attrs, pair) == []
        assert _differing(view, [name], pair) == [name]


@given(elimination_tables() | tables_with_redundant_columns(), st.integers(0, 5))
@settings(max_examples=150, deadline=None)
def test_kept_attributes_carry_witness_pairs(table, count):
    """The elimination pass gives each kept attribute ``a`` a witness pair
    whose codes agree on every reduct attribute but ``a`` and differ on
    ``a``; redundant attributes get no pair, and the pairs certify the
    result.  Its removals are the lazy trace's redundant verdicts, and each
    trace count, which reading the trace makes, is the block count of the
    ranked-order pass's candidate: C without ``a`` and without the removals
    ranked before ``a``.  The trace's rule rests on two facts,
    checked too: every removed attribute has significance 0, and every
    attribute of positive significance ranks after the last removal."""
    cond = conditional_attributes(table)
    policy = CountSplit(count) if count <= len(cond) else ThresholdSplit()
    result = eliminate(table, policy)
    ranked = split_groups(rank_attributes(table), policy).ranked
    full_count, removed, witnesses = table._elimination
    assert full_count == block_count(table, cond)
    assert tuple(removed) == result.removed
    assert removed == [entry.attribute for entry in result.trace
                       if entry.verdict == "redundant"]
    assert [entry.attribute for entry in result.trace] == [a for a, _ in ranked]
    for i, entry in enumerate(result.trace):
        earlier = {a for a, _ in ranked[:i] if a in removed}
        candidate = [a for a in cond if a != entry.attribute and a not in earlier]
        assert entry.base_size_after == block_count(table, candidate)
    last = max((i for i, (a, _) in enumerate(ranked) if a in removed), default=-1)
    assert all(sig == 0 for a, sig in ranked if a in removed)
    assert all(i > last for i, (_, sig) in enumerate(ranked) if sig > 0)
    assert set(witnesses) == set(result.reduct)
    view = table._granules
    for name, pair in witnesses.items():
        assert _differing(view, result.reduct, pair) == [name]
    assert result.verified_minimal
    assert kernel._alone(view, result.reduct, witnesses) == set(result.reduct)


def test_certificate_rejects_a_reduct_that_keeps_a_copied_column():
    """A hand-made R that keeps a column and its copy: dropping either copy
    merges no blocks, so the witness search finds no pair for either and
    the certificate reports false.  The pass itself keeps one copy, which
    its pairs certify."""
    rng = random.Random("copied-column")
    rows = [[rng.choice("012") for _ in range(4)] for _ in range(40)]
    table = make_table([row + [row[1]] for row in rows], ["c1", "c2", "c3", "c4", "c5"])
    view = table._granules
    result = eliminate(table)
    assert result.verified_minimal
    assert len({"c2", "c5"} & set(result.reduct)) == 1
    kept = [a for a in conditional_attributes(table) if a in result.reduct or a in ("c2", "c5")]
    one = _grouping(view, ())
    witnesses = {a: _witness(one, _grouping(view, [b for b in kept if b != a]), a)
                 for a in kept}
    assert witnesses["c2"] is None and witnesses["c5"] is None
    assert kernel._alone(view, kept, witnesses) != set(kept)
    # Given pairs for the copies from elsewhere, the check on raw codes
    # still fails: any pair that differs on one copy differs on the other.
    others = _grouping(view, [b for b in kept if b not in ("c2", "c5")])
    for a in ("c2", "c5"):
        witnesses[a] = _witness(one, others, a)
    assert witnesses["c2"] is not None
    assert kernel._alone(view, kept, witnesses) != set(kept)


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


def _first_seen_numbering(keys) -> list[int]:
    """``keys`` renumbered by first occurrence: equal exactly when two key
    lists group the objects alike."""
    ids: dict[object, int] = {}
    return [ids.setdefault(key, len(ids)) for key in keys]


def _spelled_out(labels) -> list[int]:
    """A walk's grouping as one first-seen number per granule: the stripped
    form's retained rows keep their keys, and every other granule, alone
    in its block, gets a key of its own."""
    if labels.rows is None:
        return _first_seen_numbering(labels.keys)
    keys: list[object] = [("alone", g) for g in range(len(labels.view.labels))]
    for row, key in zip(labels.rows, labels.keys):
        keys[row] = key
    return _first_seen_numbering(keys)


@st.composite
def stripping_tables(draw):
    """Tables on whose walks the label lists switch to the stripped form
    mid-walk: 8 to 60 distinct rows of 6 to 14 columns of 2 or 3 values,
    so that most rows are alone in their block after a few attributes but
    not after one.  Some rows come again with one cell padded by
    whitespace, which the loader stores as a row of its own with the same
    codes.  Under the identity decision some lines also repeat exactly;
    under a named decision fewer than one row in 16 repeats, so the rows
    stay unfolded and twins may disagree on the decision."""
    rng = draw(st.randoms(use_true_random=False))
    m, k = draw(st.integers(6, 14)), draw(st.sampled_from([2, 3]))
    n = draw(st.integers(8, 60))
    distinct: dict[tuple[str, ...], None] = {}
    while len(distinct) < n:
        distinct[tuple(str(rng.randrange(k)) for _ in range(m))] = None
    rows = [list(row) for row in distinct]
    named = draw(st.booleans())
    twins = draw(st.integers(0, (n - 1) // 16 if named else n // 4))
    for _ in range(twins):
        row = list(rng.choice(rows[:n]))
        j = rng.randrange(m)
        row[j] = rng.choice([" {}", "{} ", "\t{}"]).format(row[j])
        rows.append(row)
    if not named:
        rows += [rng.choice(rows) for _ in range(draw(st.integers(0, 3)))]
    rng.shuffle(rows)
    header = [f"c{i + 1}" for i in range(m)]
    if named:
        rows = [row + [rng.choice("xyz")] for row in rows]
        header.append("d")
    text = "\n".join(",".join(row) for row in [header] + rows)
    return load_csv(text, decision="d" if named else None)


@given(tables_with_redundant_columns() | stripping_tables(), st.data())
@settings(max_examples=200, deadline=None)
def test_leave_one_out_matches_direct_projections(table, data):
    """The one leave-one-out walk reads, for the full set and each
    leave-one-out set, a grouping of the view's granules as that set groups
    them, with that set's block count and |POS|: it groups the granules as
    their code tuples over that set do, through the stripped form too.  It
    walks all of the set, as the table walk and the trace's replay do, or
    some of it from the grouping by the rest, as the core's walk does, with
    drawn removals dropped from its prefix."""
    _assert_walk_matches_projections(table, *_drawn_walk(data, table))


def _drawn_walk(data, table) -> tuple[list[str], list[str], list[str]]:
    """A permutation of the conditional attributes, the attributes to walk
    (all of them, or some in any order) and the removals among those."""
    attrs = data.draw(st.permutations(conditional_attributes(table)))
    walked = data.draw(st.just(attrs) | st.lists(st.sampled_from(attrs), unique=True))
    removed = data.draw(st.lists(st.sampled_from(walked), unique=True)) if walked else []
    return attrs, walked, removed


def _assert_walk_matches_projections(table, attrs, walked, removed):
    """Walk ``walked`` within ``attrs`` on the granule view, with
    ``removed`` dropped from the prefix, and check the full set's reading
    and each candidate's against the granules' code tuples,
    ``ind_partition`` and ``gamma`` of its attribute set."""
    view = table._granules
    full, without = _without_each(view, attrs, walked, removed, read=lambda labels: labels)
    assert len(without) == len(walked)
    rest = [a for a in attrs if a not in walked]
    readings = [(full, list(attrs))]
    kept: list[str] = []
    for i, attribute in enumerate(walked):
        readings.append((without[i], rest + kept + list(walked[i + 1:])))
        if attribute not in removed:
            kept.append(attribute)
    for labels, expected in readings:
        assert labels.blocks == len(ind_partition(table, expected))
        assert Fraction(labels.positive, table.object_count) == _gamma_via(table, expected)
        assert _spelled_out(labels) == _first_seen_numbering(_code_tuples(view, expected))
        if labels.rows is not None:
            assert labels.rows == sorted(set(labels.rows))


def _code_tuples(view, attrs) -> list[tuple[int, ...]]:
    """Each granule's codes over ``attrs``, read straight from
    ``view.columns``: equal exactly when ``attrs`` do not tell two granules
    apart."""
    return list(zip(*(view.columns[a][0] for a in attrs))) if attrs else [()] * len(view.labels)


def _identity_table(n: int, m: int, k: int):
    rng = random.Random(f"refine-guard/{n}/{m}/{k}")
    return make_table([[str(rng.randrange(k)) for _ in range(m)] for _ in range(n)],
                      [f"c{i + 1}" for i in range(m)])


def test_leave_one_out_stops_at_its_last_candidate(monkeypatch):
    """A walk over r attributes makes r suffix splits and r - 1 prefix
    splits: no prefix is read after the last candidate, so none is made.
    The call returns the full grouping and one per candidate.  Two of the
    21 stored rows differ only in their decision, too few repeats to fold,
    so that pair shares every block and no list strips to empty."""
    calls = 0
    split = kernel._split

    def counting_split(labels, name):
        nonlocal calls
        calls += 1
        return split(labels, name)

    monkeypatch.setattr(kernel, "_split", counting_split)
    rng = random.Random("walk-stops")
    rows = [[*row, rng.choice("xy")] for row in rng.sample(sorted(product("012", repeat=5)), 20)]
    rows.append([*rows[0][:5], "z"])
    table = make_table(rows, [f"c{i + 1}" for i in range(5)] + ["d"], decision="d")
    view = table._granules
    assert len(view.labels) == 21
    cond = conditional_attributes(table)
    full, without = _without_each(view, cond, cond, read=lambda labels: labels)
    walk = [full, *without]
    assert len(walk) == 6
    assert all(labels.rows != [] for labels in walk)
    assert calls == 5 + 4


def test_eliminate_refinements_grow_linearly_in_attributes(monkeypatch):
    """Each leave-one-out walk makes O(m) refinements; a rebuilt projection
    per candidate would make O(m²).  Ranking makes the table walk and
    ``eliminate`` one walk of its own, so the growth is bounded on each."""
    calls = 0
    split = kernel._split

    def counting_split(labels, name):
        # A list whose granules are all alone comes back as it is, unrefined.
        nonlocal calls
        calls += labels.rows != []
        return split(labels, name)

    monkeypatch.setattr(kernel, "_split", counting_split)
    ranking, elimination = [], []
    for m in (8, 16):
        calls = 0
        rank_attributes(_identity_table(300, m, 3))
        ranking.append(calls)
        calls = 0
        eliminate(_identity_table(300, m, 3))
        elimination.append(calls)
    # A walk over r attributes makes r suffix refinements and at most r - 1
    # prefix ones, as it stops at its last candidate; a stripped list whose
    # granules are all alone is not refined again.
    # Every attribute is core at m = 8, so eliminate's walk keeps every
    # prefix as the table walk does; at m = 16 none is, and seven are
    # redundant, so its prefix skips their refinements.  Its witness search
    # refines nothing.
    assert ranking == [15, 23]
    assert elimination == [15, 21]
    assert ranking[1] <= 2.2 * ranking[0]
    assert elimination[1] <= 2.2 * elimination[0]


def _counted_walks(monkeypatch) -> list[int]:
    """Count every walk started from now on, in a one-item list: the
    leave-one-out walks and the elimination pass all start ``_walk``, which
    only the kernel names."""
    calls = [0]
    walk = kernel._walk

    def counting_walk(*args):
        calls[0] += 1
        return walk(*args)

    monkeypatch.setattr(kernel, "_walk", counting_walk)
    return calls


def test_table_order_walk_is_made_once_per_table(monkeypatch):
    """A table keeps its table-order leave-one-out walk, which only ranking
    reads, and its column-order elimination pass, which ``eliminate``, the
    core and the oracle read, whatever the core (all of the attributes at
    m = 8, eight of ten at m = 10, none at m = 16).  ``eliminate``
    certifies its result with witness pairs, not a walk, and at m = 8 every
    kept attribute's pair differs on it alone, so the core needs no walk of
    its own.  So the oracle then ``eliminate``, as ``reduct --exhaustive``
    runs them, make one walk, and ranking, the core and the oracle two."""
    calls = _counted_walks(monkeypatch)

    def walks(m, *steps) -> int:
        calls[0] = 0
        table = _identity_table(300, m, 3)
        for step in steps:
            step(table)
        return calls[0]

    assert walks(8, exhaustive_reducts, eliminate) == 1
    assert walks(8, rank_attributes, core_attributes, exhaustive_reducts) == 2
    assert walks(8, eliminate) == 1
    assert walks(10, eliminate) == 1
    assert walks(16, eliminate) == 1


def _one_non_core_table():
    """``_identity_table(300, 8, 3)``, whose attributes are all core, with a
    constant column ``k`` added: its one non-core attribute."""
    base = _identity_table(300, 8, 3)
    return make_table([[*row, "k"] for row in base.rows], [*base.attributes, "k"])


def _counted_rankings(monkeypatch) -> list[int]:
    """Count the calls of ``rank_attributes`` that ``reduct`` makes from now
    on, in a one-item list, by the name ``reduct`` reads it through."""
    calls = [0]
    rank = reduct.rank_attributes

    def counting_rank(table):
        calls[0] += 1
        return rank(table)

    monkeypatch.setattr(reduct, "rank_attributes", counting_rank)
    return calls


def test_eliminate_makes_one_walk_and_ranks_only_when_its_trace_is_read(monkeypatch):
    """``eliminate`` makes one walk, over the conditional attributes in
    column order, and neither ranks them nor makes the table walk, so with
    its trace unread a call is one walk and no ranking.  Reading the trace
    ranks once, which makes the table walk, whose counts serve when nothing
    was removed.  After a removal every count comes from one replay of the
    ranked-order elimination, whatever the significance of the kept
    attributes.  Here the m = 8 table removes nothing; the one-column-added
    table keeps only attributes of positive significance; the m = 10 table
    keeps both kinds; the m = 16 table has an empty core, so every
    significance is 0; and the one-class decision table keeps a core
    attribute ``s`` of significance 0 after the removal of ``p``, a copy of
    ``q``."""
    walked = _counted_walks(monkeypatch)
    ranked = _counted_rankings(monkeypatch)
    one_class = make_table([["0", "0", "0", "x"], ["1", "1", "0", "x"], ["0", "0", "1", "x"],
                            ["1", "1", "1", "x"]], ["p", "q", "s", "d"], decision="d")
    tables = [(_one_non_core_table(), 2), (_identity_table(300, 8, 3), 1),
              (_identity_table(300, 10, 3), 2), (_identity_table(300, 16, 3), 2),
              (one_class, 2)]
    for table, trace_walks in tables:
        walked[0] = ranked[0] = 0
        cond = conditional_attributes(table)
        result = eliminate(table)
        assert len(result.trace) == len(cond)
        assert (walked[0], ranked[0]) == (1, 0)
        entries = tuple(result.trace)
        assert (walked[0], ranked[0]) == (1 + trace_walks, 1)
        assert result.trace == entries and (walked[0], ranked[0]) == (1 + trace_walks, 1)
    table = _one_non_core_table()
    assert core_attributes(table) == set(conditional_attributes(table)) - {"k"}
    assert eliminate(table).removed == ("k",)
    assert core_attributes(one_class) == {"s"} and eliminate(one_class).removed == ("p",)
    assert [(a, sig) for a, sig in rank_attributes(one_class).ranked] == [
        ("p", 0), ("q", 0), ("s", 0)]


def test_reading_the_trace_walks_once_beyond_ranking_after_a_removal(monkeypatch):
    """Reading ``eliminate``'s trace makes the table walk that ranking
    reads and, when something was removed, one walk more, the replay of the
    ranked-order elimination; with no removal it makes no walk of its own.
    Both cases are drawn."""
    walked = _counted_walks(monkeypatch)
    seen = Counter()

    @given(elimination_tables() | tables_with_redundant_columns(), st.integers(0, 5))
    @settings(max_examples=150, deadline=None)
    def check(table, count):
        cond = conditional_attributes(table)
        result = eliminate(table, CountSplit(count) if count <= len(cond) else ThresholdSplit())
        walked[0] = 0
        tuple(result.trace)
        assert walked[0] == 1 + bool(result.removed)
        seen[bool(result.removed)] += 1

    check()
    assert seen[True] > 1 and seen[False] > 1, seen


def test_unread_trace_holds_the_table_until_it_is_read_or_dropped(monkeypatch):
    """The trace ranks the attributes when it is first read, so an unread
    trace keeps its table alive, and reading it or dropping the result
    lets the table go, by its reference count, with no cycle to collect.
    Reading the trace makes the table walk and, after a removal, one walk
    more, the replay of the ranked-order elimination, both when every
    significance is 0, as with an empty core, and when the attributes of
    positive significance are all that is kept, as on the one-column-added
    table."""
    calls = _counted_walks(monkeypatch)
    for make, walks in ((lambda: _identity_table(300, 16, 3), 2), (_one_non_core_table, 2)):
        table = make()
        result = eliminate(table)
        ref = weakref.ref(table)
        del table
        assert ref() is not None
        calls[0] = 0
        assert len(tuple(result.trace)) == len(result.reduct) + len(result.removed)
        assert calls[0] == walks and ref() is None
        assert [entry.verdict for entry in result.trace].count("redundant") == len(result.removed)

    table = _identity_table(300, 16, 3)
    result = eliminate(table)
    ref = weakref.ref(table)
    del table
    assert ref() is not None
    del result
    assert ref() is None


def test_count_scans_read_only_the_rows_both_sides_keep(monkeypatch):
    """A count scan reads the rows that both sides keep, and strips none.
    On a 300 x 10 identity table the table walk pairs two sides at its 8
    middle candidates: a stripped side limits the scan to its rows, and
    two dense sides pair all 300 granules.  On a tall table of 8 binary
    attributes, whose 256 granules no side of 7 attributes leaves alone,
    every scan pairs every granule, and the grouping read off it is dense,
    unstripped and not yet counted when the walk's reader gets it."""
    scanned = []
    paired = kernel._paired

    def recording_paired(a, b):
        rows, keys, top = paired(a, b)
        sides = [len(a.view.labels) if x.rows is None else len(x.rows) for x in (a, b)]
        scanned.append((len(a.view.labels) if rows is None else len(rows), min(sides)))
        return rows, keys, top

    given = []  # each grouping the table walk's reader gets: its rows and cached count
    without_each = kernel._without_each

    def recording_without_each(*args, read):
        def recording_read(labels):
            given.append((labels.rows, labels._blocks))
            return read(labels)
        return without_each(*args, read=recording_read)

    monkeypatch.setattr(kernel, "_paired", recording_paired)
    monkeypatch.setattr(dataset, "_without_each", recording_without_each)
    _identity_table(300, 10, 3)._table_walk
    # The first and last candidates take one side.
    assert [read for read, _ in scanned] == [16, 44, 108, 300, 300, 95, 40, 10]
    assert all(read == smaller for read, smaller in scanned)

    scanned.clear()
    given.clear()
    rng = random.Random("tall-meets")
    rows = []
    for _ in range(2000):
        bits = [rng.getrandbits(1) for _ in range(8)]
        d = rng.randrange(3) if rng.random() < 0.05 else sum(bits[:3]) % 3
        rows.append([*map(str, bits), str(d)])
    table = make_table(rows, [f"x{i + 1}" for i in range(8)] + ["d"], decision="d")
    rank_attributes(table)
    assert len(table._granules.labels) == 256 and scanned == [(256, 256)] * 6
    # The readings come in walk order, the full grouping's last; the first
    # and last candidates read a split, and the six scans between them
    # reach the reader dense and uncounted.
    assert len(given) == 9
    assert all(rows is None and blocks is None for rows, blocks in given[1:7])


def test_eliminate_touches_few_granules_once_they_are_alone(monkeypatch):
    """Once most granules are alone in their block the walk drops them, so
    the granule entries that one walk's splits and pair scans may touch
    stop growing with the attribute count: a dense walk touches 300 per
    pass, 27000 at m = 10 and 108000 at m = 40.  Ranking makes the table
    walk, whose scans run to the end, and ``eliminate`` one walk of its own
    over the same attributes, whose prefix skips the removed ones and whose
    scans stop at a kept candidate's pair, so the bound is put on each.
    The splits switch from dense to stripped lists mid-walk."""
    touched = 0
    stripped = dense = 0
    witnessing = False
    split, paired, witness = kernel._split, kernel._paired, kernel._witness

    def counting_split(labels, name):
        nonlocal touched, stripped, dense
        touched += len(labels.keys)
        refined = split(labels, name)
        stripped += refined.rows is not None
        dense += refined.rows is None
        return refined

    def counting_paired(a, b):
        # A count scan reads both sides' rows to the end: a stripped side
        # limits it to its rows, and two dense sides pair every granule.
        nonlocal touched
        if not witnessing:
            sides = [len(x.rows) for x in (a, b) if x.rows is not None]
            touched += sum(sides) if sides else len(a.keys)
        return paired(a, b)

    def counting_witness(a, b, name):
        # As a count scan, but only up to the pair that stops it, and less
        # a one-block side, which the scan does not read.
        nonlocal touched, witnessing
        witnessing = True
        pair = witness(a, b, name)
        witnessing = False
        end = len(a.view.labels) if pair is None else pair[1] + 1
        read = [x for x in (a, b) if x.rows is not None or x.top > 1] or [a]
        sides = [bisect_left(x.rows, end) for x in read if x.rows is not None]
        touched += sum(sides) if sides else end
        return pair

    monkeypatch.setattr(kernel, "_split", counting_split)
    monkeypatch.setattr(kernel, "_paired", counting_paired)
    monkeypatch.setattr(kernel, "_witness", counting_witness)
    ranking, elimination = [], []
    for m in (10, 40):
        touched = 0
        rank_attributes(_identity_table(300, m, 3))
        ranking.append(touched)
        touched = 0
        eliminate(_identity_table(300, m, 3))
        elimination.append(touched)
    assert dense and stripped  # lists switch mid-walk
    # A side whose granules are all alone is read as the grouping without
    # its candidate, with no scan of the other side's rows.
    assert ranking == [4828, 3946]
    assert elimination == [4453, 4243]
    assert ranking[1] <= 1.2 * ranking[0]
    assert elimination[1] <= 1.2 * elimination[0]


def test_trace_and_core_strip_only_in_the_walks_splits(monkeypatch):
    """Reading the trace after a removal (the table walk, then the replay
    of the elimination) and ``core_attributes`` read every candidate's
    count off its pair scan, and strip a grouping only inside ``_split``,
    never once per candidate.  On the 300 x 10 and 300 x 12 identity
    tables, which remove one and three attributes and whose cores take a
    walk of their own, both steps scan some candidates."""
    inside = stray = scans = 0
    split, stripped, paired = kernel._split, kernel._stripped, kernel._paired

    def marked_split(labels, name):
        nonlocal inside
        inside += 1
        try:
            return split(labels, name)
        finally:
            inside -= 1

    def checked_stripped(*args):
        nonlocal stray
        stray += not inside
        return stripped(*args)

    def counting_paired(a, b):
        nonlocal scans
        scans += 1
        return paired(a, b)

    monkeypatch.setattr(kernel, "_split", marked_split)
    monkeypatch.setattr(kernel, "_stripped", checked_stripped)
    monkeypatch.setattr(kernel, "_paired", counting_paired)
    for m, removals in ((10, 1), (12, 3)):
        table = _identity_table(300, m, 3)
        result = eliminate(table)
        assert len(result.removed) == removals
        scans = 0
        tuple(result.trace)
        assert scans > 0 and stray == 0
        scans = 0
        core_attributes(table)
        assert scans > 0 and stray == 0


def test_refined_keys_stay_within_one_int_digit(monkeypatch):
    """Keys are mixed-radix numbers, which would reach ``3**40`` at 40
    ternary columns, so ``_split`` must renumber them before they pass
    ``2**30``."""
    largest = 0
    split = kernel._split

    def recording_split(labels, name):
        nonlocal largest
        refined = split(labels, name)
        # A list stripped of every granule keeps no key.
        largest = max(largest, *refined.keys, 0)
        return refined

    monkeypatch.setattr(kernel, "_split", recording_split)
    eliminate(_identity_table(300, 40, 3))
    assert 0 < largest < 2**30


def _side(labels) -> str:
    """The form of one side of a pair scan."""
    if labels.rows == []:
        return "all alone"
    if labels.rows is not None:
        return "stripped"
    return "one block" if labels.blocks == 1 else "dense"


def _scanned(a, b):
    """The grouping that a leave-one-out walk reads off the pair scan of
    ``a`` and ``b`` (``kernel._paired``): over the rows that both keep, by
    their keys over both sides, unstripped."""
    rows, keys, top = kernel._paired(a, b)
    return kernel._Labels(a.view, list(keys), rows, top, top)


def _assert_meet_matches_union(table, a_attrs, b_attrs) -> tuple[str, str]:
    """The pair scan of the groupings by ``a_attrs`` and ``b_attrs``, their
    meet, groups the granules as their union does, and as the granules'
    code tuples over it, with the union's block count and |POS|; the two
    sides' forms are returned."""
    view = table._granules
    a, b = _grouping(view, a_attrs), _grouping(view, b_attrs)
    union = list(dict.fromkeys([*a_attrs, *b_attrs]))
    met, direct = _scanned(a, b), _grouping(view, union)
    assert _spelled_out(met) == _spelled_out(direct)
    assert _spelled_out(met) == _first_seen_numbering(_code_tuples(view, union))
    assert met.blocks == direct.blocks == len(ind_partition(table, union))
    assert met.positive == direct.positive
    if met.rows is not None:
        assert met.rows == sorted(set(met.rows))
    return _side(a), _side(b)


@given(tables_with_redundant_columns() | stripping_tables(), st.data())
@settings(max_examples=200, deadline=None)
def test_meet_groups_as_the_union_of_its_sides(table, data):
    """For drawn A, B within C, the pair scan of the groupings by A and by
    B groups the granules as the grouping by A and B together does: dense,
    stripped, all-alone and one-block sides alike."""
    cond = conditional_attributes(table)
    subset = st.lists(st.sampled_from(cond), unique=True)
    _assert_meet_matches_union(table, data.draw(subset), data.draw(subset))


def test_meet_differential_covers_every_form_of_side():
    """On seeded tables the pair scan of every pair of prefix and suffix
    groupings matches the union, and those pairs take in a dense, a
    stripped, an all-alone and a one-block grouping on each side."""
    seen: set[tuple[str, str]] = set()
    for table in (_identity_table(60, 8, 3), _identity_table(300, 10, 3),
                  _identity_table(40, 12, 2)):
        cond = conditional_attributes(table)
        for i in range(len(cond) + 1):
            for j in range(len(cond) + 1):
                seen.add(_assert_meet_matches_union(table, cond[:i], cond[j:]))
    forms = {"dense", "stripped", "all alone", "one block"}
    assert {a for a, _ in seen} == forms and {b for _, b in seen} == forms


def _plain_witness(view, attrs, name) -> tuple[int, int] | None:
    """The first two granules, in ascending order of the second, whose code
    tuples over ``attrs`` are equal and whose codes on ``name`` differ."""
    codes = view.columns[name][0]
    first: dict[tuple[int, ...], int] = {}
    for g, key in enumerate(_code_tuples(view, attrs)):
        f = first.setdefault(key, g)
        if codes[f] != codes[g]:
            return f, g
    return None


def _assert_scan_matches_meet(table, a_attrs, b_attrs, name) -> tuple[str, str]:
    """``_witness`` of the groupings by ``a_attrs`` and ``b_attrs`` finds the
    pair that the code tuples over both sets give; the two sides' forms are
    returned."""
    view = table._granules
    a, b = _grouping(view, a_attrs), _grouping(view, b_attrs)
    assert _witness(a, b, name) == _plain_witness(view, [*a_attrs, *b_attrs], name)
    return _side(a), _side(b)


@given(tables_with_redundant_columns() | stripping_tables(), st.data())
@settings(max_examples=200, deadline=None)
def test_witness_scan_finds_the_first_pair_of_the_meet(table, data):
    """For drawn A, B within C and ``a`` in C, the scan of the groupings by
    A and by B finds the first pair of granules that share a block of both
    but differ on ``a``, as the code tuples over A and B give it: dense,
    stripped, all-alone and one-block sides alike, and twins, granules
    equal on C, among them."""
    cond = conditional_attributes(table)
    subset = st.lists(st.sampled_from(cond), unique=True)
    _assert_scan_matches_meet(table, data.draw(subset), data.draw(subset),
                              data.draw(st.sampled_from(cond)))


def test_witness_scan_covers_every_form_of_side(monkeypatch):
    """On seeded tables the scan of every pair of prefix and suffix
    groupings, for every attribute, finds the code tuples' pair, and those
    pairs take in two dense sides, a dense and a stripped one, two stripped
    ones, and an all-alone and a one-block side on each side.  Two dense sides
    are scanned through one packed int: the side whose keys reach higher
    times the other's bound plus the other's keys.  One table has twins:
    two granules equal on C that differ on the decision, too few to fold,
    so they share every block and never make a pair."""
    read: list[int] = []
    fields = kernel._fields

    def recording_fields(packed, n):
        read.append(packed)
        return fields(packed, n)

    monkeypatch.setattr(kernel, "_fields", recording_fields)
    rng = random.Random("scan-twins")
    rows = [[*row, rng.choice("xy")] for row in _identity_table(60, 8, 3).rows]
    rows += [[*rows[0][:8], "z"], [*rows[1][:8], "z"]]
    twins = make_table(rows, [f"c{i + 1}" for i in range(8)] + ["d"], decision="d")
    cond = conditional_attributes(twins)
    view = twins._granules
    assert len(set(_code_tuples(view, cond))) == len(view.labels) - 2
    seen: set[tuple[str, str]] = set()
    packed_scans = 0
    for table in (_identity_table(60, 8, 3), _identity_table(300, 10, 3),
                  _identity_table(40, 12, 2), twins):
        cond = conditional_attributes(table)
        view = table._granules
        for i in range(len(cond) + 1):
            for j in range(len(cond) + 1):
                for name in cond:
                    read.clear()
                    forms = _assert_scan_matches_meet(table, cond[:i], cond[j:], name)
                    seen.add(forms)
                    if forms == ("dense", "dense"):
                        a, b = _grouping(view, cond[:i]), _grouping(view, cond[j:])
                        high, low = (a, b) if a.top >= b.top else (b, a)
                        assert high.packed * low.top + low.packed in read
                        packed_scans += 1
    forms = {"dense", "stripped", "all alone", "one block"}
    assert {a for a, _ in seen} == forms and {b for _, b in seen} == forms
    pairs = {frozenset(pair) for pair in seen}
    assert {frozenset({"dense"}), frozenset({"dense", "stripped"}),
            frozenset({"stripped"})} <= pairs
    assert packed_scans > 0



@given(elimination_tables() | tables_with_redundant_columns())
@settings(max_examples=150, deadline=None)
def test_elimination_matches_a_block_count_reference(table):
    """The pass removes exactly the candidates whose removal keeps C's block
    count, in column order, and gives each kept candidate the first pair,
    by code tuples, of the set that it tested: the kept attributes before
    it and all after it."""
    cond = conditional_attributes(table)
    full = block_count(table, cond)
    view = table._granules
    kept: list[str] = []
    removed: list[str] = []
    witnesses = {}
    for i, attribute in enumerate(cond):
        tested = kept + list(cond[i + 1:])
        if block_count(table, tested) == full:
            removed.append(attribute)
        else:
            kept.append(attribute)
            witnesses[attribute] = _plain_witness(view, tested, attribute)
    assert table._elimination == (full, removed, witnesses)


def test_pair_scan_keys_past_one_int_digit_group_as_their_pairs():
    """A pair scan of two dense sides whose keys reach near ``2**30`` reads
    one packed int whose fields pass ``2**30`` unrenumbered and stay below
    ``2**64``, so no field carries into the next, and it groups the
    granules as the pairs of their keys do."""
    view = _identity_table(300, 4, 3)._granules
    n = len(view.labels)
    top = 1 << 30
    a = kernel._Labels(view, [top - 1 - g % 7 for g in range(n)], None, top, 7)
    b = kernel._Labels(view, [top - 1 - g % 5 for g in range(n)], None, top, 5)
    met = _scanned(a, b)
    assert met.rows is None and top <= max(met.keys) < top * top
    assert _spelled_out(met) == _first_seen_numbering(zip(a.keys, b.keys))
    assert met.blocks == 35


def test_a_refinement_that_changes_nothing_returns_its_input():
    """``_split`` alone tells when a refinement changes nothing, and then
    returns the very grouping it was given: a split by a one-value column,
    and any split of a grouping whose granules are all alone.  A pair scan
    reads a one-block side not at all, so it reads the other side's rows
    and keys as they are, and one with a side whose granules are all alone
    reads no row."""
    base = _identity_table(60, 8, 3)
    table = make_table([[*row, "k"] for row in base.rows], [*base.attributes, "k"])
    view = table._granules
    cond = base.attributes
    one = _grouping(view, ())
    sides = [one, _grouping(view, cond[:2]), _grouping(view, cond[:5]), _grouping(view, cond)]
    assert [_side(labels) for labels in sides] == ["one block", "dense", "stripped", "all alone"]
    alone = sides[-1]
    for labels in sides:
        assert kernel._split(labels, "k") is labels
        for a, b in ((one, labels), (labels, one)):
            rows, keys, top = kernel._paired(a, b)
            assert rows == labels.rows and list(keys) == list(labels.keys)
            assert top == (1 if labels is alone else labels.top)
        assert kernel._paired(alone, labels)[0] == kernel._paired(labels, alone)[0] == []
    assert kernel._split(alone, "c1") is alone


def test_a_dense_refinement_below_the_count_bound_makes_no_list(monkeypatch):
    """A dense split whose distinct-key bound keeps it from being counted is
    one multiply-add of packed ints: neither its input's keys nor its own
    are ever spelled out as a list of granule keys, which only ``_fields``
    makes.  On the 300-granule table the splits by c1 to c4 reach at most
    81 keys, below the 225 at which ``_stripped`` counts; the split by c5 is
    counted.  A pair scan of two such dense sides, c1 and c2 against c9 and
    c10, spells out the fields of its one combined int and no side's list."""
    view = _identity_table(300, 10, 3)._granules
    assert len(view.labels) == 300
    spelled = [0]
    fields = kernel._fields

    def counting_fields(packed, n):
        spelled[0] += 1
        return fields(packed, n)

    monkeypatch.setattr(kernel, "_fields", counting_fields)
    groupings = [_grouping(view, ())]
    for name in ("c1", "c2", "c3", "c4"):
        groupings.append(kernel._split(groupings[-1], name))
    tail = kernel._split(kernel._split(_grouping(view, ()), "c9"), "c10")
    assert spelled[0] == 0
    assert all(g.rows is None and g._keys is None for g in [*groupings, tail])
    assert [g.most for g in groupings] == [1, 3, 9, 27, 81] and tail.most == 9
    assert _witness(groupings[2], tail, "c5") is not None
    assert spelled[0] == 1 and groupings[2]._keys is None and tail._keys is None
    counted = kernel._split(groupings[-1], "c5")
    assert spelled[0] == 2 and counted._blocks is not None
    assert _spelled_out(_scanned(groupings[2], tail)) == _first_seen_numbering(
        _code_tuples(view, ["c1", "c2", "c9", "c10"]))


@st.composite
def packed_sides(draw):
    """A synthetic granule view of 1 to 16 granules with a column ``c`` of
    1 to ``2**16`` values and a one-value column ``one``, and two groupings
    of it, each with a plain per-granule list of block names built
    alongside.  A side is dense (its keys given as a list or packed),
    stripped, all alone or the one-block grouping; the keys of a dense or
    stripped side are at most ``most`` values, not always contiguous, drawn
    either just below ``_DIGIT``, with that bound, or below a small bound
    of its own, so two dense sides' bounds differ and refinements pass
    ``_DIGIT`` and renumber."""
    n = draw(st.integers(1, 16))
    k = draw(st.sampled_from([1, 2, 3, 2**16]) | st.integers(1, 2**16))
    codes = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    labels = draw(st.lists(st.sampled_from([0, 1, kernel._MIXED]), min_size=n, max_size=n))
    weights = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    view = kernel._Granules({"c": (codes, k), "one": ([0] * n, 1)}, weights, labels,
                            sum(weights))

    def side():
        form = draw(st.sampled_from(["dense"] * 3 + ["stripped"] * 2 + ["all alone", "one block"]))
        alone = [("alone", g) for g in range(n)]
        if form == "one block":
            keys = draw(st.sampled_from([0, [0] * n]))
            return lambda: kernel._Labels(view, keys, None, 1, 1), [0] * n
        if form == "all alone":
            return lambda: kernel._Labels(view, [], [], 1, 0), alone
        most = draw(st.integers(1, n))
        if draw(st.integers(0, 2)) == 0:
            top, low = kernel._DIGIT, kernel._DIGIT - 4 * most
        else:
            top, low = draw(st.integers(most, 4 * most)), 0
        values = sorted(draw(st.sets(st.integers(low, top - 1), min_size=1, max_size=most)))
        if form == "dense":
            keys = draw(st.lists(st.sampled_from(values), min_size=n, max_size=n))
            given = draw(st.sampled_from([keys, kernel._pack(keys)]))
            return lambda: kernel._Labels(view, given, None, top, most), keys
        rows = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1)))
        keys = draw(st.lists(st.sampled_from(values), min_size=len(rows), max_size=len(rows)))
        plain = list(alone)
        for row, key in zip(rows, keys):
            plain[row] = key
        return lambda: kernel._Labels(view, list(keys), rows, top, most), plain

    return view, side(), side()


def _plain_positive(view, plain) -> int:
    """|POS| from per-granule block names."""
    label_of: dict[object, object] = {}
    for key, label in zip(plain, view.labels):
        if label_of.setdefault(key, label) != label:
            label_of[key] = kernel._MIXED
    pos = sum(w for key, w in zip(plain, view.weights) if label_of[key] is not kernel._MIXED)
    return pos


def _assert_groups_as(labels, view, plain, scanned=False):
    """``labels`` groups ``view``'s granules as the block names ``plain``:
    the same block count, |POS| and first-seen numbering, and ascending
    rows.  A split's keys stay below ``_DIGIT``; a pair scan's (``scanned``)
    are mixed-radix over its two sides unrenumbered, so below the product
    of their bounds, ``top``."""
    assert _spelled_out(labels) == _first_seen_numbering(plain)
    assert labels.blocks == len(set(plain))
    assert labels.positive == _plain_positive(view, plain)
    assert all(key < (labels.top if scanned else kernel._DIGIT) for key in labels.keys)
    if labels.rows is not None:
        assert labels.rows == sorted(set(labels.rows))


def _plain_pair(plain, codes) -> tuple[int, int] | None:
    """The first two granules, in ascending order of the second, with one
    block name and different codes."""
    first: dict[object, int] = {}
    for g, key in enumerate(plain):
        f = first.setdefault(key, g)
        if codes[f] != codes[g]:
            return f, g
    return None


@given(packed_sides())
@settings(max_examples=300, deadline=None)
def test_packed_refinements_match_plain_lists(case):
    """Splits, count scans and witness scans over packed dense sides group
    the granules, and find pairs, as plain per-granule lists of block names
    do: on dense, stripped, all-alone and one-block sides, with keys up to
    just below ``_DIGIT``, so that a scan's keys pass ``2**30``, and columns
    of up to ``2**16`` values, one-value columns and single granules among
    them.  Each operation gets fresh sides, so no list that an earlier one
    made is read."""
    view, (a, plain_a), (b, plain_b) = case
    codes = view.columns["c"][0]
    for name in ("c", "one"):
        column = view.columns[name][0]
        _assert_groups_as(kernel._split(a(), name), view, list(zip(plain_a, column)))
        assert _witness(a(), b(), name) == _plain_pair(list(zip(plain_a, plain_b)), column)
    _assert_groups_as(_scanned(a(), b()), view, list(zip(plain_a, plain_b)), scanned=True)
    _assert_groups_as(_scanned(b(), a()), view, list(zip(plain_b, plain_a)), scanned=True)
    assert _witness(b(), a(), "c") == _plain_pair(list(zip(plain_a, plain_b)), codes)


def _gamma_via(table, attrs):
    """The object-level reference: gamma of the indiscernibility partition."""
    return gamma(ind_partition(table, attrs), decision_partition(table))


def _assert_matches_object_level_reference(table):
    """Ranking, ``block_count``, ``dependency``, the elimination trace, the
    core and the oracle, each checked against the per-object partitions."""
    cond = conditional_attributes(table)
    for size in range(len(cond) + 1):
        for attrs in combinations(cond, size):
            assert block_count(table, attrs) == len(ind_partition(table, attrs))
            assert dependency(table, attrs) == _gamma_via(table, attrs)
    _assert_walks_match_object_level_reference(table)
    assert set(exhaustive_reducts(table)) == minimal_preserving_subsets_oracle(table)


def _assert_walks_match_object_level_reference(table):
    """Ranking, the elimination trace and the core, the answers of the
    leave-one-out walks, each checked against the per-object partitions."""
    cond = conditional_attributes(table)
    full = _gamma_via(table, cond)
    full_blocks = len(ind_partition(table, cond))
    for a, value in rank_attributes(table).ranked:
        assert value == full - _gamma_via(table, [b for b in cond if b != a])

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


@given(tables(max_repeats=40))
@settings(max_examples=100, deadline=None)
def test_kernel_on_repeated_rows_matches_object_level_reference(table):
    """The kernel walks the table's stored distinct rows, folded or not,
    weighted by their object counts; on tables of few rows repeated many
    times each of its answers is checked against the per-object
    partitions."""
    _assert_matches_object_level_reference(table)


@st.composite
def wide_tables(draw):
    """Tables whose value-count product passes ``2**30``, so a walk's
    mixed-radix keys outgrow one int digit and are renumbered: 31 to 40
    binary columns, or 6 to 10 columns of 24 to 40 values, each column
    holding all of its values.  Copied columns make some attributes
    redundant, repeated rows fold into granules, rows that differ in one
    cell are told apart by one attribute only, and the decision is the
    identity or a named one of up to three values."""
    rng = draw(st.randoms(use_true_random=False))
    if draw(st.booleans()):
        ks = [2] * draw(st.integers(31, 40))
    else:
        ks = draw(st.lists(st.integers(24, 40), min_size=6, max_size=10)
                  .filter(lambda ks: prod(ks) > 2**30))
    n = draw(st.integers(max(ks), 60))
    columns = []
    for k in ks:
        column = list(range(k)) + [rng.randrange(k) for _ in range(n - k)]
        rng.shuffle(column)
        columns.append([str(v) for v in column])
    for _ in range(draw(st.integers(0, 3))):
        columns.insert(rng.randrange(len(columns) + 1), rng.choice(columns))
    rows = [list(row) for row in zip(*columns)]
    for _ in range(draw(st.integers(0, n // 2))):
        # A copy of a row with at most one cell redrawn: only that column
        # tells the two rows apart, so a refinement that lost it would show.
        row = list(rng.choice(rows))
        j = rng.randrange(len(row))
        row[j] = rng.choice(columns[j])
        rows.append(row)
    rng.shuffle(rows)
    attrs = [f"c{i + 1}" for i in range(len(columns))]
    if draw(st.booleans()):
        return make_table(rows, attrs)
    return make_table([r + [rng.choice("xyz")] for r in rows], attrs + ["d"], decision="d")


@given(wide_tables(), st.data())
@settings(max_examples=40, deadline=None)
def test_kernel_past_one_int_digit_matches_object_level_reference(table, data):
    """Past ``2**30`` the walk's keys are renumbered densely; across that
    switch they must still group as ``projections`` and ``ind_partition``
    do, and ranking, elimination and the core must match the per-object
    partitions."""
    _assert_walk_matches_projections(table, *_drawn_walk(data, table))
    _assert_walks_match_object_level_reference(table)


def test_exhaustive_reducts_match_plain_enumeration():
    """The oracle's nodes are stripped groupings, split one attribute per
    node, so it is checked on small tables, on tables whose groupings strip
    mid-search and on tables whose keys pass ``2**30`` and are renumbered;
    the plain enumeration caps the last two at 13 attributes."""

    def check(table):
        reducts = exhaustive_reducts(table)
        assert set(reducts) == minimal_preserving_subsets_oracle(table)
        core = core_attributes(table)
        assert core == frozenset.intersection(*reducts)

    @given(tables_with_redundant_columns())
    @settings(max_examples=200, deadline=None)
    def small(table):
        check(table)

    @given(wide_tables().filter(lambda t: len(conditional_attributes(t)) <= 13)
           | stripping_tables())
    @settings(max_examples=60, deadline=None)
    def stripping_or_wide(table):
        check(table)

    small()
    stripping_or_wide()


@st.composite
def laid_out_tables(draw):
    """``tables(max_repeats=40)`` written as CSV text, with some cells
    padded by whitespace and an ``id`` column first, in the middle, last or
    absent, and loaded back.  The loader keys a line by its text without
    the id, cut off by a cut of its own for each layout, so ``rows.index``
    comes from each of those cuts."""
    table = draw(tables(max_repeats=40))
    rng = draw(st.randoms(use_true_random=False))
    pads = ["{}", "{}", "{}", " {}", "{} ", "\t{}"]
    lines = [[rng.choice(pads).format(cell) for cell in row] for row in table.rows]
    header = list(table.attributes)
    at = {"first": 0, "middle": max(1, len(header) // 2), "last": len(header),
          "none": None}[draw(st.sampled_from(["first", "middle", "last", "none"]))]
    if at is not None:
        header.insert(at, "id")
        for i, line in enumerate(lines):
            line.insert(at, f"o{i}")
    text = "\n".join(",".join(line) for line in [header] + lines)
    return load_csv(text, decision=table.decision)


@given(tables(max_repeats=40) | wide_tables() | stripping_tables() | laid_out_tables(),
       st.data())
@settings(max_examples=150, deadline=None)
def test_per_object_partitions_group_objects_by_their_cells(table, data):
    """``projections``, ``ind_partition`` and ``decision_partition`` group
    the stored rows and read each object's group through its row index; two
    objects must share a block exactly when their row tuples agree on the
    attributes, or on the decision.  The expected grouping is built from the
    row tuples alone, with none of the partition module's code."""
    n = table.object_count
    attrs = data.draw(st.lists(st.sampled_from(conditional_attributes(table)), unique=True))
    cells = [table.rows[i] for i in range(n)]
    columns = [table.attributes.index(a) for a in attrs]
    expected = grouping_oracle([tuple(row[c] for c in columns) for row in cells])
    assert grouping_oracle(projections(table, attrs)) == expected
    assert [block.mask for block in ind_partition(table, attrs).blocks] == expected
    if table.decision is None:
        classes = list(range(n))
    else:
        d = table.attributes.index(table.decision)
        classes = [row[d] for row in cells]
    assert [block.mask for block in decision_partition(table).blocks] == grouping_oracle(classes)


@pytest.mark.parametrize("decision", [None, "d"])
def test_kernel_keeps_stored_rows_when_few_rows_repeat(decision):
    """Under one repeat in 16 rows the view is the table's stored rows, not
    a fold of them, weighted by their object counts, and the answers still
    match."""
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
    assert view.weights == table.rows.weights and sum(view.weights) == 200
    for name in conditional_attributes(table):
        assert view.columns[name][0] == table.rows.codes[table.column_index(name)]
    if decision is None:
        assert len(view.labels) == 195
    else:
        assert view.labels == table.rows.codes[table.column_index("d")]
    _assert_matches_object_level_reference(table)


def test_kernel_folds_rows_distinct_only_through_the_decision():
    """A table whose lines are distinct only through a many-valued decision
    has few repeated lines, but its conditional rows repeat: the view folds
    them into granules, and ranking still matches the per-object reference."""
    rng = random.Random("many-valued-decision")
    rows = [[*(str(rng.getrandbits(1)) for _ in range(8)), str(i // 2)] for i in range(600)]
    table = make_table(rows, [f"c{i + 1}" for i in range(8)] + ["d"], decision="d")
    view = table._granules
    assert len(view.labels) == len({tuple(row[:8]) for row in rows}) == 225
    assert sum(view.weights) == 600
    cond = conditional_attributes(table)
    full = _gamma_via(table, cond)
    ranked = rank_attributes(table).ranked
    assert any(value for _, value in ranked)
    for a, value in ranked:
        assert value == full - _gamma_via(table, [b for b in cond if b != a])


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
    walks the 12 distinct conditional rows, not the 600 objects: its view
    holds the 12, the first refinement splits all 12 keys, and a stripped
    list's refinement splits only the rows not yet alone in their block.
    The oracle and ``eliminate`` on one table, as ``reduct --exhaustive``
    runs them, build the granule view once."""
    sizes = []
    builds = 0
    split, granulate = kernel._split, kernel._granulate

    def recording_split(labels, name):
        if labels.rows != []:
            sizes.append((len(labels.view.labels), len(labels.keys)))
        return split(labels, name)

    def counting_granulate(table):
        nonlocal builds
        builds += 1
        return granulate(table)

    monkeypatch.setattr(kernel, "_split", recording_split)
    monkeypatch.setattr(reduct, "_split", recording_split)
    monkeypatch.setattr(dataset, "_granulate", counting_granulate)
    eliminate(_repeated_rows_table(600, 12))
    assert builds == 1
    assert sizes[0] == (12, 12)
    assert all(view == 12 and keys <= 12 for view, keys in sizes)
    sizes.clear()
    table = _repeated_rows_table(600, 12)
    exhaustive_reducts(table)
    assert builds == 2
    assert sizes[0] == (12, 12)
    assert all(view == 12 and keys <= 12 for view, keys in sizes)
    eliminate(table)
    assert builds == 2


def test_reduct_exhaustive_builds_the_core_grouping_once(monkeypatch, capsys):
    """``reduct --exhaustive --trace`` groups by the core once: the oracle
    starts its search from the core's grouping, in column order, the
    elimination pass, the table walk and the trace's replay start from the
    one-block grouping, and the walk that settles the core, when it is
    made, from the grouping by all attributes but the kept ones whose
    witness pairs differ on a removed attribute too.  The fixture's core is
    ``a`` and it has four non-core attributes; ``b`` and ``e`` are removed,
    and the kept ``c`` and ``e2`` have such pairs, so the core's walk starts
    from the grouping by ``a``, ``b`` and ``e``."""
    grouped = []
    grouping = kernel._grouping

    def recording_grouping(view, attrs):
        grouped.append(tuple(attrs))
        return grouping(view, attrs)

    for module in (kernel, reduct):
        monkeypatch.setattr(module, "_grouping", recording_grouping)
    path = str(Path(__file__).parent / "data" / "kept_then_redundant.csv")
    assert cli.main(["reduct", path, "--decision", "d", "--exhaustive", "--trace", "--json"]) == 0
    capsys.readouterr()
    assert [attrs for attrs in grouped if attrs] == [("a", "b", "e"), ("a",)]


def test_reduct_exhaustive_refines_along_one_elimination_pass(monkeypatch):
    """``exhaustive_reducts`` then ``eliminate``, as ``reduct --exhaustive``
    runs them, share the table's elimination pass: on the
    ``kept_then_redundant`` fixture under ``d`` they make 24 splits, 7 in
    the elimination walk, whose candidates are tested by scans that refine
    nothing, 6 in the walk over ``c`` and ``e2`` that settles the core and
    11 in the oracle's search, and ``eliminate`` none.  A table-order walk
    for the core beside the elimination walk would make 12 more where this
    walk makes 6.  Both ways make two walks there, so the splits are
    counted, by both names the kernel and the oracle call them by."""
    calls = 0
    split = kernel._split

    def counting_split(labels, name):
        nonlocal calls
        calls += 1
        return split(labels, name)

    monkeypatch.setattr(kernel, "_split", counting_split)
    monkeypatch.setattr(reduct, "_split", counting_split)
    with open(Path(__file__).parent / "data" / "kept_then_redundant.csv", "rb") as handle:
        table = load_csv(handle, decision="d")
    exhaustive_reducts(table)
    eliminate(table)
    assert calls == 24


def _csv(rows) -> str:
    """CSV text of 6 conditional columns and ``d``, with an ``id`` first."""
    return "\n".join(["id,c1,c2,c3,c4,c5,c6,d"]
                     + [",".join([f"o{i}", *row]) for i, row in enumerate(rows)])


class _IndexRead(Exception):
    pass


class _Unreadable(Sequence):
    """A row index that raises on any read."""

    def __getitem__(self, i):
        raise _IndexRead

    def __len__(self):
        raise _IndexRead

    def __iter__(self):
        raise _IndexRead


@pytest.mark.parametrize("decision", [None, "d"])
def test_ranking_and_elimination_build_no_per_object_codes(decision):
    """The kernel walks a table's stored distinct rows, folded or not, so
    ranking, the core, elimination and the oracle never read an object's
    row index, whether the table's lines repeat or not; a per-object pass
    would cost what factorizing saved.  The per-object reference path
    does read it."""
    # No line repeats, and no conditional row either.
    rng = random.Random("distinct-rows")
    distinct = [[*row, rng.choice("xyz")]
                for row in rng.sample(sorted(product("012", repeat=6)), 600)]
    for rows, repeats in ((_repeated_rows_table(600, 12).rows, True), (distinct, False)):
        table = load_csv(_csv(rows), decision=decision)
        assert (len(table.rows.weights) < 600) == repeats
        table.rows.index = _Unreadable()
        rank_attributes(table)
        core_attributes(table)
        eliminate(table)
        exhaustive_reducts(table)
        with pytest.raises(_IndexRead):
            ind_partition(table, ["c1"])


def _syntax(module) -> ast.Module:
    with open(module.__file__, encoding="utf-8") as source:
        return ast.parse(source.read())


def _package_imports(module) -> tuple[set[str], set[str]]:
    """The package modules that ``module`` imports at run time, and those
    that it imports under ``if TYPE_CHECKING:`` only."""
    tree = _syntax(module)
    guarded = {id(node) for top in tree.body
               if isinstance(top, ast.If) and ast.unparse(top.test) == "TYPE_CHECKING"
               for node in ast.walk(top)}
    found: tuple[set[str], set[str]] = (set(), set())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            targets = ([f"reduct_forge.{node.module or alias.name}" for alias in node.names]
                       if node.level else [node.module])
        elif isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        else:
            continue
        found[id(node) in guarded].update(
            t.removeprefix("reduct_forge.") for t in targets if t.startswith("reduct_forge."))
    return found


def test_reference_path_and_kernel_readers_stay_apart():
    """The per-object reference path imports nothing of the kernel, nor the
    kernel anything of it, so the tests that compare the two compare
    independent code; and ``reduct`` and ``significance`` read a grouping
    only through its block count and |POS|, never its label lists or
    their bounds, read no code column of the view, and import no routine
    that builds label lists outside ``_split``."""
    assert _package_imports(partition) == ({"errors"}, {"dataset"})
    assert "partition" not in set.union(*_package_imports(kernel))
    for module in (reduct, sys.modules["reduct_forge.significance"]):
        for node in ast.walk(_syntax(module)):
            if isinstance(node, ast.Attribute):
                assert node.attr not in {"columns", "keys", "rows", "top", "most"}, (
                    module, node.attr)
            if isinstance(node, ast.ImportFrom):
                imported = {alias.name for alias in node.names}
                assert not imported & {"_paired", "_stripped", "_projections"}, (
                    module, imported)
