"""Backward elimination, the exhaustive oracle, and core attributes."""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from itertools import product
from math import ceil

import pytest

from reduct_forge import (
    CountSplit,
    NotInRemaining,
    ThresholdSplit,
    TooManyAttributes,
    UnknownAttribute,
    core_attributes,
    eliminate,
    exhaustive_reducts,
    ind_partition,
    is_redundant,
    rank_attributes,
    significance,
    split_groups,
)

from reduct_forge.kernel import _grouping
from reduct_forge.reduct import _indispensable

from conftest import make_table, minimal_preserving_subsets_oracle, random_table

ALL_SEGS = list("abcdefg")


class TestIsRedundant:
    def test_weakest_attribute_is_redundant(self, seven_segment):
        assert is_redundant(seven_segment, "c", ALL_SEGS)

    def test_second_elimination_step(self, seven_segment):
        remaining = [a for a in ALL_SEGS if a != "c"]
        assert is_redundant(seven_segment, "d", remaining)

    def test_essential_attribute_is_not(self, seven_segment):
        assert not is_redundant(seven_segment, "e", ALL_SEGS)

    def test_not_in_remaining(self, seven_segment):
        with pytest.raises(NotInRemaining):
            is_redundant(seven_segment, "c", ["a", "b"])

    def test_unknown_attribute(self, seven_segment):
        with pytest.raises(UnknownAttribute):
            is_redundant(seven_segment, "z", ALL_SEGS)

    def test_agrees_with_direct_partition_check(self):
        rng = random.Random(17)
        for _ in range(60):
            table = random_table(rng, max_objects=8, max_attrs=5)
            attrs = list(table.attributes)
            remaining = rng.sample(attrs, rng.randint(1, len(attrs)))
            attr = rng.choice(remaining)
            direct = ind_partition(
                table, [a for a in remaining if a != attr]
            ) == ind_partition(table, attrs)
            assert is_redundant(table, attr, remaining) == direct


class TestEliminate:
    def test_builtin_reduct(self, seven_segment):
        result = eliminate(seven_segment)
        assert result.reduct == ("a", "b", "e", "f", "g")
        assert result.removed == ("c", "d")
        assert result.verified_minimal

    def test_builtin_trace(self, seven_segment):
        result = eliminate(seven_segment)
        first = result.trace[0]
        assert first.attribute == "c"
        assert first.verdict == "redundant"
        assert first.group == "low"
        assert first.significance == Fraction(0)
        assert first.base_size_before == 10
        assert first.base_size_after == 10
        verdicts = {t.attribute: t.verdict for t in result.trace}
        assert verdicts == {
            "c": "redundant",
            "d": "redundant",
            "a": "kept",
            "f": "kept",
            "g": "kept",
            "b": "kept",
            "e": "kept",
        }
        kept_e = next(t for t in result.trace if t.attribute == "e")
        assert kept_e.base_size_after < kept_e.base_size_before

    def test_reduct_and_removed_partition_the_attributes(self, seven_segment):
        result = eliminate(seven_segment)
        assert set(result.reduct) | set(result.removed) == set(ALL_SEGS)
        assert not set(result.reduct) & set(result.removed)

    def test_constant_attribute_dropped(self):
        table = make_table([["1", "x"], ["2", "x"], ["3", "x"]], ["p", "q"])
        result = eliminate(table)
        assert result.reduct == ("p",)
        assert result.removed == ("q",)
        assert minimal_preserving_subsets_oracle(table) == {frozenset({"p"})}

    def test_single_attribute_table(self):
        table = make_table([["1"], ["2"]], ["p"])
        result = eliminate(table)
        assert result.reduct == ("p",)
        assert result.removed == ()

    def test_all_constant_table_empties_out(self):
        table = make_table([["x", "y"], ["x", "y"]], ["p", "q"])
        result = eliminate(table)
        assert result.reduct == ()
        assert set(result.removed) == {"p", "q"}
        assert result.verified_minimal

    def test_output_is_a_minimal_reduct_on_random_tables(self):
        rng = random.Random(23)
        for i in range(80):
            table = random_table(rng, n_values=2 + i % 2)
            result = eliminate(table)
            assert frozenset(result.reduct) in minimal_preserving_subsets_oracle(table)
            assert result.verified_minimal

    def test_grouping_policy_never_changes_the_answer(self):
        rng = random.Random(29)
        for i in range(50):
            table = random_table(rng, n_values=2 + i % 2)
            n_attrs = len(table.attributes)
            policies = [
                ThresholdSplit(),
                CountSplit(0),
                CountSplit(ceil(n_attrs / 2)),
                CountSplit(n_attrs),
            ]
            results = [eliminate(table, p) for p in policies]
            assert len({r.reduct for r in results}) == 1
            assert len({r.removed for r in results}) == 1

    @pytest.mark.parametrize("count", [-1, 8])
    def test_count_out_of_range_is_refused_when_called(self, seven_segment, count):
        """``eliminate`` ranks only when its trace is read, yet a count
        outside ``[0, m]`` is refused by the call itself, with the message
        of ``split_groups``, which checks it by the same rule."""
        with pytest.raises(ValueError) as raised:
            eliminate(seven_segment, CountSplit(count))
        assert str(raised.value) == f"count {count} outside [0, 7]"
        with pytest.raises(ValueError, match=str(raised.value).replace("[", r"\[")):
            split_groups(rank_attributes(seven_segment), CountSplit(count))


class TestExhaustiveReducts:
    def test_builtin_has_unique_reduct(self, seven_segment):
        assert exhaustive_reducts(seven_segment) == frozenset(
            {frozenset("abefg")}
        )

    def test_matches_independent_oracle(self, seven_segment):
        assert set(exhaustive_reducts(seven_segment)) == minimal_preserving_subsets_oracle(
            seven_segment
        )

    def test_twin_columns_give_two_reducts(self):
        table = make_table([["1", "1"], ["2", "2"], ["3", "3"]], ["p", "p2"])
        assert exhaustive_reducts(table) == frozenset(
            {frozenset({"p"}), frozenset({"p2"})}
        )

    def test_all_constant_gives_empty_reduct(self):
        table = make_table([["x", "x"], ["x", "x"]], ["p", "q"])
        assert exhaustive_reducts(table) == frozenset({frozenset()})

    def test_results_are_antichain(self):
        rng = random.Random(31)
        for _ in range(40):
            table = random_table(rng, max_objects=8, max_attrs=5)
            reducts = exhaustive_reducts(table)
            for r1 in reducts:
                for r2 in reducts:
                    assert r1 == r2 or not r1 < r2

    def test_cap_enforced(self, seven_segment):
        with pytest.raises(TooManyAttributes):
            exhaustive_reducts(seven_segment, max_attrs=6)
        # the default cap admits the seven attributes
        assert exhaustive_reducts(seven_segment)

    def test_search_depth_is_not_bounded_by_the_recursion_limit(self):
        """The oracle's stack of frames does not grow with its search depth.
        Pairs of identical one-hot columns make a search ``pairs + 1``
        levels deep with ``2**pairs`` reducts, one column from each pair.
        A fresh nine-pair table's oracle (ten levels) must finish in the
        fewest frames, above this test's own depth, that do for the larger
        of two calls: a fresh one-pair table's oracle (two levels), and the
        nine-pair table's own core walk and root grouping, the work before
        its search.  So only the search is measured, whatever the depth of
        the walk that finds the core.  A search that recursed once per
        level would stack ten frames under its deepest refinement and need
        more than either call; one that leans on no spare depth needs none.
        Each table's elimination pass, whose depth depends on the table's
        shape, is built before the frames are counted."""

        def paired(pairs):
            rows = [["1" if j == i else "0" for j in range(pairs) for _ in "ab"]
                    for i in range(pairs + 1)]
            table = make_table(rows, [f"{x}{j}" for j in range(pairs) for x in "ab"])
            table._elimination
            return table

        def before_search(table):
            _, core = _indispensable(table)
            return _grouping(table._granules, core)

        def headroom(k=0):
            try:
                return headroom(k + 1)
            except RecursionError:
                return k

        def within(frames, call):
            """``call()`` with ``frames`` frames above this call's depth, or
            None when it runs out of them."""
            limit = sys.getrecursionlimit()
            sys.setrecursionlimit(limit - headroom() + frames)
            try:
                return call()
            except RecursionError:
                return None
            finally:
                sys.setrecursionlimit(limit)

        def fewest(call):
            return next(f for f in range(1, 100) if within(f, call) is not None)

        frames = max(fewest(lambda: exhaustive_reducts(paired(1))),
                     fewest(lambda: before_search(paired(9))))
        reducts = within(frames, lambda: exhaustive_reducts(paired(9)))
        assert reducts is not None, f"ten levels need more than {frames} frames"
        assert reducts == frozenset(
            frozenset(f"{x}{j}" for j, x in enumerate(choice))
            for choice in product("ab", repeat=9)
        )


class TestCoreAttributes:
    def test_builtin_core(self, seven_segment):
        assert core_attributes(seven_segment) == frozenset("abefg")

    def test_core_is_positive_significance_set_here(self, seven_segment):
        positive = {a for a in ALL_SEGS if significance(seven_segment, a) > 0}
        assert core_attributes(seven_segment) == positive

    def test_twin_columns_have_empty_core(self):
        table = make_table([["1", "1"], ["2", "2"]], ["p", "p2"])
        assert core_attributes(table) == frozenset()

    def test_single_separating_attribute(self):
        table = make_table([["1"], ["2"]], ["p"])
        assert core_attributes(table) == frozenset({"p"})

    def test_core_is_intersection_of_reducts(self):
        rng = random.Random(37)
        for _ in range(60):
            table = random_table(rng, max_objects=8, max_attrs=5)
            reducts = exhaustive_reducts(table)
            intersection = frozenset(table.attributes)
            for r in reducts:
                intersection &= r
            assert core_attributes(table) == intersection


def test_duplicate_rows_put_zero_significance_attributes_in_the_core():
    """With duplicate rows an attribute can be essential to the partition yet
    contribute nothing to the positive region; the core/significance link is
    one-directional there."""
    table = make_table([["0"], ["0"], ["1"], ["1"]], ["p"])
    assert significance(table, "p") == 0
    assert core_attributes(table) == frozenset({"p"})
    result = eliminate(table)
    assert result.reduct == ("p",)
    assert frozenset(result.reduct) in exhaustive_reducts(table)


def test_eliminate_soundness_with_named_decision():
    table = make_table(
        [
            ["1", "0", "x"],
            ["1", "1", "x"],
            ["0", "0", "y"],
            ["0", "1", "y"],
        ],
        ["p", "q", "cls"],
        decision="cls",
    )
    result = eliminate(table)
    assert "cls" not in result.reduct
    full = ind_partition(table, ["p", "q"])
    assert ind_partition(table, result.reduct) == full
