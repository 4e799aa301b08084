"""Significance values, ranking, and group splitting."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from reduct_forge import (
    CountSplit,
    InformationSystem,
    ThresholdSplit,
    UnknownAttribute,
    core_attributes,
    rank_attributes,
    significance,
    split_groups,
)

import reduct_forge.kernel as kernel

from conftest import make_table, positive_region_oracle, random_table

# Exact per-attribute values for the bundled table; the 0.2/0.4 entries are
# 2/10 and 4/10 on the ten-object universe.
EXPECTED_SIGNIFICANCE = {
    "a": Fraction(1, 5),
    "b": Fraction(2, 5),
    "c": Fraction(0),
    "d": Fraction(0),
    "e": Fraction(2, 5),
    "f": Fraction(1, 5),
    "g": Fraction(1, 5),
}


class TestSignificance:
    @pytest.mark.parametrize("attr,value", sorted(EXPECTED_SIGNIFICANCE.items()))
    def test_builtin_values_exact(self, seven_segment, attr, value):
        assert significance(seven_segment, attr) == value

    def test_cross_check_against_positive_region_oracle(self, seven_segment):
        # significance(x) must equal the oracle-counted loss of positive
        # objects, over ten.
        full = positive_region_oracle(seven_segment, list("abcdefg"))
        for attr in "abcdefg":
            rest = [a for a in "abcdefg" if a != attr]
            without = positive_region_oracle(seven_segment, rest)
            assert significance(seven_segment, attr) == Fraction(
                len(full) - len(without), 10
            )

    def test_duplicate_column_is_worthless(self):
        table = make_table(
            [["1", "1"], ["2", "2"], ["3", "3"]], ["p", "p2"]
        )
        assert significance(table, "p") == 0
        assert significance(table, "p2") == 0

    def test_unknown_attribute(self, seven_segment):
        with pytest.raises(UnknownAttribute):
            significance(seven_segment, "z")

    def test_decision_column_rejected(self):
        table = make_table([["1", "x"], ["2", "y"]], ["p", "d"], decision="d")
        with pytest.raises(UnknownAttribute):
            significance(table, "d")

    def test_nonnegative_on_random_tables(self):
        rng = random.Random(5)
        for _ in range(60):
            table = random_table(rng)
            for attr in table.attributes:
                assert significance(table, attr) >= 0

    def test_positive_significance_implies_core(self):
        rng = random.Random(6)
        for _ in range(60):
            table = random_table(rng)
            core = core_attributes(table)
            for attr in table.attributes:
                if significance(table, attr) > 0:
                    assert attr in core

    def test_a_ranked_table_computes_no_positive_region_again(self, monkeypatch):
        """The first ``significance`` call makes the table walk, which
        computes |POS| of C and of each C - a once, m + 1 positive regions
        in all.  After that, ``significance`` gives the ranking's entry for
        every attribute, the decision and an unknown name raise, and
        neither those m calls nor a second ranking compute a positive
        region: they read the ints that the table walk keeps."""
        computed = [0]
        pure_weight = kernel._pure_weight

        def counting_pure_weight(*args):
            computed[0] += 1
            return pure_weight(*args)

        monkeypatch.setattr(kernel, "_pure_weight", counting_pure_weight)
        rng = random.Random("significance-reads")
        m = 12
        # Distinct rows and two that differ only in their decision, too few
        # repeats to fold, so that no grouping has every granule alone and
        # each |POS| is counted.
        distinct: set[tuple[str, ...]] = set()
        while len(distinct) < 80:
            distinct.add(tuple(rng.choice("012") for _ in range(m)))
        rows = [[*row, rng.choice("xy")] for row in sorted(distinct)]
        rows.append([*rows[0][:m], "z"])
        table = make_table(rows, [f"c{i + 1}" for i in range(m)] + ["d"], decision="d")
        cond = table.attributes[:m]
        first = significance(table, cond[0])
        assert computed[0] == m + 1
        ranked = rank_attributes(table)
        assert ranked.significance_of(cond[0]) == first
        for attr in cond:
            assert significance(table, attr) == ranked.significance_of(attr)
        assert rank_attributes(table) == ranked
        assert computed[0] == m + 1
        for name in ("d", "z"):
            with pytest.raises(UnknownAttribute):
                significance(table, name)


class TestRankAttributes:
    def test_builtin_order_and_values(self, seven_segment):
        ranked = rank_attributes(seven_segment)
        assert ranked.attributes == ("c", "d", "a", "f", "g", "b", "e")
        assert [v for _, v in ranked.ranked] == [
            Fraction(0),
            Fraction(0),
            Fraction(1, 5),
            Fraction(1, 5),
            Fraction(1, 5),
            Fraction(2, 5),
            Fraction(2, 5),
        ]

    def test_groups_empty_before_split(self, seven_segment):
        ranked = rank_attributes(seven_segment)
        assert ranked.low_group == () and ranked.high_group == ()

    def test_single_distinct_attribute(self):
        table = make_table([["1"], ["2"], ["3"]], ["p"])
        ranked = rank_attributes(table)
        assert ranked.ranked == (("p", Fraction(1)),)

    def test_tie_break_is_column_order(self):
        table = make_table([["1", "1"], ["2", "2"]], ["q", "p"])
        ranked = rank_attributes(table)
        assert ranked.attributes == ("q", "p")
        assert all(v == 0 for _, v in ranked.ranked)

    def test_invariant_under_row_reordering(self, seven_segment):
        shuffled = make_table(
            [list(seven_segment.rows[i]) for i in (9, 3, 0, 7, 5, 1, 8, 2, 6, 4)],
            list(seven_segment.attributes),
        )
        assert [
            (a, v) for a, v in rank_attributes(shuffled).ranked
        ] == list(rank_attributes(seven_segment).ranked)

    def test_decision_column_read_once_per_ranking(self, monkeypatch):
        """The granule view labels each granule by its decision code, read
        once from the table's code column, so a ranking reads no column of
        strings at all."""
        rng = random.Random("decision-read/16")
        m = 16
        rows = [[str(rng.randrange(3)) for _ in range(m)] + [rng.choice("xy")]
                for _ in range(60)]
        table = make_table(rows, [f"c{i + 1}" for i in range(m)] + ["d"], decision="d")
        reads = []
        column = InformationSystem.column

        def counting_column(self, attribute):
            reads.append(attribute)
            return column(self, attribute)

        monkeypatch.setattr(InformationSystem, "column", counting_column)
        assert len(rank_attributes(table).ranked) == m
        assert reads == []


class TestSplitGroups:
    def test_default_threshold_excludes_top_tier(self, seven_segment):
        table = split_groups(rank_attributes(seven_segment))
        assert table.low_group == ("c", "d", "a", "f", "g")
        assert table.high_group == ("b", "e")

    def test_count_zero(self, seven_segment):
        table = split_groups(rank_attributes(seven_segment), CountSplit(0))
        assert table.low_group == ()
        assert set(table.high_group) == set("abcdefg")

    def test_count_all(self, seven_segment):
        table = split_groups(rank_attributes(seven_segment), CountSplit(7))
        assert set(table.low_group) == set("abcdefg")
        assert table.high_group == ()

    def test_groups_partition_attributes(self, seven_segment):
        for policy in (ThresholdSplit(), CountSplit(3)):
            table = split_groups(rank_attributes(seven_segment), policy)
            assert set(table.low_group) | set(table.high_group) == set("abcdefg")
            assert not set(table.low_group) & set(table.high_group)

    def test_explicit_threshold_value(self, seven_segment):
        table = split_groups(
            rank_attributes(seven_segment), ThresholdSplit(Fraction(1, 5))
        )
        assert table.low_group == ("c", "d")

    def test_count_out_of_range(self, seven_segment):
        with pytest.raises(ValueError):
            split_groups(rank_attributes(seven_segment), CountSplit(8))

    def test_all_tied_default_puts_everything_high(self):
        table = make_table([["1", "1"], ["2", "2"]], ["p", "q"])
        split = split_groups(rank_attributes(table))
        assert split.low_group == ()
        assert split.high_group == ("p", "q")
