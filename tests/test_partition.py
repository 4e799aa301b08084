"""Object sets, partitions, meets, and positive-region quantities."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reduct_forge import (
    ObjectSet,
    Partition,
    UniverseMismatch,
    UnknownAttribute,
    gamma,
    ind_partition,
    meet,
    positive_region,
)
from reduct_forge.partition import _grouped_partition, decision_partition

from conftest import grouping_oracle, make_table, members_oracle, positive_region_oracle

ALL_SEGS = list("abcdefg")


class TestObjectSet:
    def test_roundtrip_and_order(self):
        s = ObjectSet.from_indices([5, 1, 3], 8)
        assert list(s) == [1, 3, 5]
        assert len(s) == 3
        assert 3 in s and 2 not in s
        assert s.min_element() == 1

    def test_algebra(self):
        a = ObjectSet.from_indices([0, 1, 2], 5)
        b = ObjectSet.from_indices([2, 3], 5)
        assert (a & b).indices() == (2,)
        assert (a | b).indices() == (0, 1, 2, 3)
        assert (a - b).indices() == (0, 1)
        assert b.issubset(a | b)

    def test_universe_mismatch(self):
        with pytest.raises(UniverseMismatch):
            ObjectSet.full(3) & ObjectSet.full(4)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            ObjectSet.from_indices([4], 4)
        with pytest.raises(ValueError):
            ObjectSet(1 << 4, 4)

    def test_immutable_and_hashable(self):
        s = ObjectSet.from_indices([1], 3)
        with pytest.raises(AttributeError):
            s.mask = 0
        assert len({s, ObjectSet.from_indices([1], 3)}) == 1


class TestIndPartition:
    def test_single_attribute(self, seven_segment):
        part = ind_partition(seven_segment, ["a"])
        assert [set(b) for b in part.blocks] == [{0, 2, 3, 5, 6, 7, 8, 9}, {1, 4}]

    def test_empty_attribute_set(self, seven_segment):
        part = ind_partition(seven_segment, [])
        assert [set(b) for b in part.blocks] == [set(range(10))]

    def test_pair_attributes(self, seven_segment):
        part = ind_partition(seven_segment, ["b", "e"])
        assert [set(b) for b in part.blocks] == [
            {0, 2, 8},
            {1, 3, 4, 7, 9},
            {5},
            {6},
        ]

    def test_all_attributes_discern_everything(self, seven_segment):
        part = ind_partition(seven_segment, ALL_SEGS)
        assert [set(b) for b in part.blocks] == [{i} for i in range(10)]

    def test_unknown_attribute(self, seven_segment):
        with pytest.raises(UnknownAttribute):
            ind_partition(seven_segment, ["z"])

    def test_decision_column_not_conditional(self):
        table = make_table([["1", "x"], ["2", "y"]], ["p", "d"], decision="d")
        with pytest.raises(UnknownAttribute):
            ind_partition(table, ["d"])

    def test_attribute_order_irrelevant(self, seven_segment):
        assert ind_partition(seven_segment, ["b", "e"]) == ind_partition(
            seven_segment, ["e", "b"]
        )


class TestMeet:
    def test_matches_joint_partition(self, seven_segment):
        got = meet(
            ind_partition(seven_segment, ["b"]), ind_partition(seven_segment, ["e"])
        )
        assert got == ind_partition(seven_segment, ["b", "e"])

    def test_four_way_fold(self, seven_segment):
        part = ind_partition(seven_segment, ["d"])
        for attr in ["a", "f", "g"]:
            part = meet(part, ind_partition(seven_segment, [attr]))
        assert [set(b) for b in part.blocks] == [
            {0},
            {1},
            {2, 3},
            {4},
            {5, 6, 8, 9},
            {7},
        ]

    def test_idempotent(self, seven_segment):
        part = ind_partition(seven_segment, ["d"])
        assert meet(part, part) == part

    def test_universe_mismatch(self):
        with pytest.raises(UniverseMismatch):
            meet(Partition.trivial(3), Partition.trivial(4))


# Frozen from the pairwise-comparison oracle: dropping e leaves exactly the
# pairs (5,6) and (8,9) indiscernible.
POS_WITHOUT_E = {0, 1, 2, 3, 4, 7}


class TestPositiveRegion:
    def test_full_attributes_all_positive(self, seven_segment):
        oracle = positive_region_oracle(seven_segment, ALL_SEGS)
        assert oracle == set(range(10))
        pos = positive_region(
            ind_partition(seven_segment, ALL_SEGS), decision_partition(seven_segment)
        )
        assert set(pos) == oracle

    def test_without_e(self, seven_segment):
        attrs = [a for a in ALL_SEGS if a != "e"]
        oracle = positive_region_oracle(seven_segment, attrs)
        assert oracle == POS_WITHOUT_E
        pos = positive_region(
            ind_partition(seven_segment, attrs), decision_partition(seven_segment)
        )
        assert set(pos) == POS_WITHOUT_E

    def test_trivial_condition_is_empty(self, seven_segment):
        pos = positive_region(Partition.trivial(10), Partition.singletons(10))
        assert len(pos) == 0

    def test_universe_mismatch(self):
        with pytest.raises(UniverseMismatch):
            positive_region(Partition.trivial(3), Partition.singletons(4))

    @pytest.mark.parametrize("decision", [None, "c1"])
    def test_oracle_agreement_without_block_of(self, monkeypatch, decision):
        """Each object's decision block is looked up once, not by scanning
        the decision blocks per condition block, which made the identity
        decision quadratic."""
        def scan(self, index):
            raise AssertionError("positive_region scans the decision blocks")

        monkeypatch.setattr(Partition, "block_of", scan)
        rng = random.Random(f"positive-region/{decision}")
        for _ in range(30):
            n_attrs = rng.randint(2, 4)
            values = rng.randint(2, 4)
            table = make_table(
                [[str(rng.randrange(values)) for _ in range(n_attrs)]
                 for _ in range(rng.randint(1, 60))],
                [f"c{i + 1}" for i in range(n_attrs)], decision)
            cond = [a for a in table.attributes if a != decision]
            attrs = rng.sample(cond, rng.randint(0, len(cond)))
            pos = positive_region(ind_partition(table, attrs), decision_partition(table))
            assert set(pos) == positive_region_oracle(table, attrs)
            assert members_oracle(pos.mask, pos.universe_size) == sorted(
                positive_region_oracle(table, attrs))

    def test_oracle_agreement_on_random_tables(self):
        rng = random.Random(42)
        for _ in range(80):
            n_attrs = rng.randint(1, 5)
            table = make_table(
                [
                    [str(rng.randrange(2)) for _ in range(n_attrs)]
                    for _ in range(rng.randint(1, 9))
                ],
                [f"c{i + 1}" for i in range(n_attrs)],
            )
            k = rng.randint(0, n_attrs)
            attrs = rng.sample(list(table.attributes), k)
            pos = positive_region(
                ind_partition(table, attrs), decision_partition(table)
            )
            assert set(pos) == positive_region_oracle(table, attrs)


class TestGamma:
    def test_exact_values(self, seven_segment):
        dec = decision_partition(seven_segment)
        assert gamma(ind_partition(seven_segment, ALL_SEGS), dec) == Fraction(1)
        attrs = [a for a in ALL_SEGS if a != "e"]
        assert gamma(ind_partition(seven_segment, attrs), dec) == Fraction(6, 10)
        assert gamma(Partition.trivial(10), dec) == Fraction(0)

    def test_fraction_is_lowest_terms(self, seven_segment):
        attrs = [a for a in ALL_SEGS if a != "e"]
        value = gamma(ind_partition(seven_segment, attrs), decision_partition(seven_segment))
        assert (value.numerator, value.denominator) == (3, 5)


# ---------------------------------------------------------------------------
# Algebraic properties.
# ---------------------------------------------------------------------------

def _partition_from_labels(labels: list[int]) -> Partition:
    groups: dict[int, list[int]] = {}
    for i, lab in enumerate(labels):
        groups.setdefault(lab, []).append(i)
    return Partition.from_blocks(
        [ObjectSet.from_indices(g, len(labels)) for g in groups.values()], len(labels)
    )


labelings = st.lists(st.integers(0, 4), min_size=1, max_size=12)


@given(labelings, labelings)
@settings(max_examples=150, deadline=None)
def test_meet_commutative(xs, ys):
    n = min(len(xs), len(ys))
    p, q = _partition_from_labels(xs[:n]), _partition_from_labels(ys[:n])
    assert meet(p, q) == meet(q, p)


@given(labelings, labelings, labelings)
@settings(max_examples=150, deadline=None)
def test_meet_associative(xs, ys, zs):
    n = min(len(xs), len(ys), len(zs))
    p = _partition_from_labels(xs[:n])
    q = _partition_from_labels(ys[:n])
    r = _partition_from_labels(zs[:n])
    assert meet(meet(p, q), r) == meet(p, meet(q, r))


@given(labelings)
@settings(max_examples=100, deadline=None)
def test_meet_idempotent_and_identity(xs):
    p = _partition_from_labels(xs)
    assert meet(p, p) == p
    assert meet(p, Partition.trivial(len(xs))) == p


def test_ind_union_is_meet_exhaustive(seven_segment):
    """IND(B ∪ C) == meet(IND(B), IND(C)) over every pair of attribute subsets."""
    subsets = []
    for size in range(len(ALL_SEGS) + 1):
        subsets.extend(combinations(ALL_SEGS, size))
    parts = {s: ind_partition(seven_segment, list(s)) for s in subsets}
    for b in subsets:
        for c in subsets:
            union = tuple(a for a in ALL_SEGS if a in b or a in c)
            assert meet(parts[b], parts[c]) == parts[union]


def test_monotonicity_exhaustive(seven_segment):
    """B ⊆ C implies IND(C) refines IND(B) and gamma does not decrease."""
    dec = decision_partition(seven_segment)
    subsets = []
    for size in range(len(ALL_SEGS) + 1):
        subsets.extend(combinations(ALL_SEGS, size))
    parts = {s: ind_partition(seven_segment, list(s)) for s in subsets}
    gammas = {s: gamma(parts[s], dec) for s in subsets}
    for b in subsets:
        grown = set(b) | {ALL_SEGS[0], ALL_SEGS[-1]}
        c = tuple(a for a in ALL_SEGS if a in grown)
        assert parts[c].refines(parts[b])
        assert gammas[b] <= gammas[c]


def test_positive_region_monotone_under_refinement(seven_segment):
    dec = decision_partition(seven_segment)
    coarse = ind_partition(seven_segment, ["b"])
    fine = ind_partition(seven_segment, ["b", "e", "a"])
    assert positive_region(coarse, dec).issubset(positive_region(fine, dec))


def test_positive_region_monotone_on_random_tables():
    rng = random.Random(73)
    for _ in range(80):
        n_attrs = rng.randint(1, 6)
        table = make_table(
            [
                [str(rng.randrange(2)) for _ in range(n_attrs)]
                for _ in range(rng.randint(1, 10))
            ],
            [f"c{i + 1}" for i in range(n_attrs)],
        )
        dec = decision_partition(table)
        small = rng.sample(list(table.attributes), rng.randint(0, n_attrs))
        extra = rng.sample(list(table.attributes), rng.randint(0, n_attrs))
        big = [a for a in table.attributes if a in set(small) | set(extra)]
        pos_small = positive_region(ind_partition(table, small), dec)
        pos_big = positive_region(ind_partition(table, big), dec)
        assert pos_small.issubset(pos_big)


def test_canonical_order_and_equality():
    n = 6
    blocks = [
        ObjectSet.from_indices([3, 4], n),
        ObjectSet.from_indices([0, 5], n),
        ObjectSet.from_indices([1, 2], n),
    ]
    part = Partition.from_blocks(blocks, n)
    assert [b.min_element() for b in part.blocks] == [0, 1, 3]
    same = Partition.from_blocks(list(reversed(blocks)), n)
    assert part == same


def test_partition_validation():
    n = 4
    with pytest.raises(ValueError):
        Partition.from_blocks([ObjectSet.from_indices([0, 1], n)], n)  # no cover
    with pytest.raises(ValueError):
        Partition.from_blocks(
            [
                ObjectSet.from_indices([0, 1, 2], n),
                ObjectSet.from_indices([2, 3], n),
            ],
            n,
        )  # overlap


@st.composite
def masks(draw):
    n = draw(st.integers(0, 300))
    return draw(st.integers(0, (1 << n) - 1)), n


@given(masks())
@settings(max_examples=300, deadline=None)
def test_object_set_lists_members_in_ascending_order(drawn):
    mask, n = drawn
    assert list(ObjectSet(mask, n)) == members_oracle(mask, n)


@given(st.integers(0, 300).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(-2, n + 1), max_size=2 * n + 2))))
@settings(max_examples=300, deadline=None)
def test_object_set_from_indices_builds_one_mask(drawn):
    """Indices in any order, repeated or not, give the mask whose members
    are the distinct indices; the first index outside the universe is
    reported, as it was when each index was ORed in turn."""
    n, indices = drawn
    outside = [i for i in indices if not 0 <= i < n]
    if outside:
        with pytest.raises(ValueError, match=f"^object index {outside[0]} outside "):
            ObjectSet.from_indices(iter(indices), n)
        return
    s = ObjectSet.from_indices(iter(indices), n)
    assert members_oracle(s.mask, n) == sorted(set(indices))
    assert s.universe_size == n


@st.composite
def object_keys(draw):
    """Keys for 1 to 300 objects: one block, one block per object, or a
    random number of blocks in between."""
    n = draw(st.integers(1, 300))
    shape = draw(st.sampled_from(["one", "each", "random"]))
    if shape == "one":
        return ["k"] * n
    if shape == "each":
        return draw(st.permutations(range(n)))
    return draw(st.lists(st.integers(0, draw(st.integers(0, n))), min_size=n, max_size=n))


@given(object_keys())
@settings(max_examples=300, deadline=None)
def test_grouped_partition_matches_one_or_per_object(keys):
    n = len(keys)
    p = _grouped_partition(keys, n)
    assert [block.mask for block in p.blocks] == grouping_oracle(keys)
    assert all(block.universe_size == n for block in p.blocks)
