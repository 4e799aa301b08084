"""Positive-region significance: how much each attribute contributes to
discernment, and the low/high grouping used by the elimination pass.

The ranking walks the table's granules, its distinct conditional rows
weighted by their object counts (see :mod:`.partition`), so its cost after
loading scales with the number of distinct rows, not with the object count.
It reads each leave-one-out grouping's ``dependency`` and never its labels,
which leave out the granules already alone in their block.

The groupings come from the table-order walk, ``table._table_walk``: one
leave-one-out walk over the conditional attributes in column order, made
on first use, kept with the table and read by attribute, as the grouping
by all of them and a dict from each to the grouping that leaves it out.
Ranking is its one reader.  ``eliminate`` does not rank: every attribute
outside the core has significance exactly 0 and the sort is stable, so
those come in column order and the elimination is the column-order one,
a pass the table keeps apart from this walk (``table._elimination``),
which the core and the exhaustive oracle of :mod:`.reduct` read too.
Its trace ranks when it is first read, with the policy's groups from
:func:`split_groups`, whose count check ``eliminate`` makes when called.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Union

from .dataset import InformationSystem
from .errors import UnknownAttribute


@dataclass(frozen=True)
class ThresholdSplit:
    """Low group = attributes with significance strictly below ``value``.

    ``value=None`` uses the maximum significance present, so the top tier is
    never in the low group.
    """

    value: Fraction | None = None


@dataclass(frozen=True)
class CountSplit:
    """Low group = the first ``count`` attributes of the ranked order."""

    count: int


GroupPolicy = Union[ThresholdSplit, CountSplit]


@dataclass(frozen=True)
class SignificanceTable:
    """Per-attribute significance in ranked (ascending) order.

    ``low_group``/``high_group`` are empty until :func:`split_groups` fills
    them; together they always partition the conditional attributes.
    """

    ranked: tuple[tuple[str, Fraction], ...]
    low_group: tuple[str, ...] = ()
    high_group: tuple[str, ...] = ()

    @property
    def attributes(self) -> tuple[str, ...]:
        return tuple(a for a, _ in self.ranked)

    def significance_of(self, attribute: str) -> Fraction:
        for a, value in self.ranked:
            if a == attribute:
                return value
        raise UnknownAttribute(attribute)


def significance(table: InformationSystem, attribute: str) -> Fraction:
    """Dependency-degree drop caused by removing the attribute: its entry in
    :func:`rank_attributes`.

    Computed against the full conditional set, so the value is nonnegative by
    monotonicity and zero exactly when the attribute adds no positive-region
    objects.
    """
    return rank_attributes(table).significance_of(attribute)


def rank_attributes(table: InformationSystem) -> SignificanceTable:
    """All conditional attributes sorted by ascending significance.

    The sort is stable with respect to table column order, which is the only
    tie-break.  Significance is computed once, on the full table.  The
    grouping of each ``C - a`` comes from the table's kept table-order
    leave-one-out walk over the granules: the meet of the attributes before
    ``a`` and those after it, the paper's low/high base composition taken
    at every attribute, so ranking makes O(m) refinements and meets, not
    O(m²), and touches O(|U/C|·log_k |U/C|) granule entries on a wide
    table.
    """
    with_all, without = table._table_walk
    full = with_all.dependency
    values = [(a, full - labels.dependency) for a, labels in without.items()]
    values.sort(key=lambda pair: pair[1])
    return SignificanceTable(ranked=tuple(values))


def _check_count(policy: GroupPolicy, size: int) -> None:
    """Raise ``ValueError`` when ``policy`` is a :class:`CountSplit` whose
    count lies outside ``[0, size]``, ``size`` being the number of
    attributes it splits: :func:`split_groups` and ``eliminate``, which
    ranks only when its trace is read, both check here."""
    if isinstance(policy, CountSplit) and not 0 <= policy.count <= size:
        raise ValueError(f"count {policy.count} outside [0, {size}]")


def split_groups(
    ranked: SignificanceTable, policy: GroupPolicy = ThresholdSplit()
) -> SignificanceTable:
    """Assign the ranked attributes to a low-significance prefix and the rest."""
    _check_count(policy, len(ranked.ranked))
    if isinstance(policy, CountSplit):
        cut = policy.count
    else:
        threshold = policy.value
        if threshold is None:
            threshold = max((v for _, v in ranked.ranked), default=Fraction(0))
        cut = sum(1 for _, v in ranked.ranked if v < threshold)
    low = tuple(a for a, _ in ranked.ranked[:cut])
    high = tuple(a for a, _ in ranked.ranked[cut:])
    return replace(ranked, low_group=low, high_group=high)
