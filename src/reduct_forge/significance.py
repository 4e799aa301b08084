"""Positive-region significance: how much each attribute contributes to
discernment, and the low/high grouping of the ranked attributes.

Ranking and ``significance`` read the ints that the table keeps from its
one leave-one-out walk (``InformationSystem._table_walk``): |POS| of the
conditional attributes C and of each C - a, so the walk's cost after
loading scales with the granules, not the objects, and once it is made a
call computes no positive region.  A significance is the integer drop in
|POS| over the object count, and only this module makes it an exact
``Fraction``.  ``eliminate`` ranks only when its trace is read.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterable, Union

from .dataset import InformationSystem
from .errors import UnknownAttribute
from .kernel import _grouping

if TYPE_CHECKING:  # only annotations name it; it is imported where one is made
    from fractions import Fraction


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


def dependency(table: InformationSystem, attrs: Iterable[str]) -> Fraction:
    """``gamma(ind_partition(table, attrs), decision_partition(table))``:
    |POS| of ``attrs`` over the object count, exact."""
    import fractions  # here, so that a run making no Fraction never loads it

    return fractions.Fraction(_grouping(table._granules, attrs).positive, table.object_count)


def significance(table: InformationSystem, attribute: str) -> Fraction:
    """Dependency-degree drop caused by removing the attribute from the full
    conditional set, its entry in :func:`rank_attributes`: nonnegative, and
    zero exactly when the attribute adds no positive-region objects.  It
    reads two ints that the table walk keeps, not the ranking."""
    full, _, without = table._table_walk
    if attribute not in without:
        raise UnknownAttribute(attribute)
    import fractions

    return fractions.Fraction(full - without[attribute], table.object_count)


def rank_attributes(table: InformationSystem) -> SignificanceTable:
    """All conditional attributes sorted by ascending significance, stably,
    so table column order is the only tie-break.  The attributes are
    sorted by descending |POS| of C - a, which is ascending integer drop,
    as ``reverse`` keeps the sort stable; each distinct drop is then made
    one ``Fraction``."""
    full, _, without = table._table_walk
    ranked = sorted(without, key=without.__getitem__, reverse=True)
    import fractions

    exact = {positive: fractions.Fraction(full - positive, table.object_count)
             for positive in set(without.values())}
    return SignificanceTable(ranked=tuple((a, exact[without[a]]) for a in ranked))


def _check_count(policy: GroupPolicy, size: int) -> None:
    """Raise ``ValueError`` when ``policy`` is a :class:`CountSplit` whose
    count lies outside ``[0, size]``, ``size`` attributes."""
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
            import fractions

            threshold = max((v for _, v in ranked.ranked), default=fractions.Fraction(0))
        cut = sum(1 for _, v in ranked.ranked if v < threshold)
    low = tuple(a for a, _ in ranked.ranked[:cut])
    high = tuple(a for a, _ in ranked.ranked[cut:])
    return replace(ranked, low_group=low, high_group=high)
