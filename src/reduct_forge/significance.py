"""Positive-region significance: how much each attribute contributes to
discernment, and the low/high grouping of the ranked attributes.

Ranking reads the dependency degrees of the table's kept table-order walk
(:mod:`.kernel`), so its cost after loading scales with the granules, not
the objects.  ``eliminate`` ranks only when its trace is read.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Union

from .dataset import InformationSystem
from .errors import UnknownAttribute

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


def significance(table: InformationSystem, attribute: str) -> Fraction:
    """Dependency-degree drop caused by removing the attribute from the full
    conditional set, its entry in :func:`rank_attributes`: nonnegative, and
    zero exactly when the attribute adds no positive-region objects.  It
    reads two dependency degrees off the table walk, not the ranking."""
    with_all, without = table._table_walk
    if attribute not in without:
        raise UnknownAttribute(attribute)
    return with_all.dependency - without[attribute].dependency


def rank_attributes(table: InformationSystem) -> SignificanceTable:
    """All conditional attributes sorted by ascending significance, stably,
    so table column order is the only tie-break."""
    with_all, without = table._table_walk
    full = with_all.dependency
    values = [(a, full - labels.dependency) for a, labels in without.items()]
    values.sort(key=lambda pair: pair[1])
    return SignificanceTable(ranked=tuple(values))


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
