"""Backward elimination and the exhaustive oracle that checks it.

``eliminate`` drops ``a`` from the kept set R when R - a keeps the block
count of all conditional attributes C: the paper's composed-base test, as a
topology base is the block set of a partition and R - a lies within C.
Every attribute outside the core has significance exactly 0 and the ranking
sorts stably, so the reduct is the column-order elimination, and the
ranking and its low/high groups set only the trace.  Both read the kernel's
groupings (:mod:`.kernel`) only through block counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

from .dataset import InformationSystem, _LazyTuple, conditional_attributes
from .errors import NotInRemaining, TooManyAttributes, UnknownAttribute
from .kernel import _alone, _grouping, _split, _without_each, block_count
from .significance import (
    GroupPolicy, ThresholdSplit, _check_count, rank_attributes, split_groups,
)

if TYPE_CHECKING:  # only annotations name it; it is imported where one is made
    from fractions import Fraction

DEFAULT_MAX_ATTRS = 20


class TraceEntry(NamedTuple):
    attribute: str
    significance: Fraction
    group: str  # "low" or "high"
    verdict: str  # "redundant" or "kept"
    base_size_before: int
    base_size_after: int


@dataclass(frozen=True)
class ReductResult:
    reduct: tuple[str, ...]  # kept attributes, in table column order
    removed: tuple[str, ...]  # eliminated attributes, in elimination order
    trace: Sequence[TraceEntry]  # built on first read, equal to its tuple
    verified_minimal: bool

    @property
    def reduct_set(self) -> frozenset[str]:
        return frozenset(self.reduct)


def _indispensable(table: InformationSystem) -> tuple[int, tuple[str, ...]]:
    """C's block count and the core (Pawlak, 1991), the attributes whose
    removal lowers it, in table order.  A removed attribute is not core, a
    kept one whose witness pair differs on it alone among C is, and every
    other kept one is tested by one walk over those attributes alone."""
    full_count, _, witnesses = table._elimination
    cond = conditional_attributes(table)
    sure = _alone(table._granules, cond, witnesses)
    walked = [a for a in witnesses if a not in sure]
    counts = dict(zip(walked, _without_each(table._granules, cond, walked)[1])) if walked else {}
    return full_count, tuple(a for a in witnesses if a in sure or counts[a] != full_count)


def is_redundant(table: InformationSystem, attribute: str, remaining: Iterable[str]) -> bool:
    """True when dropping the attribute from ``remaining`` preserves the base
    of the full conditional set, whose block count is read off the table's
    kept elimination pass."""
    cond = conditional_attributes(table)
    remaining_set = set(remaining)
    if attribute not in cond:
        raise UnknownAttribute(attribute)
    if attribute not in remaining_set:
        raise NotInRemaining(attribute)
    candidate = [a for a in remaining_set if a != attribute]
    return block_count(table, candidate) == table._elimination[0]


def _traced(table: InformationSystem, policy: GroupPolicy, full_count: int,
            dropped: set[str]) -> Iterator[TraceEntry]:
    """The trace entries in ranked order under ``policy``, made when the
    first is read.  Each count is that of the set that the ranked-order
    elimination tests: with no removal C - a, kept by the table walk that
    ranking makes, and otherwise from one replay of that elimination.  It
    removes what the column-order pass removed: every removal has
    significance 0, and those keep column order, while every attribute of
    positive significance ranks after them."""
    grouping = split_groups(rank_attributes(table), policy)
    ranked = grouping.attributes
    counts = (dict(zip(ranked, _without_each(table._granules, ranked, ranked, dropped)[1]))
              if dropped else table._table_walk[1])
    low = set(grouping.low_group)  # made after the walk, so that its peak holds no set
    for attribute, sig in grouping.ranked:
        yield TraceEntry(
            attribute=attribute,
            significance=sig,
            group="low" if attribute in low else "high",
            verdict="redundant" if attribute in dropped else "kept",
            base_size_before=full_count,
            base_size_after=counts[attribute],
        )


def eliminate(
    table: InformationSystem, policy: GroupPolicy = ThresholdSplit()
) -> ReductResult:
    """The table's column-order elimination pass, each attribute tested
    once, with its result R certified.  R keeps C's block count by
    construction; ``verified_minimal`` holds when every member's witness
    pair differs on it alone among R, so no walk re-measures R.  ``policy``
    is checked now (``ValueError``) and sets only the trace, a lazy tuple
    that ranks when first read and keeps the table until then."""
    cond = conditional_attributes(table)
    _check_count(policy, len(cond))
    full_count, removed, witnesses = table._elimination
    dropped = set(removed)
    reduct = tuple(a for a in cond if a not in dropped)
    return ReductResult(
        reduct=reduct,
        removed=tuple(removed),
        trace=_LazyTuple(len(cond), _traced(table, policy, full_count, dropped)),
        verified_minimal=_alone(table._granules, reduct, witnesses) == set(reduct),
    )


def exhaustive_reducts(
    table: InformationSystem, max_attrs: int = DEFAULT_MAX_ATTRS
) -> frozenset[frozenset[str]]:
    """All minimal attribute subsets preserving the full partition; raises
    ``TooManyAttributes`` above ``max_attrs`` before any walk.  A core-first
    depth-first search adds the other attributes in column order, records a
    node that reaches C's block count and cuts a child that splits no block;
    every reduct is recorded, and the minimal recorded sets are the reducts."""
    cond = conditional_attributes(table)
    if len(cond) > max_attrs:
        raise TooManyAttributes(len(cond), max_attrs)
    full_count, core = _indispensable(table)
    rest = [a for a in cond if a not in core]
    recorded: list[frozenset[str]] = []
    # An explicit stack of (attrs, labels, next child), so that depth is not
    # bounded by the recursion limit; a node resumes after each child.
    stack = [(frozenset(core), _grouping(table._granules, core), 0)]
    while stack:
        attrs, labels, start = stack.pop()
        if labels.blocks == full_count:
            recorded.append(attrs)
            continue
        for i in range(start, len(rest)):
            child = _split(labels, rest[i])
            if child.blocks != labels.blocks:
                stack.append((attrs, labels, i + 1))
                stack.append((attrs | {rest[i]}, child, i + 1))
                break
    reducts: list[frozenset[str]] = []
    for r in sorted(recorded, key=len):
        if not any(s < r for s in reducts):
            reducts.append(r)
    return frozenset(reducts)


def core_attributes(table: InformationSystem) -> frozenset[str]:
    """Attributes whose individual removal already coarsens the partition."""
    return frozenset(_indispensable(table)[1])
