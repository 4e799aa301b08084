"""Backward elimination, plus the exhaustive oracle that keeps it honest: a
core-first depth-first search over attribute subsets, capped by attribute
count.

The elimination pass drops ``a`` from the kept set ``R`` when
``block_count(R - a)`` equals ``block_count(C)``, ``C`` being all
conditional attributes.  This equals the paper's composed-base test: a
topology base is the block set of a partition, composing the low- and
high-group bases gives the partition of their union, and as ``R - a`` is a
subset of ``C`` the two partitions agree exactly when their block counts
do.

The paper tests the attributes in ascending-significance order to "reduce
the randomness" of which ones are eliminated; under this exact test that
order fixes nothing that the column order does not.  An attribute outside
the core (Pawlak, 1991: the attributes whose removal from ``C`` lowers its
block count) leaves ``C``'s partition as it is, so its significance is
exactly 0, and the ranking's stable sort keeps those attributes in column
order; a core attribute is kept whenever it is tested, as ``R - a`` lies
in ``C - a``, which already has fewer blocks.  So the reduct is the
column-order backward elimination, and the ranking and its low/high
groups set only the trace.

``eliminate`` reads that pass off the table
(``InformationSystem._elimination``, built by ``partition._elimination``
on one leave-one-out walk over ``C`` in column order): ``R - a`` is the
meet of the kept attributes before ``a`` and all attributes after it, the
paper's low/high composition taken at every candidate, so the pass makes
O(m) refinements and meets.  The walk drops the granules already alone in
their block, so on a wide table it touches O(|U/C|·log_k |U/C|) granule
entries rather than O(|U/C|·m).  No ranking or table walk is made, and no
walk re-measures the result ``R``.  Its sufficiency is the kernel's own
count at the last removal's test, whose set is ``R``; its necessity is a
certificate, the discernibility-matrix view of Skowron and Rauszer
(1992): each kept ``a`` carries a witness pair (``partition._witness``),
two granules in one block of the grouping that tested ``a`` that differ
on ``a``, and ``partition._alone`` checks on their raw codes that they
differ on ``a`` alone among ``R``; this module only passes the pairs
along.  A ``reduct`` call therefore makes one walk.

The core (Pawlak, 1991: the attributes whose removal from ``C`` lowers
its block count) comes off the same pass (``_indispensable``).  A removed
attribute is not core, as a subset of ``C - a`` kept ``C``'s count.  A
kept attribute whose pair differs on it alone among ``C`` is a singleton
entry of the discernibility matrix, so it is core.  Every other kept
attribute's pair also differs on a removed attribute, and those
attributes alone take their ``C - a`` counts from one walk over them,
from the grouping by the rest of ``C``.  So a ``reduct --exhaustive``
call makes one elimination walk, plus that walk when some kept pair
leaves the core open, and the oracle and ``eliminate`` share the pass.

The trace, which only ``--trace`` prints, is built when it is first read,
and keeps the table until then.  It ranks the attributes off the
table-order walk (``InformationSystem._table_walk``, the grouping by ``C``
and a dict from each ``a`` to the grouping of ``C - a``), which only
ranking reads, and gives each candidate's count by one of two cases.  A
removed attribute lies outside the core, so its significance is 0, and
the attributes of significance 0 keep column order in the stable sort; so
the removals ranked before such an ``a`` are those before it in column
order, and ``a`` takes the count that the elimination's walk measured.  An attribute of positive significance ranks
after every removal, so its set is ``R - a``, whose count one walk over
those attributes alone gives, started from the grouping by the rest of
``R`` as the core's walk is from the rest of ``C`` (``_without_each``),
and made only when something was removed and some significance is
positive.  Every walk ends at its last candidate, so each reader takes
it with one plain loop.

The oracle starts from the core's grouping and splits it one attribute
per node with the walk's own refinement, so its nodes strip too, and it
reads them, like everything here, only through their block counts.  All
of it runs on the table's granules, its distinct conditional rows, built
once per table and shared by every phase; any attribute set groups them
as it groups the objects, so every block count, and with it every verdict
and trace size, is the per-object one.  The neighbourhood and matrix
methods of :mod:`.topology` are now reference paths that the tests check
this against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Sequence

from .dataset import InformationSystem, _LazyTuple, conditional_attributes
from .errors import NotInRemaining, TooManyAttributes, UnknownAttribute
from .partition import _alone, _grouping, _leave_one_out, _split, block_count
from .significance import (
    GroupPolicy, ThresholdSplit, _check_count, rank_attributes, split_groups,
)

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


def _without_each(table: InformationSystem, attrs: Sequence[str],
                  walked: Sequence[str]) -> dict[str, int]:
    """The block count of ``attrs - a`` for each ``a`` of ``walked``, a
    subset of ``attrs`` in column order: one leave-one-out walk over
    ``walked`` alone, from the grouping by the rest of ``attrs``, so that
    its candidates are exactly those sets.  No walk when ``walked`` is
    empty."""
    if not walked:
        return {}
    skip = set(walked)
    walk = _leave_one_out(_grouping(table._granules, [a for a in attrs if a not in skip]),
                          walked)
    next(walk)  # the grouping by all of attrs
    return {a: labels.blocks for a, labels in zip(walked, walk)}


def _indispensable(table: InformationSystem) -> tuple[int, tuple[str, ...]]:
    """The block count of the conditional attributes ``C`` and the core
    (Pawlak, 1991) in table order, those whose removal lowers it, off the
    table's kept elimination pass.  A removed attribute is not core; a kept
    one is core when its witness pair differs on it alone among ``C``
    (``_alone``), and every other kept one takes its ``C - a`` count from
    one walk over those attributes alone (``_without_each``)."""
    full_count, _, witnesses, _ = table._elimination
    cond = conditional_attributes(table)
    sure = _alone(table._granules, cond, witnesses)
    counts = _without_each(table, cond, [a for a in witnesses if a not in sure])
    return full_count, tuple(a for a in witnesses if a in sure or counts[a] != full_count)


def is_redundant(table: InformationSystem, attribute: str, remaining: Iterable[str]) -> bool:
    """True when dropping the attribute from ``remaining`` preserves the base
    of the full conditional set."""
    cond = conditional_attributes(table)
    remaining_set = set(remaining)
    if attribute not in cond:
        raise UnknownAttribute(attribute)
    if attribute not in remaining_set:
        raise NotInRemaining(attribute)
    candidate = [a for a in remaining_set if a != attribute]
    return block_count(table, candidate) == block_count(table, cond)


def _traced(table: InformationSystem, policy: GroupPolicy, full_count: int,
            reduct: tuple[str, ...], dropped: set[str],
            tested: dict[str, int]) -> Iterator[TraceEntry]:
    """The trace entries of the elimination pass that keeps ``reduct`` and
    removes ``dropped``, in ranked order under ``policy``, made when the
    first entry is read.  An attribute of significance 0 takes the count
    that the column-order pass measured, ``tested``; one of positive
    significance is ranked after every removal, so its set is ``R - a``.
    Those counts come from one walk over the attributes of positive
    significance alone (``_without_each``), from the grouping by the rest of
    ``R``.  That walk is made only when some significance is positive and
    something was removed, as otherwise ``R = C`` and ``tested`` holds the
    ``C - a`` counts."""
    grouping = split_groups(rank_attributes(table), policy)
    low = set(grouping.low_group)
    positive = {a for a, sig in grouping.ranked if sig}
    counts = tested
    if dropped:
        counts = tested | _without_each(table, reduct, [a for a in reduct if a in positive])
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
    """Run the full elimination pass and certify minimality of the result.

    Each conditional attribute is tested once, in column order, and a
    redundant one is removed immediately and stays removed: the table's
    elimination pass (``InformationSystem._elimination``), which the core
    and the oracle read too, so after ``exhaustive_reducts`` this call makes
    no walk.
    This is the significance-ordered pass: every attribute outside the core
    has significance 0, and the ranking's stable sort keeps those in column
    order, while every core attribute is kept whenever it is tested.  The
    result ``R`` keeps the block count of ``C`` by construction: every
    attribute tested after the last removal ``b`` was kept, so ``R`` is the
    set that ``b``'s test measured, or ``C`` when nothing was removed.  It
    is verified minimal when every member's witness pair differs on that
    member alone among ``R`` (``_alone``), so no walk re-measures
    ``R``.  ``policy`` is checked now and sets only the trace, a lazy
    tuple that ranks the attributes and builds its entries when one is
    read, and keeps the table until then.
    """
    cond = conditional_attributes(table)
    _check_count(policy, len(cond))
    full_count, removed, witnesses, tested = table._elimination
    dropped = set(removed)
    reduct = tuple(a for a in cond if a not in dropped)
    return ReductResult(
        reduct=reduct,
        removed=tuple(removed),
        trace=_LazyTuple(len(cond), _traced(table, policy, full_count, reduct, dropped,
                                             tested)),
        verified_minimal=_alone(table._granules, reduct, witnesses) == set(reduct),
    )


def exhaustive_reducts(
    table: InformationSystem, max_attrs: int = DEFAULT_MAX_ATTRS
) -> frozenset[frozenset[str]]:
    """All minimal attribute subsets preserving the full partition.

    A core-first depth-first search; refuses tables wider than ``max_attrs``
    before any walk.  Every reduct contains the core, which it reads off the
    table's elimination pass (``_indispensable``), the pass ``eliminate``
    then reads too; so the search starts from the core's grouping and adds
    the other attributes in column order, one ``_split`` per node.  A node
    that reaches the full block count is recorded and not extended, and a
    child that splits no block of its parent is cut, as every superset of
    it would keep a redundant attribute.  The search records every reduct,
    and each recorded set that is not one holds a reduct, which sorts
    before it by length; so, taken by length, a recorded set is a reduct
    exactly when it holds none of the reducts kept so far.
    """
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
    """Attributes whose individual removal already coarsens the partition,
    read off the table's elimination pass (``_indispensable``)."""
    return frozenset(_indispensable(table)[1])
