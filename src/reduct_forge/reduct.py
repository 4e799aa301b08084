"""Significance-ordered backward elimination, plus the exhaustive oracle that
keeps it honest: a core-first depth-first search over attribute subsets,
capped by attribute count.

The elimination pass tests attributes in ascending-significance order and
drops ``a`` from the kept set ``R`` when ``block_count(R - a)`` equals
``block_count(C)``, ``C`` being all conditional attributes.  This equals the
paper's composed-base test: a topology base is the block set of a partition,
composing the low- and high-group bases gives the partition of their union,
and as ``R - a`` is a subset of ``C`` the two partitions agree exactly when
their block counts do.  The pass takes that composition at every candidate:
``R - a`` is the meet of the kept attributes ranked before ``a`` and all
attributes ranked after it, so one prefix/suffix walk
(``partition._leave_one_out``) gives every candidate's block count with
O(m) refinements and meets.  The walk drops the granules already alone in
their block, so on a wide table it touches O(|U/C|·log_k |U/C|) granule
entries rather than O(|U/C|·m).  Ranking, elimination, the core and the
block count of ``C`` all come from such walks, and read only each
grouping's ``blocks`` and ``dependency``.  The table-order
walk is made once per table and kept with it, read by attribute
(``InformationSystem._table_walk``, the grouping by ``C`` and a dict from
each ``a`` to the grouping of ``C - a``): ranking, the core, the oracle and
``eliminate`` all read it, so under ``--exhaustive`` the oracle, which runs
first, pays for it and ranking reuses it.  ``eliminate`` takes the core
off that walk (Pawlak, 1991: the attributes whose removal from ``C``
lowers its block count) and keeps it without a test, as no kept set less
a core attribute can do better than ``C`` less it.  The first non-core
attribute in ranked order is removed, and the other non-core ones are
tested in ranked order on one walk seeded with the core's grouping, which
the table keeps (``InformationSystem._core_grouping``) and the oracle
shares, so a table with at most one non-core attribute costs no walk of
its own.  No walk re-measures the result ``R``.  Its sufficiency is the
kernel's own count at the last removal's test, whose set is ``R``; its
necessity is a certificate, the discernibility-matrix view of Skowron and
Rauszer (1992): each kept ``a`` carries a witness pair (``partition._witness``),
two granules in one block of the grouping that tested ``a``, or of
``C - a`` for a core ``a``, that differ on ``a``, and
``partition._certified`` checks on their raw codes that they differ on
``a`` alone among ``R``; this module only passes the pairs along.  A
``reduct`` call therefore makes one walk on a table with at most one
non-core attribute and two with more.  The trace, which only
``--trace`` prints, reads its counts off what ``eliminate`` measured:
each candidate up to the first removal is some ``C - a`` off the table
walk, and each non-core candidate after it has the set that the
core-seeded walk tested.  Only a core attribute ranked after the first
removal needs a count of its own; then one ranked-order walk from there,
made when the trace is first read, gives the rest, and only then does the
unread trace keep the table alive.  Every walk ends at its last
candidate, so each reader takes it with one plain loop.  The oracle
starts from the core's grouping and splits it one attribute per node with
the walk's own refinement, so its nodes strip too, and it reads them,
like everything here, only through their block counts.  All of it runs
on the table's granules, its distinct conditional rows, built once per
table and shared by every phase; any attribute set groups them as it
groups the objects, so every block count, and with it every verdict and
trace size, is the per-object one.  The neighbourhood and matrix methods
of :mod:`.topology` are now reference paths that the tests check this
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Iterable, Iterator, NamedTuple, Sequence

from .dataset import InformationSystem, _LazyTuple, conditional_attributes
from .errors import NotInRemaining, TooManyAttributes, UnknownAttribute
from .partition import (
    _certified, _grouping, _leave_one_out, _split, _witness, block_count,
)
from .significance import (
    GroupPolicy, SignificanceTable, ThresholdSplit, rank_attributes, split_groups,
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


def _indispensable(table: InformationSystem) -> tuple[int, frozenset[str]]:
    """The block count of the conditional attributes and the core, those
    whose removal lowers it, both off the table's kept table-order walk."""
    return table._table_walk[0].blocks, frozenset(table._core)


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


def _verdicts(
    table: InformationSystem, ranked: Sequence[str]
) -> tuple[list[str], dict[str, tuple[int, int] | None], dict[str, int]]:
    """The elimination pass over ``ranked``: the attributes it removes, in
    order, each kept attribute's witness pair from ``partition._witness``,
    and the block count of each non-core candidate after the first removal.

    A core attribute ``a`` is kept without a test: every kept set ``R`` lies
    in ``C``, so ``R - a`` lies in ``C - a``, which already has fewer blocks
    than ``C``.  Its pair comes from the grouping of ``C - a`` off the
    table walk, and differs on ``a`` alone among ``C``, so also among ``R``.
    The first non-core attribute is removed, as nothing before it was and
    ``C`` less it keeps ``C``'s block count.  The other non-core attributes
    are tested in ranked order on one leave-one-out walk seeded with the
    table's kept core grouping, so with at most one non-core attribute no
    walk is made."""
    full_count, core = _indispensable(table)
    without = table._table_walk[1]
    witnesses = {a: _witness(without[a], a) for a in without if a in core}
    rest = [a for a in ranked if a not in core]
    removed = rest[:1]
    tested: dict[str, int] = {}
    if len(rest) > 1:
        walk = _leave_one_out(table._core_grouping, rest[1:])
        next(walk)  # the grouping of C less the first removal
        kept = True
        for attribute in rest[1:]:
            labels = walk.send(kept)
            tested[attribute] = labels.blocks
            kept = labels.blocks != full_count
            if kept:
                witnesses[attribute] = _witness(labels, attribute)
            else:
                removed.append(attribute)
    return removed, witnesses, tested


def _counts(table: InformationSystem, ranked: Sequence[str], dropped: set[str],
            tested: dict[str, int]) -> Iterable[int]:
    """Each candidate's block count in the elimination pass over ``ranked``
    that removes ``dropped``.  Up to and including the first removal each
    candidate is some ``C - a``, read off the table walk now.  After it, a
    non-core candidate's set is the core, the non-core attributes kept
    before it and those after it: the set that ``_verdicts`` measured, so
    its count is taken from ``tested``.  Only when a core attribute is
    ranked after the first removal is the rest given by a ranked-order
    walk (``_ranked_counts``), made when the counts are first read; only
    then do the counts hold the table."""
    without = table._table_walk[1]
    counts: list[int] = []
    for attribute in ranked:
        counts.append(without[attribute].blocks)
        if attribute in dropped:
            break
    later = ranked[len(counts):]
    if all(map(tested.__contains__, later)):
        return counts + [tested[a] for a in later]
    return chain(counts, _ranked_counts(table, ranked, dropped, len(counts) - 1))


def _ranked_counts(table: InformationSystem, ranked: Sequence[str], dropped: set[str],
                   i: int) -> Iterator[int]:
    """The block counts of the candidates after the first removal,
    ``ranked[i]``, from one leave-one-out walk over the attributes kept so
    far and then the untested ones, in ranked order."""
    # What is sent back says whether the previous candidate stays; those
    # tested before the first removal keep their C - a counts.
    rest = ranked[:i] + ranked[i + 1:]
    walk = _leave_one_out(_grouping(table._granules, ()), rest)
    next(walk)
    kept = True
    for j, attribute in enumerate(rest):
        labels = walk.send(kept)
        kept = attribute not in dropped
        if j >= i:
            yield labels.blocks


def _traced(grouping: SignificanceTable, dropped: set[str], full_count: int,
            counts: Iterable[int]) -> Iterator[TraceEntry]:
    """The trace entries of the elimination pass, whose candidates' block
    counts ``counts`` gives, in ranked order."""
    low = set(grouping.low_group)
    for (attribute, sig), count in zip(grouping.ranked, counts):
        yield TraceEntry(
            attribute=attribute,
            significance=sig,
            group="low" if attribute in low else "high",
            verdict="redundant" if attribute in dropped else "kept",
            base_size_before=full_count,
            base_size_after=count,
        )


def eliminate(
    table: InformationSystem, policy: GroupPolicy = ThresholdSplit()
) -> ReductResult:
    """Run the full elimination pass and certify minimality of the result.

    Each attribute is tested once, in ascending-significance order; a
    redundant attribute is removed immediately and stays removed
    (``_verdicts``), and a core attribute is kept without a test.  The
    result ``R`` keeps the block count of ``C`` by construction: every
    attribute tested after the last removal ``b`` was kept, so ``R`` is the
    set that ``b``'s test measured, or ``C`` when nothing was removed.  It
    is verified minimal when every member's witness pair differs on that
    member alone among ``R`` (``_certified``), so no walk re-measures
    ``R``.  The trace is a lazy tuple whose entries are built when one is
    read; its block counts (``_counts``) are those the pass measured, and
    only a core attribute ranked after the first removal leaves a walk to
    be made then.
    """
    grouping = split_groups(rank_attributes(table), policy)
    ranked = grouping.attributes
    removed, witnesses, tested = _verdicts(table, ranked)
    dropped = set(removed)
    reduct = tuple(a for a in conditional_attributes(table) if a not in dropped)
    counts = _counts(table, ranked, dropped, tested)
    return ReductResult(
        reduct=reduct,
        removed=tuple(removed),
        trace=_LazyTuple(len(ranked), _traced(grouping, dropped, table._table_walk[0].blocks,
                                              counts)),
        verified_minimal=_certified(table._granules, reduct, witnesses),
    )


def exhaustive_reducts(
    table: InformationSystem, max_attrs: int = DEFAULT_MAX_ATTRS
) -> frozenset[frozenset[str]]:
    """All minimal attribute subsets preserving the full partition.

    A core-first depth-first search; refuses tables wider than ``max_attrs``.
    Every reduct contains the core, so the search starts from the core's
    grouping and adds the other attributes in column order, one ``_split``
    per node.  A node that reaches the full block count is recorded and not
    extended, and a child that splits no block of its parent is cut, as
    every superset of it would keep a redundant attribute.  The search
    records every reduct, and each recorded set that is not one holds a
    reduct, which sorts before it by length; so, taken by length, a recorded
    set is a reduct exactly when it holds none of the reducts kept so far.
    """
    cond = conditional_attributes(table)
    if len(cond) > max_attrs:
        raise TooManyAttributes(len(cond), max_attrs)
    full_count, core = _indispensable(table)
    rest = [a for a in cond if a not in core]
    recorded: list[frozenset[str]] = []
    # An explicit stack of (attrs, labels, next child), so that depth is not
    # bounded by the recursion limit; a node resumes after each child.
    stack = [(core, table._core_grouping, 0)]
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
    return _indispensable(table)[1]
