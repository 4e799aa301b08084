"""Bases of the topology generated by attribute equivalence classes.

A sub-base here is the family of all attribute-wise equivalence classes of a
table.  Its topology has a coarsest base made of the minimal neighborhoods
N(x) = the intersection of all sub-base members containing x, that is, the
block of x in the indiscernibility partition.  The reduct path therefore
compares :func:`.kernel.block_count` values; both computations below are
reference paths that explain and check that count:

* :func:`minimal_neighborhoods`: the direct per-object intersection.
* :func:`base_from_indiscernibility_matrix`: iterated matrices of pairwise
  member intersections, deduplicated each round, until a round yields nothing
  unseen; the result picks, for every object, the smallest set produced in
  any round.  The two must always agree.

Bases over disjoint attribute groups compose: the base of the union of two
sub-bases equals the base of the union of their bases (:func:`compose_bases`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from .dataset import InformationSystem
from .errors import EmptyAttributeSet, NotACover, UniverseMismatch
from .partition import ObjectSet, ind_partition


@dataclass(frozen=True)
class SetFamily:
    """Distinct nonempty object sets over one universe, canonically ordered."""

    universe_size: int
    members: tuple[ObjectSet, ...]

    @classmethod
    def from_sets(cls, sets: Iterable[ObjectSet], universe_size: int) -> "SetFamily":
        distinct = {s for s in sets if s}
        for s in distinct:
            if s.universe_size != universe_size:
                raise UniverseMismatch(s.universe_size, universe_size)
        return cls(universe_size, tuple(sorted(distinct, key=ObjectSet.sort_key)))

    @property
    def covers_universe(self) -> bool:
        return _uncovered_witness(self) is None

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, s: ObjectSet) -> bool:
        return s in self.members


def subbase_of(table: InformationSystem, attrs: Iterable[str]) -> SetFamily:
    """All equivalence classes of the single-attribute partitions, deduplicated."""
    names = list(attrs)
    if not names:
        raise EmptyAttributeSet()
    n = table.object_count
    sets: list[ObjectSet] = []
    for name in names:
        sets.extend(ind_partition(table, [name]).blocks)
    return SetFamily.from_sets(sets, n)


def _uncovered_witness(family: SetFamily) -> int | None:
    covered = 0
    for m in family.members:
        covered |= m.mask
    full = (1 << family.universe_size) - 1
    if covered == full:
        return None
    return ((covered ^ full) & -(covered ^ full)).bit_length() - 1


def minimal_neighborhoods(family: SetFamily) -> SetFamily:
    """The coarsest base: one minimal neighborhood per object, deduplicated."""
    witness = _uncovered_witness(family)
    if witness is not None:
        raise NotACover(witness)
    n = family.universe_size
    neighborhoods: set[int] = set()
    for x in range(n):
        nb = (1 << n) - 1
        for m in family.members:
            if (m.mask >> x) & 1:
                nb &= m.mask
        neighborhoods.add(nb)
    return SetFamily.from_sets((ObjectSet(m, n) for m in neighborhoods), n)


def base_from_indiscernibility_matrix(family: SetFamily) -> SetFamily:
    """Base via iterated pairwise-intersection matrices.

    Each round intersects all pairs of distinct current members, drops empty
    results, and deduplicates; rounds continue until one produces no set that
    has not been seen before.  Every object then takes the smallest set seen
    in any round that contains it (objects missing from the last round are
    thereby recovered from earlier rounds).  The output always equals
    :func:`minimal_neighborhoods` of the same input.
    """
    witness = _uncovered_witness(family)
    if witness is not None:
        raise NotACover(witness)
    n = family.universe_size
    current = [m.mask for m in family.members]
    seen: set[int] = set(current)
    while True:
        produced: set[int] = set()
        for a, b in combinations(current, 2):
            inter = a & b
            if inter:
                produced.add(inter)
        unseen = produced - seen
        current = sorted(produced)
        seen |= produced
        if not unseen:
            break
    chosen: set[int] = set()
    for x in range(n):
        best = min(
            (m for m in seen if (m >> x) & 1),
            key=lambda m: (m.bit_count(), ObjectSet(m, n).sort_key()),
        )
        chosen.add(best)
    return SetFamily.from_sets((ObjectSet(m, n) for m in chosen), n)


def compose_bases(g1: SetFamily, g2: SetFamily) -> SetFamily:
    """Base of the union of two bases (hence of the union of their sub-bases)."""
    if g1.universe_size != g2.universe_size:
        raise UniverseMismatch(g1.universe_size, g2.universe_size)
    merged = SetFamily.from_sets((*g1.members, *g2.members), g1.universe_size)
    return minimal_neighborhoods(merged)


def family_equal(f1: SetFamily, f2: SetFamily) -> bool:
    """Extensional equality of canonicalized families."""
    if f1.universe_size != f2.universe_size:
        raise UniverseMismatch(f1.universe_size, f2.universe_size)
    return f1.members == f2.members
