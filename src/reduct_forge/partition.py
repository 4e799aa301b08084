"""Indiscernibility partitions and the positive-region machinery on top of them.

The reduct path runs on ``_leave_one_out``, ``_refine`` and
``_dependency_of``, plus :func:`projections` for the exhaustive oracle's
root.  ``_leave_one_out`` is the paper's composition of a low- and a
high-significance base, a partition meet, taken at every candidate: the
labels of ``R - a`` pair the kept attributes before ``a`` with all
attributes after it, so ranking, elimination and the minimality check each
cost O(n·m) instead of rebuilding an m-attribute projection per attribute.
``_refine`` splits labels by one attribute, one pass per call over the
table's coded column, keyed by the int ``label * k + code`` where ``k`` is
the column's value count; ``_dependency_of`` turns labels into a dependency
degree against decision labels read once per ranking.  Object sets are bitsets over ``0..n-1``
backed by Python big ints; they, :class:`Partition`, :func:`positive_region`
and :func:`gamma` are the reference path the kernel is tested against.
Every partition, from :func:`ind_partition`, :func:`decision_partition`,
:func:`meet` or :meth:`Partition.singletons`, is grouped from per-object
keys by one routine, ``_grouped_partition``.  Dependency degrees are exact
:class:`fractions.Fraction` values; nothing downstream compares floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Generator, Iterable, Iterator, Sequence

from .dataset import InformationSystem, conditional_attributes
from .errors import UnknownAttribute, UniverseMismatch


@dataclass(frozen=True, slots=True, repr=False)
class ObjectSet:
    """Immutable set of object indices drawn from a fixed universe ``0..n-1``."""

    mask: int
    universe_size: int

    def __post_init__(self) -> None:
        if self.mask < 0 or self.mask >> self.universe_size:
            raise ValueError("mask has bits outside the universe")

    @classmethod
    def from_indices(cls, indices: Iterable[int], universe_size: int) -> "ObjectSet":
        mask = 0
        for i in indices:
            if not 0 <= i < universe_size:
                raise ValueError(f"object index {i} outside universe of {universe_size}")
            mask |= 1 << i
        return cls(mask, universe_size)

    @classmethod
    def full(cls, universe_size: int) -> "ObjectSet":
        return cls((1 << universe_size) - 1, universe_size)

    def _check(self, other: "ObjectSet") -> None:
        if self.universe_size != other.universe_size:
            raise UniverseMismatch(self.universe_size, other.universe_size)

    def __and__(self, other: "ObjectSet") -> "ObjectSet":
        self._check(other)
        return ObjectSet(self.mask & other.mask, self.universe_size)

    def __or__(self, other: "ObjectSet") -> "ObjectSet":
        self._check(other)
        return ObjectSet(self.mask | other.mask, self.universe_size)

    def __sub__(self, other: "ObjectSet") -> "ObjectSet":
        self._check(other)
        return ObjectSet(self.mask & ~other.mask, self.universe_size)

    def issubset(self, other: "ObjectSet") -> bool:
        self._check(other)
        return self.mask & ~other.mask == 0

    def __contains__(self, index: int) -> bool:
        return 0 <= index < self.universe_size and (self.mask >> index) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        mask = self.mask
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def min_element(self) -> int:
        if not self.mask:
            raise ValueError("empty set has no minimum element")
        return (self.mask & -self.mask).bit_length() - 1

    def indices(self) -> tuple[int, ...]:
        return tuple(self)

    def sort_key(self) -> tuple[int, int, tuple[int, ...]]:
        """Canonical family order: (min element, size, member indices)."""
        return (self.min_element(), len(self), self.indices())

    def __repr__(self) -> str:
        return "{" + ",".join(str(i) for i in self) + "}"


@dataclass(frozen=True)
class Partition:
    """Pairwise-disjoint nonempty blocks covering the universe.

    Blocks are kept sorted by their minimum element, so equality is plain
    positional comparison.
    """

    universe_size: int
    blocks: tuple[ObjectSet, ...]

    @classmethod
    def from_blocks(cls, blocks: Iterable[ObjectSet], universe_size: int) -> "Partition":
        ordered = sorted((b for b in blocks if b), key=lambda b: b.min_element())
        covered = 0
        for block in ordered:
            if block.universe_size != universe_size:
                raise UniverseMismatch(block.universe_size, universe_size)
            if covered & block.mask:
                raise ValueError("blocks are not pairwise disjoint")
            covered |= block.mask
        if covered != (1 << universe_size) - 1:
            raise ValueError("blocks do not cover the universe")
        return cls(universe_size, tuple(ordered))

    @classmethod
    def singletons(cls, universe_size: int) -> "Partition":
        return _grouped_partition(range(universe_size), universe_size)

    @classmethod
    def trivial(cls, universe_size: int) -> "Partition":
        return cls(universe_size, (ObjectSet.full(universe_size),))

    def block_of(self, index: int) -> ObjectSet:
        for block in self.blocks:
            if index in block:
                return block
        raise ValueError(f"object {index} outside universe")

    def refines(self, other: "Partition") -> bool:
        """True when every block of self sits inside one block of other."""
        if self.universe_size != other.universe_size:
            raise UniverseMismatch(self.universe_size, other.universe_size)
        return all(block.issubset(other.block_of(block.min_element())) for block in self.blocks)

    def __len__(self) -> int:
        return len(self.blocks)


def _grouped_partition(keys: Iterable[object], universe_size: int) -> Partition:
    """One block per distinct key.  Keys enter the dict at their first object,
    so blocks come out ordered by minimum element, as Partition requires."""
    groups: dict[object, int] = {}
    for i, key in enumerate(keys):
        groups[key] = groups.get(key, 0) | (1 << i)
    return Partition(universe_size, tuple(ObjectSet(m, universe_size) for m in groups.values()))


def _block_labels(p: Partition) -> list[int]:
    """Each object's block index in ``p``."""
    labels = [0] * p.universe_size
    for j, block in enumerate(p.blocks):
        for x in block:
            labels[x] = j
    return labels


def _decision_labels(table: InformationSystem) -> Sequence[object]:
    """Each object's decision label; under the identity policy, its own index."""
    return range(table.object_count) if table.decision is None else table.column(table.decision)


def _refine(table: InformationSystem, keys: list[int], name: str) -> list[int]:
    """``keys`` split by attribute ``name`` in one pass: two rows get the same
    new number exactly when they had the same key and agree on ``name``.
    Numbers are dense, ``0`` up to the block count minus one.  The pass groups
    on ``key * k + code``, where ``code`` is the row's code in the column and
    ``k`` the column's value count, so it allocates no tuple per row."""
    c = table.attributes.index(name)
    codes, k = table.rows.codes[c], len(table.rows.values[c])
    ids: dict[int, int] = {}
    return [ids.setdefault(key * k + code, len(ids)) for key, code in zip(keys, codes)]


def projections(table: InformationSystem, attrs: Iterable[str]) -> list[int]:
    """Each row restricted to ``attrs``, as a number: two rows get the same
    number exactly when they agree on every attribute in ``attrs``."""
    # Refined one attribute at a time on int keys: row-tuple keys of many
    # lengths would each leave up to 2000 tuples in CPython's free lists.
    allowed = set(conditional_attributes(table))
    keys = [0] * table.object_count
    for name in attrs:
        if name not in allowed:
            raise UnknownAttribute(name)
        keys = _refine(table, keys, name)
    return keys


def _leave_one_out(
    table: InformationSystem, attrs: Sequence[str]
) -> Generator[list[int], bool | None, None]:
    """Per-object keys for every attribute set that leaves one of ``attrs`` out.

    The first value yielded is the projections of all of ``attrs``.  Then, for
    each ``attrs[i]`` in turn, it yields keys of the kept attributes before
    ``attrs[i]`` together with all of ``attrs[i + 1:]``; ``attrs[i]`` is kept
    unless the value sent back for them is ``False``, so plain iteration
    keeps every attribute (the value sent back for the first yield is
    ignored).  This is the paper's composition of a low and a high base, a
    partition meet, taken at every candidate: the suffix labels are refined
    once from the back, the kept prefix one attribute at a time, and each
    candidate pairs them in one pass, so the walk is O(n·m) in all.
    """
    n = table.object_count
    suffixes = [[0] * n]  # suffixes[-1 - j] holds the labels of attrs[j:]
    for name in reversed(attrs):
        suffixes.append(_refine(table, suffixes[-1], name))
    yield suffixes.pop()
    prefix = [0] * n
    for name in attrs:
        suffix = suffixes.pop()
        width = max(suffix, default=0) + 1
        if (yield [p * width + s for p, s in zip(prefix, suffix)]) is not False:
            prefix = _refine(table, prefix, name)


def block_count(table: InformationSystem, attrs: Iterable[str]) -> int:
    """Number of blocks of ``ind_partition(table, attrs)``, without building it."""
    return len(set(projections(table, attrs)))


def dependency(table: InformationSystem, attrs: Iterable[str]) -> Fraction:
    """``gamma(ind_partition(table, attrs), decision_partition(table))``."""
    return _dependency_of(_decision_labels(table), projections(table, attrs))


def _dependency_of(labels: Sequence[object], keys: list[int]) -> Fraction:
    """The dependency degree of the grouping by ``keys`` against the
    per-object decision ``labels``, in one dict pass from key to label, or
    ``mixed`` once two differ."""
    mixed = object()
    label_of: dict[int, object] = {}
    for key, label in zip(keys, labels):
        if label_of.setdefault(key, label) != label:
            label_of[key] = mixed
    return Fraction(sum(1 for key in keys if label_of[key] is not mixed), len(keys))


def ind_partition(table: InformationSystem, attrs: Iterable[str]) -> Partition:
    """Group objects that agree on every attribute in ``attrs``.

    The empty attribute set discerns nothing and yields the one-block
    partition.
    """
    return _grouped_partition(projections(table, attrs), table.object_count)


def decision_partition(table: InformationSystem) -> Partition:
    """Decision classes: singletons under the identity policy, else the
    grouping induced by the decision column."""
    return _grouped_partition(_decision_labels(table), table.object_count)


def meet(p: Partition, q: Partition) -> Partition:
    """Common refinement: all nonempty pairwise block intersections."""
    if p.universe_size != q.universe_size:
        raise UniverseMismatch(p.universe_size, q.universe_size)
    return _grouped_partition(zip(_block_labels(p), _block_labels(q)), p.universe_size)


def positive_region(cond: Partition, dec: Partition) -> ObjectSet:
    """Union of condition blocks wholly inside a single decision block."""
    if cond.universe_size != dec.universe_size:
        raise UniverseMismatch(cond.universe_size, dec.universe_size)
    mask = 0
    for block in cond.blocks:
        home = dec.block_of(block.min_element())
        if block.mask & ~home.mask == 0:
            mask |= block.mask
    return ObjectSet(mask, cond.universe_size)


def gamma(cond: Partition, dec: Partition) -> Fraction:
    """Dependency degree: |positive region| / |universe|, exact."""
    pos = positive_region(cond, dec)
    return Fraction(len(pos), cond.universe_size)
