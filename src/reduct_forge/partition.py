"""Per-object indiscernibility partitions: the reference path that the
kernel (:mod:`.kernel`) is tested against, sharing none of its code.

Object sets are bitsets over ``0..n-1`` backed by Python big ints.
:func:`projections` and :func:`decision_partition` group the stored rows by
their codes and read each object's group through its row index; every
partition is grouped from per-object keys by :func:`grouped`.  Dependency
degrees are exact :class:`fractions.Fraction` values.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, repeat
from typing import TYPE_CHECKING, Iterable, Iterator

from .errors import UnknownAttribute, UniverseMismatch

if TYPE_CHECKING:  # only annotations name it: the table module imports this one
    from .dataset import InformationSystem


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
        indices = list(indices)
        for i in indices:
            if not 0 <= i < universe_size:
                raise ValueError(f"object index {i} outside universe of {universe_size}")
        # One mask for all indices: an OR per index would copy the growing
        # mask each time.
        return cls(_mask(indices, max(indices)) if indices else 0, universe_size)

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
        # Bit i is the character ``top - i`` of the binary digits, so each
        # str.rfind skips a run of zeros in C: one pass over the mask, where
        # clearing the low bit per element would copy the mask each time.
        bits = bin(self.mask)
        top = len(bits) - 1
        j = bits.rfind("1")
        while j >= 0:
            yield top - j
            j = bits.rfind("1", 0, j)

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
    """Pairwise-disjoint nonempty blocks covering the universe, sorted by
    their minimum element, so equality is positional comparison."""

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


def grouped(keys: Iterable[object]) -> list[list[int]]:
    """The ascending list of objects of each distinct key, the ``i``-th key
    being object ``i``'s, ordered by their minimum element."""
    groups: defaultdict[object, list[int]] = defaultdict(list)
    for i, key in enumerate(keys):
        groups[key].append(i)
    return list(groups.values())


def _grouped_partition(keys: Iterable[object], universe_size: int) -> Partition:
    """One block per distinct key, in the order :func:`grouped` gives."""
    # Each mask is built once from its object list: an OR per object would
    # copy the growing mask each time.
    return Partition(universe_size, tuple(ObjectSet(_mask(indices, indices[-1]), universe_size)
                                          for indices in grouped(keys)))


def _mask(indices: Iterable[int], top: int) -> int:
    """The big-int mask of ``indices``, none above ``top``."""
    bits = bytearray((top >> 3) + 1)
    for i in indices:
        bits[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(bits, "little")


def _block_labels(p: Partition) -> list[int]:
    """Each object's block index in ``p``."""
    labels = [0] * p.universe_size
    for j, block in enumerate(p.blocks):
        for x in block:
            labels[x] = j
    return labels


def projections(table: InformationSystem, attrs: Iterable[str]) -> list[int]:
    """Each object's number over ``attrs``: two objects get the same number
    exactly when they agree on every attribute in ``attrs``.  A name outside
    the conditional attributes raises ``UnknownAttribute``."""
    rows = table.rows
    coded = {name: codes for name, codes in zip(table.attributes, rows.codes)
             if name != table.decision}
    columns = []
    for name in attrs:
        if name not in coded:
            raise UnknownAttribute(name)
        columns.append(coded[name])
    first: dict[tuple[int, ...], int] = {}
    # zip() of no columns is empty, but with no attribute every row has one
    # number.
    numbers = list(map(first.setdefault, zip(*columns) if columns
                       else repeat((), len(rows.weights)), count()))
    return list(map(numbers.__getitem__, rows.index))


def ind_partition(table: InformationSystem, attrs: Iterable[str]) -> Partition:
    """Group objects that agree on every attribute in ``attrs``; the empty
    set yields the one-block partition."""
    return _grouped_partition(projections(table, attrs), table.object_count)


def decision_partition(table: InformationSystem) -> Partition:
    """Decision classes: singletons under the identity policy, else the
    grouping by the decision column."""
    rows = table.rows
    if table.decision is None:
        return Partition.singletons(rows.n)
    codes = rows.codes[table.column_index(table.decision)]
    return _grouped_partition(map(codes.__getitem__, rows.index), rows.n)


def meet(p: Partition, q: Partition) -> Partition:
    """Common refinement: all nonempty pairwise block intersections."""
    if p.universe_size != q.universe_size:
        raise UniverseMismatch(p.universe_size, q.universe_size)
    return _grouped_partition(zip(_block_labels(p), _block_labels(q)), p.universe_size)


def positive_region(cond: Partition, dec: Partition) -> ObjectSet:
    """Union of condition blocks wholly inside a single decision block."""
    if cond.universe_size != dec.universe_size:
        raise UniverseMismatch(cond.universe_size, dec.universe_size)
    # Each object's decision block, looked up once: Partition.block_of scans
    # the blocks, so a call per condition block would make this quadratic.
    home = _block_labels(dec)
    mask = 0
    for block in cond.blocks:
        if block.mask & ~dec.blocks[home[block.min_element()]].mask == 0:
            mask |= block.mask
    return ObjectSet(mask, cond.universe_size)


def gamma(cond: Partition, dec: Partition) -> Fraction:
    """Dependency degree: |positive region| / |universe|, exact."""
    pos = positive_region(cond, dec)
    return Fraction(len(pos), cond.universe_size)
