"""Indiscernibility partitions and the positive-region machinery on top of them.

The reduct path walks the table's granules, not its objects: U/C, the
distinct conditional rows in first-occurrence order, each with its object
count and its decision code, or a mixed sentinel when its objects disagree.
``InformationSystem._granules`` folds the table's stored distinct rows,
weighted by their object counts, once per table (``_granulate``), so after
the one keying pass at load nothing touches each object and the kernel's
cost scales with |U/C|.  A table stored per object, because few of its rows repeat, is
walked through ``_objects``, the per-object view; ``_objects`` and
``_granulate`` are the kernel's only readers of a table's storage.
Any attribute set groups the granules as it groups their objects, so block
counts agree, and a block lies in the positive region exactly when its
granules share one unmixed label; the weights of those granules sum to its
share of |POS|.

On that view the kernel is ``_leave_one_out``, ``_refine`` and
``_dependency_of``, plus :func:`block_count` and :func:`dependency`.
``_leave_one_out`` is the paper's composition of a low- and a
high-significance base, a partition meet, taken at every candidate: the
labels of ``R - a`` pair the kept attributes before ``a`` with all
attributes after it, so ranking, elimination and the minimality check each
cost O(|U/C|·m) instead of rebuilding an m-attribute projection per
attribute.  ``_refine`` splits labels by one attribute, one pass per call
over a coded column, keyed by the int ``label * k + code`` where ``k`` is
the column's value count; ``_dependency_of`` turns labels into a weighted
dependency degree.

:func:`projections`, :func:`ind_partition`, :func:`decision_partition`,
:func:`meet`, :func:`positive_region` and :func:`gamma` stay per object:
they, the bitset object sets over ``0..n-1`` backed by Python big ints and
:class:`Partition` are the reference path the kernel is tested against.
Every partition, from :func:`ind_partition`, :func:`decision_partition`,
:func:`meet` or :meth:`Partition.singletons`, is grouped from per-object
keys by one routine, ``_grouped_partition``.  Dependency degrees are exact
:class:`fractions.Fraction` values; nothing downstream compares floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, count, repeat
from operator import is_not
from typing import Generator, Iterable, Iterator, Sequence

from .dataset import InformationSystem
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


_MIXED = object()  # the label of a granule whose objects disagree on the decision


class _Granules:
    """The kernel's view of a table: U/C in first-occurrence order or, for a
    table stored per object, its objects, each a granule of its own.

    ``columns`` maps each conditional attribute, in table order, to the
    granules' codes and the column's value count; ``weights`` holds each
    granule's object count, or is ``None`` when each is one object, and
    ``labels`` its decision code (under the identity policy, its object's
    or its one stored row's index), or ``_MIXED`` when its objects disagree
    on the decision.  A
    plain class, not a dataclass: building one costs about 1 ms at import.
    """

    __slots__ = ("columns", "weights", "labels", "object_count")

    def __init__(self, columns: dict[str, tuple[Sequence[int], int]],
                 weights: Sequence[int] | None, labels: Sequence[object],
                 object_count: int) -> None:
        self.columns, self.weights = columns, weights
        self.labels, self.object_count = labels, object_count


def _columns(table: InformationSystem,
             codes: Sequence[Sequence[int]]) -> dict[str, tuple[Sequence[int], int]]:
    """Each attribute of ``table``, in table order, mapped to its column in
    ``codes`` and the column's value count."""
    return {name: (column, len(values))
            for name, column, values in zip(table.attributes, codes, table.rows.values)}


def _objects(table: InformationSystem) -> _Granules:
    """The per-object view of ``table`` over its per-object code columns,
    each object labelled by its decision code, or by its own index under the
    identity policy; with ``_granulate``, the kernel's only reader of the
    table's storage."""
    rows = table.rows
    columns = _columns(table, rows.object_codes())
    if table.decision is None:
        labels: Sequence[int] = range(rows.n)
    else:
        labels = columns.pop(table.decision)[0]
    return _Granules(columns, None, labels, rows.n)


def _granulate(table: InformationSystem) -> _Granules:
    """The granule view of ``table``, folded in one pass over its stored
    rows, each weighted by its object count; ``table._granules`` builds it
    once per table.  Stored rows that differ only in the decision, or in
    whitespace, fall in one granule.  A table stored per object, because
    fewer than one row in 16 repeats, is walked per object."""
    rows = table.rows
    if rows.index is None:
        return _objects(table)
    columns = _columns(table, rows.codes)
    if table.decision is None:
        # Each object is its own decision class, so a row of two or more
        # objects is mixed; a row of one is labelled by its own index.
        labels = [r if w == 1 else _MIXED for r, w in enumerate(rows.weights)]
    else:
        labels = columns.pop(table.decision)[0]
    # Each row's granule is named by the granule's first row, so names and
    # the weights and labels keyed by them come in first-occurrence order.
    # zip() of no columns is empty, but with no conditional attribute every
    # row falls in one granule.
    first: dict[tuple[int, ...], int] = {}
    owner = map(first.setdefault, zip(*(c for c, _ in columns.values()))
                if columns else repeat((), len(labels)), count())
    label_of: dict[int, object] = {}
    weight_of: dict[int, int] = {}
    for g, label, weight in zip(owner, labels, rows.weights):
        if label_of.setdefault(g, label) != label:
            label_of[g] = _MIXED
        weight_of[g] = weight_of.get(g, 0) + weight
    folded = {name: (codes, k) for (name, (_, k)), codes in zip(columns.items(), zip(*first))}
    return _Granules(folded, list(weight_of.values()), tuple(label_of.values()), rows.n)


def _refine(view: _Granules, keys: list[int], name: str) -> list[int]:
    """``keys`` split by attribute ``name`` in one pass over the granules of
    ``view``: two granules get the same new number exactly when they had the
    same key and agree on ``name``.  Numbers are dense, ``0`` up to the block
    count minus one.  The pass groups on ``key * k + code``, where ``code``
    is the granule's code in the column and ``k`` the column's value count,
    so it allocates no tuple per granule."""
    codes, k = view.columns[name]
    ids: dict[int, int] = {}
    return [ids.setdefault(key * k + code, len(ids)) for key, code in zip(keys, codes)]


def _projections(view: _Granules, attrs: Iterable[str]) -> list[int]:
    """Each granule of ``view`` restricted to ``attrs``, as a dense number; a
    name outside ``view.columns`` raises ``UnknownAttribute``."""
    # Refined one attribute at a time on int keys: row-tuple keys of many
    # lengths would each leave up to 2000 tuples in CPython's free lists.
    keys = [0] * len(view.labels)
    for name in attrs:
        if name not in view.columns:
            raise UnknownAttribute(name)
        keys = _refine(view, keys, name)
    return keys


def projections(table: InformationSystem, attrs: Iterable[str]) -> list[int]:
    """Each object restricted to ``attrs``, as a number: two objects get the
    same number exactly when they agree on every attribute in ``attrs``."""
    return _projections(_objects(table), attrs)


def _leave_one_out(
    view: _Granules, attrs: Sequence[str]
) -> Generator[list[int], bool | None, None]:
    """Per-granule keys of ``view`` for every attribute set that leaves one
    of ``attrs`` out.

    The first value yielded is the projections of all of ``attrs``.  Then, for
    each ``attrs[i]`` in turn, it yields keys of the kept attributes before
    ``attrs[i]`` together with all of ``attrs[i + 1:]``; ``attrs[i]`` is kept
    unless the value sent back for them is ``False``, so plain iteration
    keeps every attribute (the value sent back for the first yield is
    ignored).  This is the paper's composition of a low and a high base, a
    partition meet, taken at every candidate: the suffix labels are refined
    once from the back, the kept prefix one attribute at a time, and each
    candidate pairs them in one pass, so the walk is O(granules·m) in all.
    """
    size = len(view.labels)
    suffixes = [[0] * size]  # suffixes[-1 - j] holds the labels of attrs[j:]
    for name in reversed(attrs):
        suffixes.append(_refine(view, suffixes[-1], name))
    yield suffixes.pop()
    prefix = none_kept = [0] * size
    for name in attrs:
        suffix = suffixes.pop()
        width = max(suffix, default=0) + 1
        # A side that discerns nothing leaves the other side's labels as they are.
        if prefix is none_kept:
            keys = suffix
        elif width == 1:
            keys = prefix
        else:
            keys = [p * width + s for p, s in zip(prefix, suffix)]
        if (yield keys) is not False:
            prefix = _refine(view, prefix, name)


def block_count(table: InformationSystem, attrs: Iterable[str]) -> int:
    """Number of blocks of ``ind_partition(table, attrs)``, without building it."""
    return len(set(_projections(table._granules, attrs)))


def dependency(table: InformationSystem, attrs: Iterable[str]) -> Fraction:
    """``gamma(ind_partition(table, attrs), decision_partition(table))``."""
    view = table._granules
    return _dependency_of(view, _projections(view, attrs))


def _dependency_of(view: _Granules, keys: list[int]) -> Fraction:
    """The dependency degree of the grouping of ``view``'s granules by
    ``keys``: the weight of the blocks whose granules all carry one label
    other than ``_MIXED``, over the object count.  One dict pass maps each
    key to its label, or to ``_MIXED`` once two differ; the weights of the
    granules whose key kept a label are then summed without a Python loop."""
    label_of: dict[int, object] = {}
    for key, label in zip(keys, view.labels):
        if label_of.setdefault(key, label) != label:
            label_of[key] = _MIXED
    pure = map(is_not, map(label_of.__getitem__, keys), repeat(_MIXED))
    if view.weights is not None:
        pure = compress(view.weights, pure)
    return Fraction(sum(pure), view.object_count)


def ind_partition(table: InformationSystem, attrs: Iterable[str]) -> Partition:
    """Group objects that agree on every attribute in ``attrs``.

    The empty attribute set discerns nothing and yields the one-block
    partition.
    """
    return _grouped_partition(projections(table, attrs), table.object_count)


def decision_partition(table: InformationSystem) -> Partition:
    """Decision classes: singletons under the identity policy, else the
    grouping induced by the decision column."""
    return _grouped_partition(_objects(table).labels, table.object_count)


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
