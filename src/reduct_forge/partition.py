"""Indiscernibility partitions and the positive-region machinery on top of them.

The reduct path walks the table's granules, not its objects: its stored
distinct rows, or those rows folded into U/C, the distinct conditional
rows, each in first-occurrence order with its object count and its
decision code, or a mixed sentinel when its objects disagree.
``InformationSystem._granules`` builds the view once per table
(``_granulate``), so after the one keying pass at load nothing touches each
object and the kernel's cost scales with the stored rows.  ``_granulate``
alone decides whether folding pays: under the identity decision the stored
rows are the granules, and under a named decision they are folded on their
conditional codes when at least one in 16 repeats there.  It is the
kernel's only reader of a table's storage.  Any attribute set groups the
granules as it groups their objects, so block counts agree, and a block
lies in the positive region exactly when its granules share one unmixed
label; the weights of those granules sum to its share of |POS|.

On that view the kernel has one grouping form, :class:`_Labels`, and one
refinement, ``_refine``, which refines a grouping by one code per granule
it keys: ``_split`` refines it by an attribute's column, and ``_meet``
refines one grouping by the other's keys.  ``_refine`` alone tells when a
refinement changes nothing, as every granule is alone already or every
code is 0, and then returns the grouping it was given, so a split by a
one-value column and a meet with the one-block grouping return a side
unchanged.  A grouping carries its view, so
``_split``, ``_meet`` and ``_leave_one_out`` take groupings alone; only
``_grouping`` and ``_table_order_walk``, which start from the view, take
one.  ``_grouping`` splits
the one-block grouping by each of a set's attributes; :func:`block_count`,
:func:`dependency` and the exhaustive oracle's root, the core's grouping,
start there, and the oracle's depth-first search splits one attribute per
node.  ``_leave_one_out`` is the paper's composition of a low- and a
high-significance base, a partition meet, taken at every candidate: from
a seed grouping, the grouping of ``R - a`` meets the kept attributes
before ``a`` with all attributes after it, so ranking and elimination
each make O(m) refinements and meets instead of rebuilding an
m-attribute projection per attribute.  The table keeps two walks over
all conditional attributes ``C``, each from the one-block grouping: the
table-order walk (``_table_order_walk``), read by attribute as a dict from
each ``a`` to the grouping of ``C - a``, which only ranking reads, and the
elimination pass (``_elimination``), which drops each redundant attribute
from its prefix as it goes and which ``eliminate``, the core and the
exhaustive oracle read.  A walk over some attributes alone starts from the
grouping by the rest of a set: the trace's, over the reduct's attributes
of positive significance, and the core's, over the kept attributes that
the elimination's pairs leave open.  The walk ends at its last candidate,
so its readers take it with one plain loop or ``tuple``.
Every reader takes only a grouping's block count and dependency degree,
never its label lists or the view's code columns.
Those are read here for elimination: ``_witness`` finds in the grouping
of ``R - a`` two granules of one block that differ on ``a``, the pair
that shows ``a`` cannot leave ``R``, and ``_alone`` checks on the raw
codes which pairs differ on their attribute alone among a set, the
discernibility-matrix view of Skowron and Rauszer (1992): over ``R`` it
certifies that ``R`` is minimal, and over ``C`` it names core attributes
with no walk.
Refinement never merges blocks, so a granule alone in its block stays
alone in every finer grouping and meet: every refinement ends in
``_stripped``, which drops such granules, the stripped partitions of TANE
(Huhtala et al., 1999), and keeps only the rest.  On a wide table almost
every granule is alone after about log_k |U/C| attributes, so a walk
touches O(|U/C|·log_k |U/C|) granule entries, not O(|U/C|·m), and the
block count, dependency and witness search of a stripped ``C - a`` pass
over a few rows.  Labels are mixed-radix ints whose keys left after the
strip are renumbered once their bound passes one int digit (``_refine``),
so they are neither dense nor in first-occurrence order, and a stripped
list has none for its lone granules.

:func:`projections`, :func:`ind_partition`, :func:`decision_partition`,
:func:`meet`, :func:`positive_region` and :func:`gamma` answer per object:
they, the bitset object sets over ``0..n-1`` backed by Python big ints and
:class:`Partition` are the reference path the kernel is tested against.
That path shares none of the kernel's code: :func:`projections` and
:func:`decision_partition` group the stored rows by their codes in one
dict pass and read each object's group through its row index.
Every partition, from :func:`ind_partition`, :func:`decision_partition`,
:func:`meet` or :meth:`Partition.singletons`, and the object lists that the
``partition`` command prints, are grouped from per-object keys by one
routine, :func:`grouped`.  Dependency degrees are exact
:class:`fractions.Fraction` values; nothing downstream compares floats.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, count, repeat
from operator import is_not
from typing import TYPE_CHECKING, Generator, Iterable, Iterator, Sequence

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


def grouped(keys: Iterable[object]) -> list[list[int]]:
    """The ascending list of objects of each distinct key, the ``i``-th key
    being object ``i``'s.  Keys enter the dict at their first object, so
    the lists come out ordered by their minimum element."""
    groups: defaultdict[object, list[int]] = defaultdict(list)
    for i, key in enumerate(keys):
        groups[key].append(i)
    return list(groups.values())


def _grouped_partition(keys: Iterable[object], universe_size: int) -> Partition:
    """One block per distinct key, in the order :func:`grouped` gives, as
    Partition requires.  Each block's mask is built once from its object
    list: an OR per object would copy the growing mask each time."""
    return Partition(universe_size, tuple(ObjectSet(_mask(indices, indices[-1]), universe_size)
                                          for indices in grouped(keys)))


def _mask(indices: Iterable[int], top: int) -> int:
    """The big-int mask of ``indices``, none above ``top``, set bit by bit
    in a byte buffer and converted once."""
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


_MIXED = object()  # the label of a granule whose objects disagree on the decision


class _Granules:
    """The kernel's view of a table: its granules, each a stored row or a
    fold of stored rows, in first-occurrence order.

    ``columns`` maps each conditional attribute, in table order, to the
    granules' codes and the column's value count; ``weights`` holds each
    granule's object count and ``labels`` its decision code (under the
    identity policy, its stored row's index), or ``_MIXED`` when its
    objects disagree on the decision.  ``unmixed`` is the weight of the
    granules whose objects agree on the decision, summed once here: a
    stripped grouping's ``dependency`` starts from it.  Two granules may
    carry the same codes, when stored rows that differ only in the decision
    or in whitespace are not folded; every reader groups granules by their
    keys, so such granules share each block.  A plain class, not a dataclass:
    building one costs about 1 ms at import.
    """

    __slots__ = ("columns", "weights", "labels", "object_count", "unmixed")

    def __init__(self, columns: dict[str, tuple[Sequence[int], int]],
                 weights: Sequence[int], labels: Sequence[object],
                 object_count: int) -> None:
        self.columns, self.weights = columns, weights
        self.labels, self.object_count = labels, object_count
        self.unmixed = _unmixed_weight(labels, weights)


def _granulate(table: InformationSystem) -> _Granules:
    """The granule view of ``table``, built from its stored rows, each
    weighted by its object count; ``table._granules`` builds it once per
    table.  Under the identity decision the stored rows are the granules:
    a row of two or more objects is mixed, and rows that differ only in
    whitespace share every block, where their labels of their own leave it
    impure, as their objects would.  Under a named
    decision the rows are folded on their conditional codes when at least
    one in 16 repeats there, so rows that differ only in the decision, or
    in whitespace, fall in one granule; otherwise they are kept as they
    are."""
    rows = table.rows
    columns = {name: (codes, len(values))
               for name, codes, values in zip(table.attributes, rows.codes, rows.values)}
    if table.decision is None:
        # Each object is its own decision class, so a row of two or more
        # objects is mixed; a row of one is labelled by its own index.
        labels = [r if w == 1 else _MIXED for r, w in enumerate(rows.weights)]
        return _Granules(columns, rows.weights, labels, rows.n)
    labels = columns.pop(table.decision)[0]
    # Each row's granule is named by the granule's first row, so names and
    # the weights and labels keyed by them come in first-occurrence order.
    # zip() of no columns is empty, but with no conditional attribute every
    # row falls in one granule.
    first: dict[tuple[int, ...], int] = {}
    owner = list(map(first.setdefault, zip(*(c for c, _ in columns.values()))
                     if columns else repeat((), len(labels)), count()))
    if 16 * (len(owner) - len(first)) < len(owner):
        return _Granules(columns, rows.weights, labels, rows.n)
    label_of: dict[int, object] = {}
    weight_of: dict[int, int] = {}
    for g, label, weight in zip(owner, labels, rows.weights):
        if label_of.setdefault(g, label) != label:
            label_of[g] = _MIXED
        weight_of[g] = weight_of.get(g, 0) + weight
    folded = {name: (codes, k) for (name, (_, k)), codes in zip(columns.items(), zip(*first))}
    return _Granules(folded, list(weight_of.values()), tuple(label_of.values()), rows.n)


def projections(table: InformationSystem, attrs: Iterable[str]) -> list[int]:
    """Each object restricted to ``attrs``, as a number: two objects get the
    same number exactly when they agree on every attribute in ``attrs``.
    The stored rows are numbered by their codes over ``attrs``, each by the
    first stored row with the same codes, and each object takes its row's
    number through ``table.rows.index``; a name outside the conditional
    attributes raises ``UnknownAttribute``."""
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


class _Labels:
    """A grouping of ``view``'s granules, the kernel's only form of one,
    with its block count ``blocks`` and its dependency degree
    ``dependency``.  ``_grouping`` builds the one-block grouping and
    ``_refine`` every other; code outside this module reads only those two
    properties.  It carries its view, so ``_split`` and ``_meet`` read the
    view there and take groupings alone.

    Dense, ``rows`` is None and ``keys[g]`` is granule ``g``'s label.
    Stripped, ``keys`` are the labels of the granules ``rows``, in ascending
    order, and each granule outside ``rows`` is alone in its block; a
    granule in ``rows`` may be alone too.  Two granules share a block
    exactly when both carry a label and the labels are equal.  It also
    keeps ``top``, a bound above every key, and ``most``, a bound on the
    distinct keys, so that it can be refined again, by a column or as the
    other side of a meet.
    A plain class, not a dataclass, so that importing the module stays
    cheap.
    """

    __slots__ = ("view", "keys", "rows", "top", "most", "_blocks")

    def __init__(self, view: _Granules, keys: list[int], rows: list[int] | None,
                 top: int, most: int, blocks: int | None = None) -> None:
        self.view, self.keys, self.rows = view, keys, rows
        self.top, self.most, self._blocks = top, most, blocks

    @property
    def blocks(self) -> int:
        if self._blocks is None:
            shared = len(set(self.keys))
            self._blocks = (shared if self.rows is None
                            else len(self.view.labels) - len(self.rows) + shared)
        return self._blocks

    @property
    def dependency(self) -> Fraction:
        """|POS| over the object count.  A block is in the positive region
        when its granules share one label other than ``_MIXED``; so a
        stripped grouping's |POS| is the unmixed weight of all granules,
        less that of ``rows``, plus the weight of ``rows`` in pure blocks."""
        view, rows = self.view, self.rows
        if rows is None:
            pos = _pure_weight(self.keys, view.labels, view.weights)
        else:
            labels = list(map(view.labels.__getitem__, rows))
            weights = list(map(view.weights.__getitem__, rows))
            pos = (view.unmixed - _unmixed_weight(labels, weights)
                   + _pure_weight(self.keys, labels, weights))
        return Fraction(pos, view.object_count)


_DIGIT = 1 << 30  # a nonnegative CPython int below this is one 30-bit digit


def _split(labels: _Labels, name: str) -> _Labels:
    """``labels`` refined by attribute ``name`` (``_refine``), whose column
    is read from the view that ``labels`` carries."""
    codes, k = labels.view.columns[name]
    return _refine(labels, codes, k, k)


def _refine(labels: _Labels, column: Sequence[int] | dict[int, int], k: int,
            distinct: int) -> _Labels:
    """``labels`` refined by ``column``, which gives each granule that it
    keys a code, read at the granule's index, each below ``k`` and at most
    ``distinct`` of them different: two granules get the same new key
    exactly when they had the same key and the same code.

    It is the kernel's one test for a refinement that changes nothing:
    when every granule is alone already (``rows == []``) or every code is
    0 (``k == 1``: a one-value column, or a meet's side of one block),
    ``labels`` itself is returned.  Otherwise one pass: the new key is the
    mixed-radix ``key * k + code``, which tells the (key, code) pairs
    apart as ``0 <= code < k``, so the pass needs no dict and no tuple per
    granule.  It ends in ``_stripped``.  Keys are not dense, but stay
    below ``2**30``: when ``top * k`` passes that, the keys left after the
    strip are renumbered densely by first occurrence, so no grouping keeps
    a key past one int digit, and a refinement that leaves few rows
    renumbers only those."""
    rows = labels.rows
    if rows == [] or k == 1:
        return labels
    codes = column if rows is None else map(column.__getitem__, rows)
    keys = [key * k + code for key, code in zip(labels.keys, codes)]
    refined = _stripped(labels.view, keys, rows, labels.top * k, labels.most * distinct)
    if refined.top > _DIGIT:  # renumbered densely, so the bound is the block count
        ids: dict[int, int] = {}
        refined.keys = [ids.setdefault(key, len(ids)) for key in refined.keys]
        refined.top = refined.most = len(ids)
    return refined


def _stripped(view: _Granules, keys: list[int], rows: list[int] | None,
              top: int, most: int) -> _Labels:
    """The grouping of ``rows`` (every granule when None) by ``keys``, each
    below ``top`` and at most ``most`` of them distinct, stripped of the
    granules alone in their block when at least half of its rows are.  With
    b distinct keys over s rows at least 2b - s rows are alone, so a set of
    the keys, which gives the block count, is paid for only when ``most``
    lets b reach 3s / 4, and the rows are stripped only when b does."""
    size = len(keys)
    if 4 * most < 3 * size:
        return _Labels(view, keys, rows, top, most)
    shared = len(set(keys))
    blocks = len(view.labels) - size + shared
    if shared == size:
        return _Labels(view, [], [], top, 0, blocks)
    if 4 * shared < 3 * size:
        return _Labels(view, keys, rows, top, shared, blocks)
    # A plain loop, not a Counter: the walk runs under the oracle's search,
    # which must not lean on spare recursion depth.
    seen: set[int] = set()
    again: set[int] = set()
    for key in keys:
        if key in seen:
            again.add(key)
        else:
            seen.add(key)
    kept = list(map(again.__contains__, keys))
    return _Labels(view, list(compress(keys, kept)),
                   list(compress(range(size) if rows is None else rows, kept)),
                   top, len(again), blocks)


def _witness(labels: _Labels, name: str) -> tuple[int, int] | None:
    """Two granules that share a block of ``labels`` but differ on ``name``,
    or None when every block agrees on it.

    One dict pass keeps the first granule of each key and stops at the first
    later granule whose code on ``name`` differs from its key's first.  When
    ``labels`` groups ``K - name`` and ``K`` induces the partition of every
    conditional attribute, such a pair exists exactly when ``name`` cannot
    leave ``K``: the two granules differ on ``name`` alone among ``K``.  A
    plain loop, as it stops early; granules alone in their block never
    pair, so a stripped list is scanned over its rows only."""
    codes = labels.view.columns[name][0]
    rows = labels.rows
    first: dict[int, int] = {}
    for g, key in zip(range(len(labels.keys)) if rows is None else rows, labels.keys):
        if key in first:
            f = first[key]
            if codes[f] != codes[g]:
                return f, g
        else:
            first[key] = g
    return None


def _alone(view: _Granules, attrs: Sequence[str],
           witnesses: dict[str, tuple[int, int] | None]) -> set[str]:
    """The attributes of ``attrs`` whose witness pair from ``_witness``
    differs on them alone among ``attrs``, read on the raw codes: two
    granules that differ on ``a`` and on no other attribute of ``attrs``,
    so that dropping ``a`` merges their blocks, a singleton entry of the
    discernibility matrix (Skowron and Rauszer, 1992).  An attribute with
    no pair is not among them.  Over a reduct ``R`` this is the
    certificate that ``R`` is minimal, every member alone; over all
    conditional attributes it is the part of the core that the
    elimination's pairs show.  O(|attrs|²) code reads and no walk."""
    columns = [view.columns[a][0] for a in attrs]
    alone = set()
    for attribute in attrs:
        pair = witnesses.get(attribute)
        if pair is None:
            continue
        x, y = pair
        if [a for a, codes in zip(attrs, columns) if codes[x] != codes[y]] == [attribute]:
            alone.add(attribute)
    return alone


def _grouping(view: _Granules, attrs: Iterable[str]) -> _Labels:
    """The grouping of ``view``'s granules by ``attrs``: the one-block
    grouping split by each attribute in turn.  A name outside
    ``view.columns`` raises ``UnknownAttribute``."""
    labels = _Labels(view, [0] * len(view.labels), None, 1, 1)
    for name in attrs:
        if name not in view.columns:
            raise UnknownAttribute(name)
        labels = _split(labels, name)
    return labels


def _meet(a: _Labels, b: _Labels) -> _Labels:
    """The grouping by both ``a`` and ``b`` of the granules of the view they
    both carry: one side refined by the other's keys (``_refine``).  The
    side refined is a stripped one, of two stripped sides the longer, and
    of two dense sides the one whose keys reach higher, so a meet with the
    one-block grouping returns the other side.  A granule alone in either
    side is alone in the meet, so a shorter side whose granules are all
    alone is the meet.  A stripped side is refined by a dense side's keys
    read at its rows; of two stripped sides the longer is first cut to the
    shorter's rows, looked up in a dict, which then gives the shorter's
    keys there."""
    if (b.rows is not None and (a.rows is None or len(a.rows) < len(b.rows))
            or a.rows is None and b.rows is None and a.top < b.top):
        a, b = b, a
    if b.rows == []:
        return b
    column: Sequence[int] | dict[int, int] = b.keys
    if b.rows is not None:
        column = dict(zip(b.rows, b.keys))
        inside = list(map(column.__contains__, a.rows))
        a = _Labels(a.view, list(compress(a.keys, inside)), list(compress(a.rows, inside)),
                    a.top, a.most)
    return _refine(a, column, b.top, b.most)


def _leave_one_out(
    seed: _Labels, attrs: Sequence[str]
) -> Generator[_Labels, bool | None, None]:
    """The grouping of ``seed``'s granules, as a :class:`_Labels`, for every
    attribute set that leaves one of ``attrs`` out, each joined with the
    attributes that ``seed`` groups by.

    The first value yielded is the grouping by ``seed`` and all of
    ``attrs``.  Then, for each ``attrs[i]`` in turn, it yields the grouping
    by ``seed``, the kept attributes before ``attrs[i]`` and all of
    ``attrs[i + 1:]``; ``attrs[i]`` is kept unless the value sent back for
    it is ``False``, so plain iteration keeps every attribute (the value
    sent back for the first yield is ignored).  The table's walk and the
    elimination pass start from the one-block grouping, the trace's and
    the core's from the grouping by the attributes of the set that they
    leave out of ``attrs``.
    The walk ends after its last candidate
    without refining the prefix again, as no candidate would read it, so
    ``tuple``, ``list`` or a ``for`` loop takes all of it for no extra
    work.  This is the paper's composition of a low and a high base, a
    partition meet, taken at every candidate: the suffix groupings are
    refined once from the back, the kept prefix one attribute at a time,
    and each candidate meets them in one pass, unless one side is still
    the seed, which the other refines; a side split only by one-value
    columns is the seed itself, as ``_refine`` returns its input.
    Refinement never merges blocks, so a granule alone in its block stays
    alone in every finer grouping and meet: each list drops such granules
    (``_stripped``), and the walk then touches only the rest.  On a wide
    table almost every granule is alone after about log_k |U/C|
    attributes, so the walk touches O(|U/C|·log_k |U/C|) granule entries
    rather than O(|U/C|·m).
    """
    suffixes = [seed]  # suffixes[-1 - j] groups by seed and attrs[j:]
    for name in reversed(attrs):
        suffixes.append(_split(suffixes[-1], name))
    yield suffixes.pop()
    prefix = seed
    for name in attrs:
        suffix = suffixes.pop()
        # A side that is still the seed, as one split only by one-value
        # columns is (``_refine``), leaves the other side as it is.
        if prefix is seed:
            labels = suffix
        elif suffix is seed:
            labels = prefix
        else:
            labels = _meet(prefix, suffix)
        # After the last candidate no prefix is read, so none is refined.
        if (yield labels) is not False and suffixes:
            prefix = _split(prefix, name)


def _table_order_walk(view: _Granules) -> tuple[_Labels, dict[str, _Labels]]:
    """The table's walk: ``_leave_one_out`` over ``view.columns``, in
    table order, from the one-block grouping, read as the grouping by all
    conditional attributes ``C`` and a dict that maps each ``a`` to the
    grouping of ``C - a``.  ``InformationSystem._table_walk`` keeps it for
    ranking, its one reader; the core, the oracle and ``eliminate`` read
    the elimination pass (``_elimination``) instead."""
    attrs = tuple(view.columns)
    walk = _leave_one_out(_grouping(view, ()), attrs)
    return next(walk), dict(zip(attrs, walk))


def _elimination(
    table: InformationSystem,
) -> tuple[int, list[str], dict[str, tuple[int, int] | None], dict[str, int]]:
    """The column-order backward elimination over the conditional
    attributes ``C`` of ``table``'s granules: the block count of ``C``, the
    attributes it removes, in order, each kept attribute's witness pair
    from ``_witness``, and each candidate's block count.
    ``InformationSystem._elimination`` keeps it, so ``eliminate``, the core
    and the oracle share one pass.  It reads the view off the table, as
    :func:`block_count` does, so that a first call builds the view inside
    it: the build then reaches as deep in the stack as the refinements
    that a sent verdict resumes, and the oracle's deepest frame does not
    depend on the verdicts, as
    ``test_search_depth_is_not_bounded_by_the_recursion_limit`` requires.

    One leave-one-out walk over ``C`` from the one-block grouping yields
    the grouping by ``C`` and then, for each ``a``, that of the attributes
    kept before ``a`` and all those after it; ``a`` is removed when that
    set keeps ``C``'s block count.  Otherwise its pair is two granules of
    one block of that grouping that differ on ``a``: the set holds the
    final ``R - a``, as later candidates can only leave it, so the pair
    differs on ``a`` alone among ``R``, and among ``C`` unless it also
    differs on an attribute removed before ``a``."""
    view = table._granules
    attrs = tuple(view.columns)
    walk = _leave_one_out(_grouping(view, ()), attrs)
    full_count = next(walk).blocks
    removed: list[str] = []
    witnesses: dict[str, tuple[int, int] | None] = {}
    tested: dict[str, int] = {}
    kept = True
    for attribute in attrs:
        labels = walk.send(kept)
        tested[attribute] = labels.blocks
        kept = labels.blocks != full_count
        if kept:
            witnesses[attribute] = _witness(labels, attribute)
        else:
            removed.append(attribute)
    return full_count, removed, witnesses, tested


def block_count(table: InformationSystem, attrs: Iterable[str]) -> int:
    """Number of blocks of ``ind_partition(table, attrs)``, without building it."""
    return _grouping(table._granules, attrs).blocks


def dependency(table: InformationSystem, attrs: Iterable[str]) -> Fraction:
    """``gamma(ind_partition(table, attrs), decision_partition(table))``."""
    return _grouping(table._granules, attrs).dependency


def _unmixed_weight(labels: Iterable[object], weights: Iterable[int]) -> int:
    """The weight of the granules whose label is not ``_MIXED``."""
    return sum(compress(weights, map(is_not, labels, repeat(_MIXED))))


def _pure_weight(keys: list[int], labels: Sequence[object], weights: Iterable[int]) -> int:
    """The weight of the granules grouped by ``keys`` whose block's granules
    all carry one label other than ``_MIXED``.  One dict pass maps each key
    to its label, or to ``_MIXED`` once two differ; the weights of the
    granules whose key kept a label are then summed without a Python loop."""
    label_of: dict[int, object] = {}
    for key, label in zip(keys, labels):
        if label_of.setdefault(key, label) != label:
            label_of[key] = _MIXED
    return _unmixed_weight(map(label_of.__getitem__, keys), weights)


def ind_partition(table: InformationSystem, attrs: Iterable[str]) -> Partition:
    """Group objects that agree on every attribute in ``attrs``.

    The empty attribute set discerns nothing and yields the one-block
    partition.
    """
    return _grouped_partition(projections(table, attrs), table.object_count)


def decision_partition(table: InformationSystem) -> Partition:
    """Decision classes: singletons under the identity policy, else the
    grouping induced by the decision column, read through each object's
    stored row."""
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
