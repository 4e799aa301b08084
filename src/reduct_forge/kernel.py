"""The partition kernel, and the package's one account of how it works.

Granules.  ``_granulate`` builds a table's view once (kept as
``InformationSystem._granules``) and is the only reader of its storage: the
stored distinct rows, each with its object count and decision code, or the
mark ``_MIXED`` when its objects disagree.  Under a named decision the rows
are folded on their conditional codes, into U/C, when at least one in 16
repeats there.  Any attribute set groups the granules as it groups their
objects, so block counts agree, and a block lies in the positive region
exactly when its granules share one unmixed label.

Groupings.  ``_Labels`` is the one grouping form, and code outside this
module reads only its two ints: ``blocks`` and ``positive``, |POS|, the
weight of the granules in pure blocks.  Nothing here divides: the
``significance`` module turns |POS| into an exact degree where it reports
one.  ``_split`` is the one refinement, by an attribute's column: a new key
is the mixed-radix ``key * k + code``, renumbered densely once its bound
passes one int digit.  A split that cannot change its input (every
granule alone, a one-value column) returns it.  Refinement never merges
blocks, so a granule alone in its block stays alone: ``_stripped`` drops
such granules once at least half are, the stripped partitions of TANE
(Huhtala et al., 1999).  On a wide table nearly every granule is alone
after about log_k |U/C| attributes, so a walk touches
O(|U/C|·log_k |U/C|) granule entries, not O(|U/C|·m).

Packed keys.  A dense grouping keeps its keys as one int of 64-bit fields,
granule g's key in field g (``_pack``), and a dense split reads its column
packed the same way, made once per view when first read
(``_Granules.packed``).  A stored column is ``bytes`` at 256 values or
fewer and otherwise the narrowest unsigned ``array`` (``_stored``), also
after the fold; a ``bytes`` column packs by one slice assignment into the
low byte of each field of a zeroed ``bytearray``, never through
``array('Q', ...)``, which would read its raw bytes as fields.  So a dense
split is ``keys * k + column``, and a pair scan of two dense sides reads
the one int ``a * b.top + b``: each a big-int multiply-add in C, with no
int object per granule.  No field carries into the next while
``top * k`` stays below 2**64: the renumbering keeps ``top`` at most 2**30
or the granule count, and so is k, a column's value count or the other
side's ``top``, so the product stays below 2**64 on any view of fewer
than 2**32 granules.  The fields lie in native byte order
(``sys.byteorder``), as ``array('Q')`` writes them and
``memoryview.cast('Q')`` reads them (``_fields``).  A list of a dense
grouping's keys is made, and kept, only for the readers that need one
entry per granule: counting and stripping (``_stripped``), renumbering,
``blocks`` and ``positive``.  A scan that indexes a dense side from a
stripped one reads the packed fields.  Stripped groupings keep lists.

Walks.  ``_walk`` is the paper's composition of a low and a high base taken
at every candidate: the set without ``a`` joins the kept attributes before
``a`` (the prefix, split by each kept candidate) with all those after it
(the suffix), so a walk makes O(m) refinements.  It is a plain call that
returns the grouping by all the attributes and each candidate's
``test(prefix, suffix, a)``; a predicate on that result says whether ``a``
is kept.  Every walk ends at its last candidate.  A candidate's two sides
are never met, only scanned (``_paired``): over the rows that both keep,
each row's key is mixed-radix over the two sides, so two rows share a key
exactly when they share a block of both.  With I those rows, the grouping
without ``a`` has |U/C| - |I| blocks of one granule and one more per
distinct key over I.  There are two kinds of walk.

- ``_elimination``, the column-order backward elimination over the
  conditional attributes C that ``eliminate``, the core and the exhaustive
  oracle read, keeps ``a`` exactly when two granules that share a block of
  both sides differ on ``a``: ``_witness`` reads the scan to its first such
  pair.  A removal scans every row that both sides keep.
- ``_without_each`` is the one leave-one-out walk.  It walks some
  attributes alone, from the grouping by the rest of a set, drops given
  removals from its prefix, reads each candidate's scan to its end into an
  unstripped grouping without ``a``, hands that to a ``read`` and lets it
  go; it returns the readings, with the full set's beside them.  It serves
  three callers: the table walk (``InformationSystem._table_walk``), which
  keeps only C's |POS| and each ``C - a``'s block count and |POS| for
  ranking, ``significance`` and the trace; the core's walk over the kept
  attributes that their pairs leave open; and the trace's one replay of
  the elimination in ranked order after a removal.  Those two read block
  counts only.

Witness pairs.  The pair that keeps a candidate is the first two granules,
in ascending order, that share a block of the set it was tested against
and differ on it.  ``_alone`` checks on the raw codes which pairs differ on
their attribute alone among a set, a singleton entry of the discernibility
matrix (Skowron and Rauszer, 1992): over the reduct that certifies it
minimal, and over C it names core attributes with no walk.
"""

from __future__ import annotations

import sys
from array import array
from itertools import compress, count, filterfalse, repeat
from operator import add, is_not, mul
from typing import TYPE_CHECKING, Callable, Iterable, Sequence, TypeVar

from .errors import UnknownAttribute

if TYPE_CHECKING:  # only annotations name it; the table module imports this one
    from .dataset import InformationSystem


_T = TypeVar("_T")
_MIXED = object()  # the label of a granule whose objects disagree on the decision


# Plain classes, not dataclasses, so that importing the module stays cheap.
class _Granules:
    """A table's granules in first-occurrence order.

    ``columns`` maps each conditional attribute, in table order, to the
    granules' codes and its value count; ``weights`` are object counts,
    ``labels`` decision codes (a stored row's index under the identity
    decision) or ``_MIXED``, and ``unmixed`` the weight of the unmixed
    granules.  Two granules may carry equal codes and then share every block.
    """

    __slots__ = ("columns", "weights", "labels", "object_count", "unmixed", "_packed")

    def __init__(self, columns: dict[str, tuple[Sequence[int], int]],
                 weights: Sequence[int], labels: Sequence[object],
                 object_count: int) -> None:
        self.columns, self.weights = columns, weights
        self.labels, self.object_count = labels, object_count
        self.unmixed = _unmixed_weight(labels, weights)
        self._packed: dict[str, int] = {}

    def packed(self, name: str) -> int:
        """Column ``name``'s codes packed (``_pack``), made when first read
        and kept."""
        packed = self._packed.get(name)
        if packed is None:
            packed = self._packed[name] = _pack(self.columns[name][0])
        return packed


def _granulate(table: InformationSystem) -> _Granules:
    """The granule view of ``table``.  Under the identity decision the
    stored rows are the granules, a row of two or more objects mixed; under
    a named one they are folded on their conditional codes when at least
    one in 16 repeats there."""
    rows = table.rows
    columns = {name: (codes, len(values))
               for name, codes, values in zip(table.attributes, rows.codes, rows.values)}
    if table.decision is None:
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
    folded = {name: (_stored(codes, k), k)
              for (name, (_, k)), codes in zip(columns.items(), zip(*first))}
    return _Granules(folded, list(weight_of.values()), tuple(label_of.values()), rows.n)


class _Labels:
    """A grouping of ``view``'s granules, with its block count ``blocks``
    and the weight ``positive`` of its positive region.

    Dense, ``rows`` is None and ``keys[g]`` is granule ``g``'s key; the
    keys are given as a list or ``packed`` (``_pack``), and each form is
    made from the other when first read.  Stripped, ``keys`` belong to the
    ascending granules ``rows`` and every other granule is alone in its
    block.  Two granules share a block exactly when both carry a key and the
    keys are equal.  ``top`` bounds every key and ``most`` the distinct keys.
    """

    __slots__ = ("view", "_keys", "_packed", "rows", "top", "most", "_blocks")

    def __init__(self, view: _Granules, keys: list[int] | int, rows: list[int] | None,
                 top: int, most: int, blocks: int | None = None) -> None:
        self.view, self.rows = view, rows
        self._keys, self._packed = (None, keys) if isinstance(keys, int) else (keys, None)
        self.top, self.most, self._blocks = top, most, blocks

    @property
    def keys(self) -> list[int]:
        if self._keys is None:
            self._keys = _fields(self._packed, len(self.view.labels)).tolist()
        return self._keys

    @property
    def packed(self) -> int:
        if self._packed is None:
            self._packed = _pack(self._keys)
        return self._packed

    @property
    def indexable(self) -> Sequence[int]:
        """``keys`` when the list is made, else a dense grouping's packed
        fields (``_fields``), so that a scan that stops early makes none."""
        return _fields(self._packed, len(self.view.labels)) if self._keys is None else self._keys

    @property
    def blocks(self) -> int:
        if self._blocks is None:
            shared = len(set(self.keys))
            self._blocks = (shared if self.rows is None
                            else len(self.view.labels) - len(self.rows) + shared)
        return self._blocks

    @property
    def positive(self) -> int:
        """|POS|: the weight of the granules whose block's granules all
        carry one label other than ``_MIXED``."""
        view, rows = self.view, self.rows
        if rows is None:
            return _pure_weight(self.keys, view.labels, view.weights)
        # The granules outside ``rows`` are alone, so pure when unmixed.
        if not rows:
            return view.unmixed
        labels = list(map(view.labels.__getitem__, rows))
        weights = list(map(view.weights.__getitem__, rows))
        return (view.unmixed - _unmixed_weight(labels, weights)
                + _pure_weight(self.keys, labels, weights))


_DIGIT = 1 << 30  # a nonnegative CPython int below this is one 30-bit digit

# The byte of a native 64-bit field that holds its lowest 8 bits.
_LOW = 0 if sys.byteorder == "little" else 7


def _stored(codes: Sequence[int], k: int) -> bytes | array:
    """``codes``, each below ``k``, in a table's one stored column form:
    ``bytes`` when ``k`` is at most 256, else the narrowest unsigned
    ``array`` that holds them."""
    if k <= 256:
        return codes if isinstance(codes, bytes) else bytes(codes)
    typecode = next(t for t in "HILQ" if k <= 1 << 8 * array(t).itemsize)
    return array(typecode, codes)


def _pack(keys: Sequence[int]) -> int:
    """``keys``, each below 2**64, as one int whose field ``g`` of 64 bits
    is ``keys[g]``.  A ``bytes`` column is laid into the fields' low bytes
    by one slice assignment: ``array("Q", keys)`` would read its raw bytes."""
    if isinstance(keys, bytes):
        fields = bytearray(8 * len(keys))
        fields[_LOW::8] = keys
        return int.from_bytes(fields, sys.byteorder)
    return int.from_bytes(array("Q", keys), sys.byteorder)


def _fields(packed: int, n: int) -> memoryview:
    """The ``n`` 64-bit fields of ``packed`` (``_pack``), in order."""
    return memoryview(packed.to_bytes(8 * n, sys.byteorder)).cast("Q")


def _split(labels: _Labels, name: str) -> _Labels:
    """``labels`` refined by attribute ``name``'s column, read packed when
    ``labels`` is dense and otherwise at each keyed granule's index: two
    granules share a new key exactly when they shared a key and a code.
    Returns ``labels`` itself when every granule is alone or the column has
    one value.  Keys stay below ``_DIGIT``; the result is stripped
    (``_stripped``)."""
    view, rows = labels.view, labels.rows
    codes, k = view.columns[name]
    if rows == [] or k == 1:
        return labels
    if rows is None:
        keys: list[int] | int = labels.packed * k + view.packed(name)
    else:
        keys = [key * k + code for key, code in zip(labels.keys, map(codes.__getitem__, rows))]
    refined = _stripped(view, keys, rows, labels.top * k, labels.most * k)
    if refined.top > _DIGIT:  # renumbered densely, so the bound is the block count
        ids: dict[int, int] = {}
        refined._keys = [ids.setdefault(key, len(ids)) for key in refined.keys]
        refined._packed = None
        refined.top = refined.most = len(ids)
    return refined


def _stripped(view: _Granules, keys: list[int] | int, rows: list[int] | None,
              top: int, most: int) -> _Labels:
    """The grouping of ``rows`` (every granule, ``keys`` then packed, when
    None) by ``keys``.  With b distinct keys over s rows at least 2b - s
    rows are alone, so the keys are counted only when ``most`` lets b reach
    3s / 4, and the lone rows dropped only when b does."""
    labels = _Labels(view, keys, rows, top, most)
    size = len(view.labels) if rows is None else len(rows)
    if 4 * most < 3 * size:
        return labels
    keys = labels.keys
    shared = len(set(keys))
    blocks = len(view.labels) - size + shared
    if shared == size:
        return _Labels(view, [], [], top, 0, blocks)
    if 4 * shared < 3 * size:
        labels.most, labels._blocks = shared, blocks
        return labels
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


def _paired(a: _Labels, b: _Labels) -> tuple[list[int] | None, Iterable[int], int]:
    """The rows that both ``a`` and ``b`` (which carry one view) keep, None
    for every granule, each row's mixed-radix key over both sides, and the
    keys' bound: two rows share a key exactly when they share a block of
    both.  A side whose granules are all alone leaves no row, and a
    one-block side is not read.  Of the rest, a stripped side (the longer
    of two, cut to the shorter's rows) or the dense side whose keys reach
    higher is read in order, and the other's keys at each row's index.  Two
    dense sides give their keys as the fields of one packed int."""
    if a.rows == [] or b.rows == []:
        return [], [], 1
    if a.rows is None and a.top == 1:
        a, b = b, a
    if b.rows is None and b.top == 1:
        return a.rows, a.indexable, a.top
    if (b.rows is not None and (a.rows is None or len(a.rows) < len(b.rows))
            or a.rows is None and b.rows is None and a.top < b.top):
        a, b = b, a
    top = a.top * b.top
    if a.rows is None:  # and so is b.rows
        return None, _fields(a.packed * b.top + b.packed, len(a.view.labels)), top
    rows, keys = a.rows, a.keys
    if b.rows is None:
        column: Sequence[int] | dict[int, int] = b.indexable
    else:
        column = dict(zip(b.rows, b.keys))
        inside = list(map(column.__contains__, rows))
        rows, keys = list(compress(rows, inside)), compress(keys, inside)
    return rows, map(add, map(mul, keys, repeat(b.top)), map(column.__getitem__, rows)), top


def _witness(a: _Labels, b: _Labels, name: str) -> tuple[int, int] | None:
    """The first two granules, in ascending order of the second, that share
    a block of both ``a`` and ``b`` (which carry one view) but differ on
    ``name``, or None when no such pair exists: the pair scan (``_paired``)
    read until a row differs on ``name`` from the first row of its key,
    which a dict keeps."""
    rows, keys, _ = _paired(a, b)
    codes = a.view.columns[name][0]
    first: dict[int, int] = {}
    for g, key in zip(count() if rows is None else rows, keys):
        f = first.setdefault(key, g)
        if codes[f] != codes[g]:
            return f, g
    return None


def _alone(view: _Granules, attrs: Sequence[str],
           witnesses: dict[str, tuple[int, int] | None]) -> set[str]:
    """The attributes of ``attrs`` whose pair in ``witnesses`` differs on
    them and on no other attribute of ``attrs``; one without a pair is not
    among them."""
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
    """The grouping of ``view``'s granules by ``attrs``; a name outside
    ``view.columns`` raises ``UnknownAttribute``."""
    labels = _Labels(view, 0, None, 1, 1)
    for name in attrs:
        if name not in view.columns:
            raise UnknownAttribute(name)
        labels = _split(labels, name)
    return labels


def _walk(seed: _Labels, attrs: Sequence[str], test: Callable[[_Labels, _Labels, str], _T],
          kept: Callable[[_T, str], bool]) -> tuple[_Labels, list[_T]]:
    """The grouping by ``seed``'s attributes and all of ``attrs``, and the
    list of ``test(prefix, suffix, attrs[i])`` for each ``i``: the prefix
    groups by ``seed``'s attributes and the kept ones of ``attrs[:i]``, the
    suffix by ``seed``'s attributes and all of ``attrs[i + 1:]``.
    ``attrs[i]`` is kept when ``kept(result, attrs[i])`` holds.  A side
    split only by one-value columns is still ``seed`` (``_split``).  Each
    result takes its suffix's place in one list, so a walk holds no more
    than its suffixes.  The walk ends at its last candidate."""
    sides = [seed]  # sides[-1 - j] groups by seed and attrs[j:]
    for name in reversed(attrs):
        sides.append(_split(sides[-1], name))
    full = sides.pop()
    sides.reverse()  # sides[i] is the suffix of attrs[i] until its result replaces it
    prefix, last = seed, len(attrs) - 1
    for i, name in enumerate(attrs):
        result = sides[i] = test(prefix, sides[i], name)
        # After the last candidate no prefix is read, so none is refined.
        if kept(result, name) and i < last:
            prefix = _split(prefix, name)
    return full, sides


def _elimination(
    view: _Granules,
) -> tuple[int, list[str], dict[str, tuple[int, int]]]:
    """The column-order backward elimination over the conditional
    attributes C: C's block count, the removed attributes in order and each
    kept attribute's witness pair.  A candidate is removed when no two
    granules that share a block of the kept attributes before it and of all
    after it differ on it, so those attributes keep C's block count; the
    first such pair (``_witness``) keeps it.  Each pair differs on its
    attribute alone among the result R, and among C unless also on an
    earlier removal."""
    attrs = tuple(view.columns)
    full, pairs = _walk(_grouping(view, ()), attrs, _witness, lambda pair, _: pair is not None)
    removed = [a for a, pair in zip(attrs, pairs) if pair is None]
    witnesses = {a: pair for a, pair in zip(attrs, pairs) if pair is not None}
    return full.blocks, removed, witnesses


def _without_each(
    view: _Granules, attrs: Sequence[str], walked: Sequence[str], removed: Iterable[str] = (),
    read: Callable[[_Labels], _T] = lambda labels: labels.blocks,
) -> tuple[_T, list[_T]]:
    """``read`` of the grouping by ``attrs``, by default its block count,
    and the list of ``read`` of the grouping by ``attrs - a``, less the
    members of ``removed`` before ``a`` in ``walked``, for each ``a`` of
    ``walked``, a subset of ``attrs``: one walk over ``walked`` alone, from
    the grouping by the rest of ``attrs``.  Each candidate's two sides are
    scanned to the end (``_paired``), not met, into an unstripped grouping
    that is let go once read; a side that is still the seed, or whose
    granules are all alone, is read as it is.  Over C in table order it is
    the table walk, over the kept attributes that their pairs leave open the
    core's walk (``reduct._indispensable``), and over C in ranked order
    with the elimination's removals the trace's replay
    (``reduct._traced``)."""
    # The set of ``walked`` is freed before the walk starts, so the walk's peak holds no copy.
    seed = _grouping(view, list(filterfalse(set(walked).__contains__, attrs)))
    dropped = set(removed)

    def met(prefix: _Labels, suffix: _Labels, _: str) -> _T:
        # A side that is still ``seed`` leaves the other as it is, and a
        # side whose granules are all alone is the grouping without ``a``.
        if prefix is seed or suffix.rows == []:
            return read(suffix)
        if suffix is seed or prefix.rows == []:
            return read(prefix)
        rows, keys, top = _paired(prefix, suffix)
        keys = list(keys)  # ``positive`` reads it twice; packed fields go before the read
        return read(_Labels(prefix.view, keys, rows, top, top))

    full, readings = _walk(seed, walked, met, lambda _, name: name not in dropped)
    return read(full), readings


def block_count(table: InformationSystem, attrs: Iterable[str]) -> int:
    """Number of blocks of ``ind_partition(table, attrs)``, without building it."""
    return _grouping(table._granules, attrs).blocks


def _unmixed_weight(labels: Iterable[object], weights: Iterable[int]) -> int:
    """The weight of the granules whose label is not ``_MIXED``."""
    return sum(compress(weights, map(is_not, labels, repeat(_MIXED))))


def _pure_weight(keys: list[int], labels: Sequence[object], weights: Iterable[int]) -> int:
    """The weight of the granules grouped by ``keys`` whose block's granules
    all carry one label other than ``_MIXED``."""
    label_of: dict[int, object] = {}
    for key, label in zip(keys, labels):
        if label_of.setdefault(key, label) != label:
            label_of[key] = _MIXED
    return _unmixed_weight(map(label_of.__getitem__, keys), weights)
