"""Decision tables: the categorical information systems everything else consumes.

A table is a rectangle of opaque categorical symbols, one row per object and
one column per attribute, with an optional designated decision column.  When
no decision column is named the table uses the ``identity`` policy: every
object is its own decision class, so preserving discernibility means keeping
all objects apart.

A table is stored factorized, in one form whatever its repeats: its
distinct rows once, as coded columns (per column, each stored row's value
as a dense int in first-occurrence order, and the column's distinct values
in code order), plus each object's row index and each row's object count.
One step, ``_factorized``, builds that storage for :func:`load_csv` and for
row tuples given to :class:`InformationSystem`: it numbers the objects' keys
densely in first-occurrence order and splits, strips and codes only the
distinct keys.  Both passes number keys with a :class:`_Numbering`, a dict
that hands a missing key the next number, so a repeated key costs one
C-level lookup and only a new one a Python call.  A column's cells that
strip alike are merged by looking at its distinct cells alone.
:func:`load_csv` keys a line by its text without the ``id`` cell, wherever
the id sits, and row tuples are their own keys.  With the id first, the
most common layout, the keys come from one regex scan of the text, each
line's text after its first comma, and the text is split into lines only
when some line holds no comma; the other layouts split it and cut each
line as its key is taken, so no per-line object outlives its step.  The
loader does not build the object ids either: ``object_ids`` is a
read-only lazy tuple (:class:`_LazyTuple`, the form of an elimination
trace too) that builds them on first read, cut from the text again, or
from the object numbers when there is no id.  The partition kernel walks the
stored rows, weighted by their object counts, and alone decides whether
folding them pays; every per-object reader, ``rows``, ``column``,
``value``, equality and the per-object partitions, reads a stored row
through the object's row index.  A table keeps the kernel's view of its
rows, the kernel's table-order walk over them, which ranking reads, and
its column-order elimination pass, which elimination, the core and the
exhaustive oracle read, each built on first use.
"""

from __future__ import annotations

import itertools
import re
from collections.abc import Callable, Hashable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property
from operator import contains, itemgetter
from typing import IO, Union

from .errors import (
    DuplicateAttribute,
    EmptyTable,
    MalformedTable,
    ReductForgeError,
    UnknownAttribute,
    UnknownDecision,
)
from .partition import _elimination, _granulate, _table_order_walk

IDENTITY = "identity"

CsvSource = Union[bytes, str, IO[bytes], IO[str]]


class _Numbering(dict):
    """Numbers its keys densely in first-occurrence order: reading a missing
    key stores and returns the next number, ``len(self)``.  So
    ``map(numbering.__getitem__, keys)`` costs one C-level dict lookup per
    key, and a Python call only per distinct key."""

    __slots__ = ()

    def __missing__(self, key: Hashable) -> int:
        self[key] = number = len(self)
        return number


def _coded(
    cells: Sequence[Hashable], strip: bool = False
) -> tuple[tuple[int, ...], tuple[Hashable, ...]]:
    """Each cell's dense code, in first-occurrence order, and the distinct
    values in code order.  One numbering pass codes the raw cells.  With
    ``strip``, each distinct raw cell is stripped once, and cells that strip
    to the same string are merged onto one code, whose value is the
    stripped string: the merge numbers only the distinct cells, and the
    codes are mapped again only when some cells merged."""
    numbering = _Numbering()
    codes = tuple(map(numbering.__getitem__, cells))
    if not strip:
        return codes, tuple(numbering)
    # Stripped distinct cells rarely collide, so nearly every one is new:
    # setdefault numbers them in C, where a _Numbering makes a Python call
    # per new key.
    values: dict[str, int] = {}
    merged = list(map(values.setdefault, map(str.strip, numbering),
                      map(len, itertools.repeat(values))))
    if len(values) < len(merged):
        return tuple(map(merged.__getitem__, codes)), tuple(values)
    return codes, tuple(values)


class _Rows(Sequence):
    """Read-only row tuples of a table, stored factorized.

    ``codes[c][r]`` is stored row ``r``'s code in column ``c`` and
    ``values[c][code]`` the cell it stands for.  ``index[i]`` is object
    ``i``'s stored row and ``weights[r]`` the number of objects on row
    ``r``; a table whose rows never repeat has as many stored rows as
    objects, each of weight one.  Stored rows come in first-occurrence
    order.  Cells that differ only in whitespace share a code, so two
    stored rows may carry the same codes.  The view compares equal to the
    tuple of row tuples it stands for, and hashes like it.
    """

    __slots__ = ("n", "codes", "values", "index", "weights")

    def __init__(self, columns: list[tuple[tuple[int, ...], tuple[Hashable, ...]]],
                 index: Sequence[int], weights: Sequence[int]) -> None:
        """The stored rows of ``columns``, given as ``_coded`` gives them,
        with each object's stored row ``index`` and each row's object count
        ``weights``."""
        self.n = len(index)
        self.codes = tuple(codes for codes, _ in columns)
        self.values = tuple(values for _, values in columns)
        self.index, self.weights = index, weights

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[i] for i in range(*index.indices(self.n)))
        if not -self.n <= index < self.n:
            raise IndexError("row index out of range")
        row = self.index[index]
        return tuple(vals[codes[row]] for codes, vals in zip(self.codes, self.values))

    def __iter__(self) -> Iterator[tuple]:
        rows = zip(*(map(vals.__getitem__, codes)
                     for codes, vals in zip(self.codes, self.values)))
        return map(list(rows).__getitem__, self.index)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (_Rows, tuple)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


class _LazyTuple(Sequence):
    """A read-only tuple whose items are built on first read.

    ``items`` is a lazy iterator, consumed into a tuple the first time an
    item is read and kept; ``len`` is known without it.  A table's
    ``object_ids`` is one: the loader gives it ``map(str, range(n))`` when
    there is no ``id`` column and otherwise :func:`_cut_ids` over the
    table's text.  So is ``ReductResult.trace``, whose entries a generator
    measures only when they are read.  The view compares equal to the tuple
    of items it stands for, and hashes and reprs like it.
    """

    __slots__ = ("n", "_pending", "_items")

    def __init__(self, n: int, items: Iterator) -> None:
        self.n = n
        self._pending: Iterator | None = items
        self._items: tuple | None = None

    def _tuple(self) -> tuple:
        if self._items is None:
            self._items, self._pending = tuple(self._pending), None
        return self._items

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, index):
        return self._tuple()[index]

    def __iter__(self) -> Iterator:
        return iter(self._tuple())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _LazyTuple):
            return self.n == other.n and self._tuple() == other._tuple()
        if isinstance(other, tuple):
            return self._tuple() == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._tuple())

    def __repr__(self) -> str:
        return repr(self._tuple())

    def __reduce__(self):
        # A copy must not share the one-shot iterator: it is a plain tuple.
        return tuple, (self._tuple(),)


def _cut_ids(text: str, column: int) -> Iterator[str]:
    """The ids of a table whose ``id`` is its ``column``-th column, cut from
    its text (LF line ends, no byte-order mark) by the loader's own line
    rules: blank and whitespace-only lines skipped, the header dropped, each
    line split at its first ``column + 1`` commas and its id cell stripped."""
    lines = filter(str.strip, text.split("\n"))
    next(lines)  # the header
    cells = map(str.split, lines, itertools.repeat(","), itertools.repeat(column + 1))
    yield from map(str.strip, map(itemgetter(column), cells))


def _factorized(keys: Iterable[Hashable],
                columns_of: Callable[[list[Hashable]], list[Sequence[Hashable]]],
                strip: bool = False) -> _Rows:
    """Rows given as one hashable key per object, stored factorized.

    A :class:`_Numbering` numbers the keys densely in first-occurrence
    order, which gives each object's row index, and each row's object count
    is counted from those; ``columns_of(distinct)`` then gives the raw cell
    columns of the list of distinct keys alone, which are coded (and, with
    ``strip``, stripped).  A repeated key costs one C-level lookup and a new
    one a Python call, so keys that never repeat are numbered more slowly
    than by ``setdefault(key, len(numbering))``, two C calls per key.
    """
    numbering = _Numbering()
    index = list(map(numbering.__getitem__, keys))
    if len(numbering) == len(index):
        # No key repeats: a range holds no int object per object.
        index, weights = range(len(index)), [1] * len(index)
    else:
        # A plain loop: at 20000 rows of 768 keys it took 1.0 ms, against
        # 1.6 ms for Counter(index) and 1.8 ms for collections'
        # _count_elements into a dict, whose int keys are hashed per row.
        weights = [0] * len(numbering)
        for row in index:
            weights[row] += 1
    distinct = list(numbering)
    del numbering  # the keys' numbers are not needed while the keys are split
    columns = columns_of(distinct)
    del distinct  # the keys are not needed while their cells are coded
    return _Rows([_coded(col, strip) for col in columns], index, weights)


@dataclass(frozen=True)
class InformationSystem:
    """Immutable decision table over categorical values.

    ``decision`` is either the name of an attribute (excluded from the
    conditional set) or ``None`` for the identity policy.  ``rows`` may be
    given as any sequence of row tuples; the table stores it factorized and
    keeps ``rows`` as a read-only view of that storage.  ``object_ids`` may
    be any sequence of ids; :func:`load_csv` gives a read-only view that
    builds them on first read and compares equal to their tuple.
    """

    object_ids: Sequence[str]
    attributes: tuple[str, ...]
    rows: Sequence[tuple[str, ...]]
    decision: str | None = None

    def __post_init__(self) -> None:
        if not len(self.object_ids) or not self.attributes:
            raise EmptyTable()
        _check_distinct(self.attributes)
        width = len(self.attributes)
        rows = self.rows
        if isinstance(rows, _Rows):
            # The stored columns give the width; no row tuple is built.
            if len(rows.values) != width:
                raise MalformedTable(1, f"expected {width} cells, got {len(rows.values)}")
        else:
            for i, row in enumerate(rows):
                if len(row) != width:
                    raise MalformedTable(i + 1, f"expected {width} cells, got {len(row)}")
        if len(rows) != len(self.object_ids):
            raise MalformedTable(len(rows), "object id count differs from row count")
        if self.decision is not None and self.decision not in self.attributes:
            raise UnknownDecision(self.decision)
        if not isinstance(rows, _Rows):
            stored = _factorized(map(tuple, rows), lambda keys: list(zip(*keys)))
            object.__setattr__(self, "rows", stored)

    @property
    def object_count(self) -> int:
        return self.rows.n

    def column_index(self, attribute: str) -> int:
        try:
            return self.attributes.index(attribute)
        except ValueError:
            raise UnknownAttribute(attribute) from None

    def value(self, obj: int, attribute: str) -> str:
        idx = self.column_index(attribute)
        return self.rows[obj][idx]

    def column(self, attribute: str) -> tuple[str, ...]:
        idx = self.column_index(attribute)
        codes, values = self.rows.codes[idx], self.rows.values[idx]
        return tuple(map(values.__getitem__, map(codes.__getitem__, self.rows.index)))

    @cached_property
    def _granules(self):
        """The partition kernel's view of this table, its distinct
        conditional rows, built on first use and kept with the table."""
        return _granulate(self)

    @cached_property
    def _table_walk(self):
        """The kernel's table-order walk over ``_granules``
        (``partition._table_order_walk``), built on first use and kept with
        the table for ranking, its one reader.  It is kept on the table, not
        on the view: each grouping refers to the view, so a cache there would
        make a reference cycle."""
        return _table_order_walk(self._granules)

    @cached_property
    def _elimination(self):
        """The kernel's column-order elimination pass over ``_granules``
        (``partition._elimination``, which reads the view), built on first
        use and kept with the table, so ``eliminate``, the core and the
        exhaustive oracle share one walk.  It holds counts, names and
        granule indices, no grouping."""
        return _elimination(self)


def _check_distinct(names: Iterable[str]) -> None:
    """Raise ``DuplicateAttribute`` at the first name that repeats an
    earlier one."""
    seen: set[str] = set()
    for name in names:
        if name in seen:
            raise DuplicateAttribute(name)
        seen.add(name)


def conditional_attributes(table: InformationSystem) -> tuple[str, ...]:
    """Attributes minus the decision column, in table order."""
    if table.decision is None:
        return table.attributes
    return tuple(a for a in table.attributes if a != table.decision)


def _read_text(source: CsvSource) -> str:
    """The source's text, decoded as UTF-8 if it is bytes, without the one
    leading byte-order mark that would otherwise hide an ``id`` header."""
    data = source if isinstance(source, (bytes, str)) else source.read()
    text = data.decode("utf-8") if isinstance(data, bytes) else data
    return text.removeprefix("\ufeff")


def _lines(text: str) -> tuple[list[str], list[str]]:
    """The lines of ``text`` (LF line ends) and, of those, the ones that are
    not blank or whitespace-only, in file order."""
    lines = text.split("\n")
    return lines, list(filter(str.strip, lines))


# Each line's text after its first comma.  findall runs one C scan: the
# literal comma is sre's prefix search, and ``.`` stops only at LF, the
# loader's line end, so a line without a comma, blank ones too, yields nothing.
_TAIL = re.compile(",(.*)")


def load_csv(
    source: CsvSource,
    *,
    has_header: bool = True,
    decision: str | None = None,
) -> InformationSystem:
    """Parse a comma-separated table into an :class:`InformationSystem`.

    Cells are split on bare commas (no quoting in v1, so a cell containing a
    comma shows up as a ragged row) and stored as trimmed strings.  With a
    header, the one column literally named ``id`` (a second is a duplicate)
    holds object labels, not an attribute; without one, attributes are named
    ``c1..cn`` and labels are row ordinals.  ``decision`` may be an attribute
    name or the string ``"identity"`` (same as ``None``).  The source may be
    bytes, text or a binary or text file object; bytes are UTF-8, and a
    leading byte-order mark is ignored for every source type.  Lines end at
    LF, CRLF or CR only, so a cell may hold a form feed or a Unicode line
    separator.  Blank and whitespace-only lines are skipped, but
    ``MalformedTable.row`` is the file's 1-based line number, counting them;
    an empty or whitespace-only header cell is reported at the header's line.
    Each line is keyed by its text without the ``id`` cell, cut off in C,
    one cut per layout.  With the id first, the keys are the text after each
    line's first comma, from one ``findall`` scan of the text from the
    header on, and no list of lines is built: when the scan finds as many
    lines as the text holds from the header on, every line has a comma, so
    none is blank or short of its id's comma; otherwise the text is split
    once more to tell blank lines from ragged ones.  With the id last the
    key is the head of ``str.rpartition``, with the id in column ``j``
    between others the cells around it of ``str.split(",", j + 1)``, joined
    again, and with no id the whole line; these layouts split the text into
    lines.  ``_factorized`` checks the comma counts of, splits, strips and
    codes only the distinct keys.  The table's ``object_ids`` is a
    read-only view that compares equal to the tuple of ids and builds it
    only when an id is read; with an id it keeps the text and cuts the ids
    from it again by these line rules.
    """
    text = _read_text(source)
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    # The first non-blank line starts at ``start``, found without a split.
    start = 0
    while True:
        end = text.find("\n", start)
        first = text[start:] if end < 0 else text[start:end]
        if first.strip():
            break
        if end < 0:
            raise EmptyTable()
        start = end + 1
    skip = int(has_header)
    lines: list[str] | None = None
    body: list[str] = []  # the non-blank lines after the header

    def split_text() -> list[str]:
        """``body``, the text split into ``lines`` and filtered on first
        use; a plain memo, as ``functools.cache`` takes about 4 µs per
        load to set up."""
        nonlocal lines, body
        if lines is None:
            lines, body = _lines(text)
            del body[:skip]  # the header
        return body

    if has_header:
        names = [cell.strip() for cell in first.split(",")]
        if "" in names:
            raise MalformedTable(text.count("\n", 0, start) + 1,
                                 f"header cell {names.index('') + 1} is empty")
    else:
        names = [f"c{i + 1}" for i in range(first.count(",") + 1)]
    width = len(names)
    id_col = names.index("id") if "id" in names else None
    if id_col is not None:
        del names[id_col]
        if "id" in names:
            raise DuplicateAttribute("id")

    def ragged() -> None:
        """Report the first line after the header whose comma count is
        wrong, by its file line number, blank lines counted, in one pass
        over the lines; called once some line is known to be ragged."""
        split_text()
        numbered = ((number, line) for number, line in enumerate(lines, 1) if line.strip())
        for number, line in itertools.islice(numbered, skip, None):
            if line.count(",") != width - 1:
                raise MalformedTable(number, f"expected {width} cells, got {line.count(',') + 1}")

    # An id-only table, whose header has no comma to scan for, is keyed
    # with the id last.
    scan = id_col == 0 and width > 1
    if scan:
        tails = _TAIL.findall(text, start)  # the header's, then each key
        n = len(tails) - 1
        if text.count("\n", start) + (not text.endswith("\n")) != len(tails):
            n = len(split_text())  # some line has no comma
    else:
        n = len(split_text())
    if not n:
        raise EmptyTable()
    if scan and n != len(tails) - 1:
        ragged()  # a non-blank line has no comma

    def split(distinct: list[str]) -> list[list[str]]:
        """The cell columns of the ``distinct`` keys, after one C-level check
        of their comma counts."""
        if set(map(str.count, distinct, itertools.repeat(","))) - {len(names) - 1}:
            ragged()
        # With the id last, a line without the comma that cuts it off keys
        # as "", as does an empty cell before the id; with one attribute
        # both pass the comma count, so only then is every line checked for
        # that comma.  The scan has already matched every id-first line with
        # a comma.
        if id_col == 1 == len(names) and "" in distinct and not all(
                map(contains, split_text(), itertools.repeat(","))):
            ragged()
        cells = ",".join(distinct).split(",")
        return [cells[c::len(names)] for c in range(len(names))]

    # Each line is keyed by its text without the id cell, cut off in C, so
    # only the distinct keys are split and coded.  A key's comma count, its
    # line's less any comma cut off with the id, stands for every line with
    # that key; the scan's line count and split() catch a line without the
    # comma that cuts off a first or last id, and a line too short for the
    # middle cut raises IndexError, so every line's width is still checked.
    # No line's cut is kept, and the ids are cut from the text again only if
    # they are read.
    object_ids = _LazyTuple(n, map(str, range(n)) if id_col is None
                            else _cut_ids(text, id_col))
    if scan:
        keys = itertools.islice(tails, 1, None)
    else:
        data = split_text()
        if id_col is None:
            keys = data
            del text  # the lines are split, and no ids' generator holds it
        elif id_col == width - 1:
            keys = map(itemgetter(0), map(str.rpartition, data, itertools.repeat(",")))
        else:
            keys = map(",".join, map(itemgetter(*range(id_col), id_col + 1),
                                     map(str.split, data, itertools.repeat(","),
                                         itertools.repeat(id_col + 1))))
    try:
        rows = _factorized(keys, split, strip=True)
    except IndexError:  # a line too short for the middle cut
        ragged()
        raise

    if decision == IDENTITY:
        decision = None
    if decision is not None and decision not in names:
        raise UnknownDecision(decision)
    return InformationSystem(object_ids, tuple(names), rows, decision)


# Ten digits of a seven-segment display; segment names a..g are the
# conditional attributes and each digit is its own decision class.
SEVEN_SEGMENT_CSV = """\
id,a,b,c,d,e,f,g
0,1,1,1,1,1,1,0
1,0,1,1,0,0,0,0
2,1,1,0,1,1,0,1
3,1,1,1,1,0,0,1
4,0,1,1,0,0,1,1
5,1,0,1,1,0,1,1
6,1,0,1,1,1,1,1
7,1,1,1,0,0,0,0
8,1,1,1,1,1,1,1
9,1,1,1,1,0,1,1
"""


_BUILTINS = {"seven-segment": SEVEN_SEGMENT_CSV}


def builtin_seven_segment() -> InformationSystem:
    """The bundled ten-digit seven-segment table (identity decision)."""
    return load_builtin("seven-segment")


def builtin_names() -> tuple[str, ...]:
    return tuple(sorted(_BUILTINS))


def load_builtin(name: str, decision: str | None = None) -> InformationSystem:
    """The bundled table ``name``, read by :func:`load_csv` with ``decision``."""
    try:
        text = _BUILTINS[name]
    except KeyError:
        raise ReductForgeError(f"unknown builtin dataset: {name!r}") from None
    return load_csv(text.encode(), decision=decision)
