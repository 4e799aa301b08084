"""Decision tables: the categorical information systems everything else consumes.

A table is a rectangle of opaque categorical symbols, one row per object and
one column per attribute, with an optional decision column; without one the
``identity`` policy makes every object its own decision class.  Whatever its
repeats, a table stores its distinct rows once, as coded columns, with each
object's row index and each row's object count.  Per-object readers
(``rows``, ``column``, ``value``, equality, the per-object partitions) read
a stored row through the object's row index.  A table keeps the kernel's
view of its rows and the kernel's two walks (:mod:`.kernel`), each built on
first use.
"""

from __future__ import annotations

import itertools
import re
from collections import defaultdict
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
from .kernel import _elimination, _granulate, _without_each

IDENTITY = "identity"

CsvSource = Union[bytes, str, IO[bytes], IO[str]]


def _coded(
    cells: Sequence[Hashable], strip: bool = False
) -> tuple[tuple[int, ...], tuple[Hashable, ...]]:
    """Each cell's dense code, in first-occurrence order, and the distinct
    values in code order.  With ``strip``, cells that strip to the same
    string share one code, whose value is the stripped string; only the
    distinct cells are stripped."""
    numbering = defaultdict(itertools.count().__next__)
    codes = tuple(map(numbering.__getitem__, cells))
    if not strip:
        return codes, tuple(numbering)
    values = defaultdict(itertools.count().__next__)
    merged = list(map(values.__getitem__, map(str.strip, numbering)))
    if len(values) < len(merged):
        return tuple(map(merged.__getitem__, codes)), tuple(values)
    return codes, tuple(values)


class _Rows(Sequence):
    """Read-only row tuples of a table, stored factorized.

    ``codes[c][r]`` is stored row ``r``'s code in column ``c`` and
    ``values[c][code]`` the cell it stands for; ``index[i]`` is object
    ``i``'s stored row and ``weights[r]`` row ``r``'s object count.  Stored
    rows come in first-occurrence order, and two may carry the same codes.
    The view compares equal to the tuple of row tuples, and hashes like it.
    """

    __slots__ = ("n", "codes", "values", "index", "weights")

    def __init__(self, columns: list[tuple[tuple[int, ...], tuple[Hashable, ...]]],
                 index: Sequence[int], weights: Sequence[int]) -> None:
        """The stored rows of ``columns``, each as ``_coded`` gives it."""
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
    """A read-only tuple of ``n`` items, consumed from the lazy iterator
    ``items`` when one is first read (a loaded table's ``object_ids``, a
    ``ReductResult.trace``).  It compares equal to the tuple of its items,
    and hashes and reprs like it; a copy is a plain tuple."""

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
    its text (LF line ends, no byte-order mark) by the loader's line rules."""
    lines = filter(str.strip, text.split("\n"))
    next(lines)  # the header
    cells = map(str.split, lines, itertools.repeat(","), itertools.repeat(column + 1))
    yield from map(str.strip, map(itemgetter(column), cells))


def _factorized(keys: Iterable[Hashable],
                columns_of: Callable[[list[Hashable]], list[Sequence[Hashable]]],
                strip: bool = False) -> _Rows:
    """Rows given as one hashable key per object, stored factorized: the
    keys numbered in first-occurrence order give each object's row, and
    ``columns_of(distinct)`` gives the raw cell columns of the distinct keys
    alone, which are coded (and, with ``strip``, stripped)."""
    numbering = defaultdict(itertools.count().__next__)
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

    ``decision`` names an attribute (excluded from the conditional set), or
    is ``None`` for the identity policy.  ``rows`` may be any sequence of row
    tuples; the table stores it factorized and keeps ``rows`` as a read-only
    view.  ``object_ids`` may be any sequence of ids.
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
        """The kernel's granule view of this table (``kernel._granulate``)."""
        return _granulate(self)

    @cached_property
    def _table_walk(self):
        """The kernel's leave-one-out walk (``kernel._without_each``) over
        the conditional attributes C in table order, kept as ints: |POS| of
        C, and dicts from each ``a``, in table order, to the block count and
        to |POS| of C - a.  No grouping outlives the walk."""
        view = self._granules
        cond = tuple(view.columns)
        (_, full), readings = _without_each(
            view, cond, cond, read=lambda labels: (labels.blocks, labels.positive))
        return (full, dict(zip(cond, map(itemgetter(0), readings))),
                dict(zip(cond, map(itemgetter(1), readings))))

    @cached_property
    def _elimination(self):
        """The kernel's column-order elimination pass (``kernel._elimination``):
        C's block count, the removed names and each kept name's witness pair
        of granule indices; no grouping and no per-candidate count."""
        return _elimination(self._granules)


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

    Cells are split on bare commas (no quoting, so a cell holding a comma
    shows up as a ragged row) and stored trimmed.  With a header, the one
    column named ``id`` (a second is a duplicate) holds object labels; without
    one, attributes are ``c1..cn`` and labels are row ordinals.  ``decision``
    is an attribute name, or ``"identity"`` (same as ``None``).  The source
    is UTF-8 bytes, text or a file object, and a leading byte-order mark is
    ignored.  Lines end at LF, CRLF or CR only.  Blank and whitespace-only
    lines are skipped, but ``MalformedTable.row`` is the file's 1-based line
    number counting them; an empty or whitespace-only header cell is
    reported at the header's line.  Only the distinct lines, less the ``id``
    cell, are split and coded; ``object_ids`` builds the ids when one is read.
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
        """``body``, the text split into ``lines`` and filtered on first use."""
        # A plain memo: functools.cache takes about 4 µs per load to set up.
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
        """Raise ``MalformedTable`` at the first line after the header whose
        comma count is wrong, once some line is known to be ragged."""
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
