"""Decision tables: the categorical information systems everything else consumes.

A table is a rectangle of opaque categorical symbols, one row per object and
one column per attribute, with an optional designated decision column.  When
no decision column is named the table uses the ``identity`` policy: every
object is its own decision class, so preserving discernibility means keeping
all objects apart.

A table is stored factorized: its distinct rows once, as coded columns (per
column, each stored row's value as a dense int in first-occurrence order,
and the column's distinct values in code order), plus each object's row
index and each row's object count.  One step, ``_factorized``, builds that
storage for :func:`load_csv` and for row tuples given to
:class:`InformationSystem`: it keys each object by its raw cells in one
dictionary pass and strips and codes only the distinct rows.  When fewer
than one row in 16 repeats, the rows are stored per object instead: a
table with few repeats then keeps one form, not two.  The partition kernel
folds the stored rows, weighted by their object counts; per-object codes are
derived only when ``rows``, ``column``, ``value``, equality or the per-object
reference path asks for them.
"""

from __future__ import annotations

import itertools
from collections import Counter
from collections.abc import Hashable, Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import IO, Union

from .errors import (
    DuplicateAttribute,
    EmptyTable,
    MalformedTable,
    ReductForgeError,
    UnknownAttribute,
    UnknownDecision,
)

IDENTITY = "identity"

CsvSource = Union[bytes, str, IO[bytes], IO[str]]


def _coded(
    cells: Sequence[Hashable], strip: bool = False
) -> tuple[tuple[int, ...], tuple[Hashable, ...]]:
    """Each cell's dense code, in first-occurrence order, and the distinct
    values in code order.  With ``strip``, cells that strip to the same string
    share one code and the stripped string is the value; each distinct cell
    is stripped once."""
    index = dict.fromkeys(cells)
    values: dict[Hashable, int] = {}
    for cell in index:
        index[cell] = values.setdefault(cell.strip() if strip else cell, len(values))
    return tuple(map(index.__getitem__, cells)), tuple(values)


class _Rows(Sequence):
    """Read-only row tuples of a table, stored factorized.

    ``codes[c][r]`` is stored row ``r``'s code in column ``c`` and
    ``values[c][code]`` the cell it stands for.  ``index[i]`` is object
    ``i``'s stored row and ``weights[r]`` the number of objects on row
    ``r``; when the rows are stored per object, both are ``None``.  Stored
    rows come in first-occurrence order, so codes are those of the objects.
    Cells that differ only in whitespace share a code, so two stored rows
    may carry the same codes.  :meth:`object_codes` derives the per-object
    code columns on first use.  The view compares equal to the tuple of row
    tuples it stands for, and hashes like it.
    """

    __slots__ = ("n", "codes", "values", "index", "weights", "_object_codes")

    def __init__(self, n: int,
                 columns: list[tuple[tuple[int, ...], tuple[Hashable, ...]]],
                 index: Sequence[int] | None = None,
                 weights: Sequence[int] | None = None) -> None:
        """``n`` objects over the stored rows of ``columns``, given as
        ``_coded`` gives them, with each object's stored row ``index`` and
        each row's object count ``weights``, or neither for per-object rows."""
        self.n = n
        self.codes = tuple(codes for codes, _ in columns)
        self.values = tuple(values for _, values in columns)
        self.index, self.weights = index, weights
        self._object_codes = self.codes if index is None else None

    def object_codes(self) -> tuple[Sequence[int], ...]:
        """Each column's per-object codes, derived from the stored rows on
        first use and kept."""
        if self._object_codes is None:
            self._object_codes = tuple(tuple(map(codes.__getitem__, self.index))
                                       for codes in self.codes)
        return self._object_codes

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[i] for i in range(*index.indices(self.n)))
        if not -self.n <= index < self.n:
            raise IndexError("row index out of range")
        row = index if self.index is None else self.index[index]
        return tuple(vals[codes[row]] for codes, vals in zip(self.codes, self.values))

    def __iter__(self) -> Iterator[tuple]:
        rows = zip(*(map(vals.__getitem__, codes)
                     for codes, vals in zip(self.codes, self.values)))
        return rows if self.index is None else map(list(rows).__getitem__, self.index)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _Rows):
            # Codes are canonical, so equal rows have equal codes and values.
            return (self.n, self.object_codes(), self.values) == (
                other.n, other.object_codes(), other.values)
        if isinstance(other, tuple):
            return tuple(self) == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


def _factorized(n: int, columns: list[Sequence[Hashable]], strip: bool = False) -> _Rows:
    """``n`` rows given as raw cell ``columns``, stored factorized.

    One dictionary pass keys each object by its raw cells.  When at least one
    row in 16 repeats, only the distinct rows are coded (and, with
    ``strip``, stripped), with each object's row index and each row's object
    count; otherwise every row is stored as it is.  ``columns`` is consumed,
    each raw column freed once it is coded.
    """
    # Each object is named by the first object with its cells, so the
    # distinct rows, and the counts keyed by those names, come in
    # first-occurrence order.  zip() of no columns is empty, but with no
    # column every object has the one empty row.
    first: dict[tuple, int] = {}
    owner = list(map(first.setdefault,
                     zip(*columns) if columns else itertools.repeat((), n),
                     itertools.count()))
    if 16 * (n - len(first)) < n:
        del first, owner
        coded = []
        while columns:
            coded.append(_coded(columns.pop(0), strip))
        return _Rows(n, coded)
    columns.clear()
    row_of = dict(zip(first.values(), itertools.count()))
    index = list(map(row_of.__getitem__, owner))
    weights = list(Counter(owner).values())
    return _Rows(n, [_coded(col, strip) for col in zip(*first)], index, weights)


@dataclass(frozen=True)
class InformationSystem:
    """Immutable decision table over categorical values.

    ``decision`` is either the name of an attribute (excluded from the
    conditional set) or ``None`` for the identity policy.  ``rows`` may be
    given as any sequence of row tuples; the table stores it factorized and
    keeps ``rows`` as a read-only view of that storage.
    """

    object_ids: tuple[str, ...]
    attributes: tuple[str, ...]
    rows: Sequence[tuple[str, ...]]
    decision: str | None = None

    def __post_init__(self) -> None:
        if not self.object_ids or not self.attributes:
            raise EmptyTable()
        seen: set[str] = set()
        for name in self.attributes:
            if name in seen:
                raise DuplicateAttribute(name)
            seen.add(name)
        width = len(self.attributes)
        rows = self.rows
        if isinstance(rows, _Rows):
            # The stored columns give the width; per-object codes are not built.
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
            object.__setattr__(self, "rows", _factorized(len(rows), list(zip(*rows))))

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
        return tuple(map(self.rows.values[idx].__getitem__, self.rows.object_codes()[idx]))

    @cached_property
    def _granules(self):
        """The partition kernel's view of this table, its distinct
        conditional rows, built on first use and kept with the table."""
        from .partition import _granulate  # partition imports this module

        return _granulate(self)


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
    Every line's commas are counted, then one split gives all cells, and
    ``_factorized`` keys each line by its cells other than the ``id`` one and
    strips and codes only the distinct lines.
    """
    lines = _read_text(source).replace("\r\n", "\n").replace("\r", "\n").split("\n")
    body = list(filter(str.strip, lines))
    if not body:
        raise EmptyTable()
    if has_header:
        names = [cell.strip() for cell in body.pop(0).split(",")]
        if "" in names:
            header = next(number for number, text in enumerate(lines, 1) if text.strip())
            raise MalformedTable(header, f"header cell {names.index('') + 1} is empty")
    else:
        names = [f"c{i + 1}" for i in range(body[0].count(",") + 1)]
    width = len(names)
    id_col = names.index("id") if "id" in names else None
    if id_col is not None:
        del names[id_col]
        if "id" in names:
            raise DuplicateAttribute("id")

    # The comma counts are checked in one C-level pass; only a ragged table
    # walks its lines, to report the first ragged one by its line number.
    if set(map(str.count, body, itertools.repeat(","))) - {width - 1}:
        for j, line in enumerate(body, int(has_header)):
            if line.count(",") != width - 1:
                numbers = (number for number, text in enumerate(lines, 1) if text.strip())
                raise MalformedTable(next(itertools.islice(numbers, j, None)),
                                     f"expected {width} cells, got {line.count(',') + 1}")
    if not body:
        raise EmptyTable()

    # Every line has width - 1 commas, so one split gives the cells row by row.
    n = len(body)
    cells = ",".join(body).split(",")
    del lines, body
    columns = [cells[c::width] for c in range(width)]
    del cells
    object_ids = (tuple(map(str.strip, columns.pop(id_col))) if id_col is not None
                  else tuple(map(str, range(n))))
    rows = _factorized(n, columns, strip=True)

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
