"""Decision tables: the categorical information systems everything else consumes.

A table is a rectangle of opaque categorical symbols, one row per object and
one column per attribute, with an optional designated decision column.  When
no decision column is named the table uses the ``identity`` policy: every
object is its own decision class, so preserving discernibility means keeping
all objects apart.

A table stores its cells as coded columns: per column, each object's value
as a dense int in first-occurrence order, and the column's distinct values
in code order.  The partition kernel groups on those ints.  ``rows`` is a
read-only view that derives row tuples from the codes when asked; nothing
else is stored, and :func:`load_csv` codes each column as it reads it,
without building row tuples.
"""

from __future__ import annotations

import itertools
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
    """Read-only row tuples of a table, derived from its coded columns.

    ``codes[c][i]`` is object ``i``'s code in column ``c`` and
    ``values[c][code]`` the cell it stands for.  The view compares equal to
    the tuple of row tuples it stands for, and hashes like it.
    """

    __slots__ = ("n", "codes", "values")

    def __init__(self, n: int,
                 columns: list[tuple[tuple[int, ...], tuple[Hashable, ...]]]) -> None:
        """``n`` rows of the columns ``columns``, given as ``_coded`` gives them."""
        self.n = n
        self.codes = tuple(codes for codes, _ in columns)
        self.values = tuple(values for _, values in columns)

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[i] for i in range(*index.indices(self.n)))
        if not -self.n <= index < self.n:
            raise IndexError("row index out of range")
        return tuple(vals[codes[index]] for codes, vals in zip(self.codes, self.values))

    def __iter__(self) -> Iterator[tuple]:
        return zip(*(map(vals.__getitem__, codes)
                     for codes, vals in zip(self.codes, self.values)))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _Rows):
            # Codes are canonical, so equal rows have equal codes and values.
            return (self.n, self.codes, self.values) == (
                other.n, other.codes, other.values)
        if isinstance(other, tuple):
            return tuple(self) == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass(frozen=True)
class InformationSystem:
    """Immutable decision table over categorical values.

    ``decision`` is either the name of an attribute (excluded from the
    conditional set) or ``None`` for the identity policy.  ``rows`` may be
    given as any sequence of row tuples; the table codes it by column and
    keeps ``rows`` as a read-only view of those codes.
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
            if len(rows.codes) != width:
                raise MalformedTable(1, f"expected {width} cells, got {len(rows.codes)}")
        else:
            for i, row in enumerate(rows):
                if len(row) != width:
                    raise MalformedTable(i + 1, f"expected {width} cells, got {len(row)}")
        if len(rows) != len(self.object_ids):
            raise MalformedTable(len(rows), "object id count differs from row count")
        if self.decision is not None and self.decision not in self.attributes:
            raise UnknownDecision(self.decision)
        if not isinstance(rows, _Rows):
            columns = [_coded(col) for col in zip(*rows)]
            object.__setattr__(self, "rows", _Rows(len(rows), columns))

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
        return self.rows.values[idx][self.rows.codes[idx][obj]]

    def column(self, attribute: str) -> tuple[str, ...]:
        idx = self.column_index(attribute)
        return tuple(map(self.rows.values[idx].__getitem__, self.rows.codes[idx]))

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
    ``MalformedTable.row`` is the file's 1-based line number, counting them.
    """
    lines = _read_text(source).replace("\r\n", "\n").replace("\r", "\n").split("\n")
    body = list(filter(str.strip, lines))
    if not body:
        raise EmptyTable()
    if has_header:
        names = [cell.strip() for cell in body.pop(0).split(",")]
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
    coded = []
    while columns:  # each raw column is freed once it is coded
        coded.append(_coded(columns.pop(0), strip=True))

    if decision == IDENTITY:
        decision = None
    if decision is not None and decision not in names:
        raise UnknownDecision(decision)
    return InformationSystem(object_ids, tuple(names), _Rows(n, coded), decision)


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
