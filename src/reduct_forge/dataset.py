"""Decision tables: the categorical information systems everything else consumes.

A table is a rectangle of opaque categorical symbols, one row per object and
one column per attribute, with an optional designated decision column.  When
no decision column is named the table uses the ``identity`` policy: every
object is its own decision class, so preserving discernibility means keeping
all objects apart.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
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


@dataclass(frozen=True)
class InformationSystem:
    """Immutable decision table over categorical values.

    ``decision`` is either the name of an attribute (excluded from the
    conditional set) or ``None`` for the identity policy.
    """

    object_ids: tuple[str, ...]
    attributes: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]
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
        for i, row in enumerate(self.rows):
            if len(row) != width:
                raise MalformedTable(i + 1, f"expected {width} cells, got {len(row)}")
        if len(self.rows) != len(self.object_ids):
            raise MalformedTable(len(self.rows), "object id count differs from row count")
        if self.decision is not None and self.decision not in self.attributes:
            raise UnknownDecision(self.decision)

    @property
    def object_count(self) -> int:
        return len(self.rows)

    def column_index(self, attribute: str) -> int:
        try:
            return self.attributes.index(attribute)
        except ValueError:
            raise UnknownAttribute(attribute) from None

    def value(self, obj: int, attribute: str) -> str:
        return self.rows[obj][self.column_index(attribute)]

    def column(self, attribute: str) -> tuple[str, ...]:
        idx = self.column_index(attribute)
        return tuple(row[idx] for row in self.rows)


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
    header, a column literally named ``id`` is consumed as object labels
    rather than as an attribute; without one, attributes are auto-named
    ``c1..cn`` and labels are row ordinals.  ``decision`` may be an attribute
    name or the string ``"identity"`` (same as ``None``).  The source may be
    bytes, text or a binary or text file object; bytes are UTF-8, and a
    leading byte-order mark is ignored for every source type.  Lines end at
    LF, CRLF or CR only, so a cell may hold a form feed or a Unicode line
    separator.  Blank and whitespace-only lines are skipped, but
    ``MalformedTable.row`` is the file's 1-based line number, counting them.
    """
    text = _read_text(source).replace("\r\n", "\n").replace("\r", "\n")
    lines = ((n, line) for n, line in enumerate(text.split("\n"), 1) if line.strip())
    first = next(lines, None)
    if first is None:
        raise EmptyTable()
    if has_header:
        names = [cell.strip() for cell in first[1].split(",")]
    else:
        names = [f"c{i + 1}" for i in range(first[1].count(",") + 1)]
        lines = itertools.chain([first], lines)
    width = len(names)
    id_col = names.index("id") if "id" in names else None
    if id_col is not None:
        del names[id_col]

    ids: list[str] = []
    rows: list[tuple[str, ...]] = []
    for line_no, line in lines:
        cells = [cell.strip() for cell in line.split(",")]
        if len(cells) != width:
            raise MalformedTable(line_no, f"expected {width} cells, got {len(cells)}")
        if id_col is not None:
            ids.append(cells.pop(id_col))
        rows.append(tuple(cells))
    if not rows:
        raise EmptyTable()

    if decision == IDENTITY:
        decision = None
    if decision is not None and decision not in names:
        raise UnknownDecision(decision)
    object_ids = tuple(ids) if id_col is not None else tuple(map(str, range(len(rows))))
    return InformationSystem(object_ids, tuple(names), tuple(rows), decision)


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
