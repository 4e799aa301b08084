"""Decision tables: the categorical information systems everything else consumes.

A table is a rectangle of opaque categorical symbols, one row per object and
one column per attribute, with an optional decision column; without one the
``identity`` policy makes every object its own decision class.  Whatever its
repeats, a table stores its distinct rows once, as coded columns (``bytes``,
or an unsigned ``array`` above 256 values), with each row's object count.
Per-object readers (``rows``, ``column``, ``value``, equality, the
per-object partitions) read a stored row through the object's row index,
which a table whose rows repeat builds when one of them first asks for
it.  A table keeps the kernel's view of its rows and the kernel's two
walks (:mod:`.kernel`), each built on first use.
"""

from __future__ import annotations

import itertools
import re
from array import array
from collections import Counter, defaultdict
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
from .kernel import _elimination, _granulate, _stored, _without_each

IDENTITY = "identity"

CsvSource = Union[bytes, str, IO[bytes], IO[str]]


def _coded(
    cells: str | Sequence[Hashable], strip: bool = False
) -> tuple[bytes | array, tuple[Hashable, ...]]:
    """Each cell's dense code, in first-occurrence order, stored as
    ``kernel._stored`` gives it, and the distinct values in code order.
    ``cells`` is a sequence of cells, or a string of one-character cells,
    which one ``str.translate`` codes when it holds at most 256 distinct
    characters.  With ``strip``, cells that strip to the same string share
    one code, whose value is the stripped string; only the distinct cells
    are stripped, and ``bytes`` codes are remapped by one ``bytes.translate``."""
    if isinstance(cells, str) and len(chars := set(cells)) <= 256:
        raw: Iterable[Hashable] = sorted(chars, key=cells.index)
        codes: bytes | list[int] = cells.translate(
            dict(zip(map(ord, raw), range(256)))).encode("latin-1")
    else:
        raw = numbering = defaultdict(itertools.count().__next__)
        try:
            codes = bytes(map(numbering.__getitem__, cells))
        except ValueError:  # the 257th value: a second pass keeps the codes handed out
            codes = list(map(numbering.__getitem__, cells))
    if strip:
        merging = defaultdict(itertools.count().__next__)
        merged = list(map(merging.__getitem__, map(str.strip, raw)))
        if len(merging) < len(merged):
            codes = (codes.translate(bytes(merged).ljust(256, b"\0")) if isinstance(codes, bytes)
                     else list(map(merged.__getitem__, codes)))
        raw = merging
    values = tuple(raw)
    return _stored(codes, len(values)), values


class _TupleView(Sequence):
    """A read-only sequence of ``n`` items that stands for the tuple of
    them, ``_tuple()``: it compares equal to that tuple and to any view of
    the same items, and hashes and reprs like it.  Two views of unequal
    length compare unequal before either builds its tuple."""

    __slots__ = ("n",)

    def _tuple(self) -> tuple:
        return tuple(self)

    def __len__(self) -> int:
        return self.n

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _TupleView):
            return self.n == other.n and self._tuple() == other._tuple()
        if isinstance(other, tuple):
            return self._tuple() == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._tuple())

    def __repr__(self) -> str:
        return repr(self._tuple())


class _Rows(_TupleView):
    """Read-only row tuples of a table, stored factorized.

    ``codes[c][r]`` is stored row ``r``'s code in column ``c`` and
    ``values[c][code]`` the cell it stands for; ``index[i]`` is object
    ``i``'s stored row and ``weights[r]`` row ``r``'s object count.  Each
    column of codes is ``bytes`` when it has at most 256 values and otherwise
    the narrowest unsigned ``array`` that holds them (``kernel._stored``),
    whichever coder made it.  Stored rows come in first-occurrence order,
    and two may carry the same codes.  ``index`` is a ``range`` when no row
    repeats, and otherwise a ``_LazyTuple`` built on its first read.
    """

    __slots__ = ("codes", "values", "index", "weights")

    def __init__(self, columns: list[tuple[bytes | array, tuple[Hashable, ...]]],
                 index: Sequence[int], weights: Sequence[int]) -> None:
        """The stored rows of ``columns``, each as ``_coded`` gives it."""
        self.n = len(index)
        self.codes = tuple(codes for codes, _ in columns)
        self.values = tuple(values for _, values in columns)
        self.index, self.weights = index, weights

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


class _LazyTuple(_TupleView):
    """Items consumed from the lazy iterator ``items`` when one is first
    read, and kept (a loaded table's ``object_ids``, a stored row index, a
    ``ReductResult.trace``); a copy is a plain tuple."""

    __slots__ = ("_pending", "_items")

    def __init__(self, n: int, items: Iterator) -> None:
        self.n = n
        self._pending: Iterator | None = items
        self._items: tuple | None = None

    def _tuple(self) -> tuple:
        if self._items is None:
            self._items, self._pending = tuple(self._pending), None
        return self._items

    def __getitem__(self, index):
        return self._tuple()[index]

    def __iter__(self) -> Iterator:
        return iter(self._tuple())

    def __reduce__(self):
        # A copy must not share the one-shot iterator: it is a plain tuple.
        return tuple, (self._tuple(),)


def _factorized(keys: Iterable[Hashable], again: Iterator[Hashable],
                columns_of: Callable[[list[Hashable]], list[str | Sequence[Hashable]]],
                strip: bool = False) -> _Rows:
    """Rows given as one hashable key per object, stored factorized.  One
    C-level count of ``keys`` gives the distinct keys in first-occurrence
    order and each one's object count, and ``columns_of(distinct)`` gives the
    raw cell columns of the distinct keys alone, each a sequence of cells or
    a string of one-character cells, which ``_coded`` codes (and, with
    ``strip``, strips).  ``again`` is a lazy iterator of the same keys:
    when some key repeats, each object's row is numbered from it on the
    index's first read; else the index is a range and ``again`` is dropped."""
    counts = Counter(keys)
    n = sum(counts.values())
    if len(counts) == n:
        index, weights = range(n), [1] * n
    else:
        # Numbered in first-occurrence order, as the count keeps its keys.
        numbering = defaultdict(itertools.count().__next__)
        index, weights = _LazyTuple(n, map(numbering.__getitem__, again)), list(counts.values())
    distinct = list(counts)
    del counts  # the counts are not needed while the keys are split
    columns = columns_of(distinct)
    del distinct  # the keys are not needed while their cells are coded
    return _Rows([_coded(col, strip) for col in columns], index, weights)


@dataclass(frozen=True)
class InformationSystem:
    """Immutable decision table over categorical values.

    ``decision`` names an attribute (excluded from the conditional set), or
    is ``None`` for the identity policy.  ``rows`` may be any sequence of row
    tuples; the table stores a snapshot of it factorized and keeps ``rows``
    as a read-only view.  ``object_ids`` may be any sequence of ids.
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
            # The lazy index reads a snapshot: the caller may change its rows.
            snapshot = tuple(map(tuple, rows))
            stored = _factorized(snapshot, iter(snapshot), lambda keys: list(zip(*keys)))
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


# The id-first cut: each line's text after its first comma.  findall runs
# one C scan: the literal comma is sre's prefix search, and ``.`` stops only
# at LF, the loader's line end, so a line without a comma, blank ones too,
# yields nothing.
_TAIL = re.compile(",(.*)")

# A scan cuts chunks of about this many characters, each ending at a line
# end, so no list of every line or every key is built.
_CHUNK = 1 << 16


def _chunks(cut: Callable[[str, int, int], Iterable], text: str, start: int) -> Iterator:
    """``cut(text, pos, endpos)`` of each chunk of ``text`` from ``start`` on,
    of about ``_CHUNK`` characters and ending at a line end, each run only
    when the one before it is used up."""
    bounds = [start]
    while (end := text.find("\n", bounds[-1] + _CHUNK)) >= 0:
        bounds.append(end)
    bounds.append(len(text))
    return map(cut, itertools.repeat(text), bounds, bounds[1:])


def _scan(cut: Callable[[str, int, int], Iterable], text: str, start: int) -> Iterator:
    """What ``cut`` yields for the lines of ``text`` from ``start`` on, one
    chunk at a time (``_chunks``)."""
    return itertools.chain.from_iterable(_chunks(cut, text, start))


def _nonblank(text: str, pos: int, endpos: int) -> list[str]:
    """The id-less cut: the lines of ``text[pos:endpos]`` that are not blank
    or whitespace-only."""
    return list(filter(str.strip, text[pos:endpos].split("\n")))


def _head(text: str, pos: int, endpos: int) -> Iterator[str]:
    """The id-last cut: each line's text before its last comma, for the
    lines of ``text[pos:endpos]`` that hold one."""
    lines = text[pos:endpos].split("\n")
    held = itertools.compress(lines, map(contains, lines, itertools.repeat(",")))
    return map(itemgetter(0), map(str.rpartition, held, itertools.repeat(",")))


def _cut(id_col: int | None, width: int) -> Callable[[str, int, int], Iterable[str]]:
    """The key cut of a layout of ``width`` columns whose ``id_col``-th is
    the id (None: no id): ``cut(text, pos, endpos)``, with
    ``Pattern.findall``'s signature, gives each line's text less its id
    cell, and nothing for a blank line or one too short for the cut."""
    if id_col is None:
        return _nonblank
    if id_col == 0:
        return _TAIL.findall
    if id_col == width - 1:
        return _head
    # The cells before the id with their commas, and the text after the
    # comma that follows it.
    middle = re.compile(rf"^((?:[^,\n]*,){{{id_col}}})[^,\n]*,(.*)", re.M).findall
    return lambda text, pos, endpos: map("".join, middle(text, pos, endpos))


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
    reported at the header's line.  Whatever the ``id`` column's place, the
    lines are keyed by their text less the ``id`` cell, cut in C one chunk of
    the text at a time, so no list of the lines is built; only the distinct
    keys are split and coded.  ``object_ids`` builds the ids when one is
    read, and the row index, when some line repeats, is built likewise, each
    by a scan of its own.  When every cell of the distinct lines is one
    character, each column is cut from their joined text as one string, with
    no list of cells, and coded by one ``str.translate``; otherwise the cells
    are split and coded by a dict.  Either way each column is stored as
    ``bytes`` at 256 values or fewer, and as an unsigned ``array`` above.
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
    if has_header:
        names = [cell.strip() for cell in first.split(",")]
        if "" in names:
            raise MalformedTable(text.count("\n", 0, start) + 1,
                                 f"header cell {names.index('') + 1} is empty")
        after = end if end >= 0 else len(text)  # the header's line end
    else:
        names = [f"c{i + 1}" for i in range(first.count(",") + 1)]
        after = start
    width = len(names)
    id_col = names.index("id") if "id" in names else None
    if id_col is not None:
        del names[id_col]
        if "id" in names:
            raise DuplicateAttribute("id")

    def ragged() -> None:
        """Raise ``MalformedTable`` at the first line after the header whose
        comma count is wrong, once some line is known to be ragged.  An
        id-only table has no ragged line when no line holds a comma."""
        numbered = ((number, line) for number, line in enumerate(text.split("\n"), 1)
                    if line.strip())
        for number, line in itertools.islice(numbered, skip, None):
            if line.count(",") != width - 1:
                raise MalformedTable(number, f"expected {width} cells, got {line.count(',') + 1}")

    def split(distinct: list[str]) -> list[list[str]] | list[str]:
        """The cell columns of the ``distinct`` keys, once C-level counts
        have shown that each holds m - 1 commas: a string of each column's
        cells when every cell is one character, else a list of them."""
        m = len(names)
        joined = ",".join(distinct)
        half = m * len(distinct) - 1
        # Keys of 2m - 1 characters joined with a comma at every odd place
        # and nowhere else are m one-character cells each; a column is every
        # 2m-th character.
        if (set(map(len, distinct)) == {2 * m - 1}
                and joined.count(",") == joined[1::2].count(",") == half):
            return [joined[2 * c::2 * m] for c in range(m)]
        if set(map(str.count, distinct, itertools.repeat(","))) - {m - 1}:
            ragged()
        cells = joined.split(",")
        return [cells[c::m] for c in range(m)]

    # Each line is keyed by its text less the id cell, so only the distinct
    # keys are split and coded.  A key's comma count, its line's less any
    # comma cut off with the id, stands for every line with that key, and
    # split() checks it; a line too short for the cut yields no key, which
    # the count of keys against non-blank lines catches.  No key is kept:
    # the cut keys the lines again from the text if the row index is read.
    cut = _cut(id_col, width)
    rows = _factorized(_scan(cut, text, after), _scan(cut, text, after), split, strip=True)
    n = rows.n
    # One count of line ends tells that every line gave a key, as is
    # common; else the non-blank lines are counted chunk by chunk.  The
    # id-less cut keys every non-blank line.
    if id_col is not None and text.count("\n", start) + (not text.endswith("\n")) != n + skip:
        n = sum(map(len, _chunks(_nonblank, text, after)))
    if not n:
        raise EmptyTable()
    if n != rows.n:
        ragged()  # a non-blank line too short for its cut

    if decision == IDENTITY:
        decision = None
    if decision is not None and decision not in names:
        raise UnknownDecision(decision)
    if id_col is None:
        ids = map(str, range(rows.n))
    else:
        cells = map(str.split, _scan(_nonblank, text, after), itertools.repeat(","),
                    itertools.repeat(id_col + 1))
        ids = map(str.strip, map(itemgetter(id_col), cells))
    return InformationSystem(_LazyTuple(rows.n, ids), tuple(names), rows, decision)


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
