"""Table model, CSV ingestion, and the bundled seven-segment dataset."""

from __future__ import annotations

import dataclasses
import io
import pickle
import random
from copy import copy, deepcopy

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reduct_forge import (
    DuplicateAttribute,
    EmptyTable,
    InformationSystem,
    MalformedTable,
    ObjectSet,
    Partition,
    ReductForgeError,
    UnknownDecision,
    builtin_seven_segment,
    conditional_attributes,
    core_attributes,
    decision_partition,
    eliminate,
    exhaustive_reducts,
    ind_partition,
    load_builtin,
    load_csv,
    rank_attributes,
    significance,
)
from reduct_forge import dataset
from reduct_forge.dataset import SEVEN_SEGMENT_CSV
from reduct_forge.kernel import block_count
from reduct_forge.significance import dependency

from conftest import make_table

# What str.splitlines also breaks at; a CSV line ends at LF, CRLF or CR only.
SEPARATORS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]

# Every source type load_csv reads, built from the same text.
SOURCES = {
    "bytes": str.encode,
    "str": str,
    "BytesIO": lambda text: io.BytesIO(text.encode()),
    "StringIO": io.StringIO,
}

# Attribute-wise equivalence classes of the bundled table, keyed by attribute.
SEGMENT_CLASSES = {
    "a": [{0, 2, 3, 5, 6, 7, 8, 9}, {1, 4}],
    "b": [{0, 1, 2, 3, 4, 7, 8, 9}, {5, 6}],
    "c": [{0, 1, 3, 4, 5, 6, 7, 8, 9}, {2}],
    "d": [{0, 2, 3, 5, 6, 8, 9}, {1, 4, 7}],
    "e": [{0, 2, 6, 8}, {1, 3, 4, 5, 7, 9}],
    "f": [{0, 4, 5, 6, 8, 9}, {1, 2, 3, 7}],
    "g": [{0, 1, 7}, {2, 3, 4, 5, 6, 8, 9}],
}


class TestBuiltinSevenSegment:
    def test_shape(self, seven_segment):
        assert seven_segment.object_count == 10
        assert seven_segment.attributes == ("a", "b", "c", "d", "e", "f", "g")
        assert seven_segment.decision is None
        assert seven_segment.object_ids == tuple(str(d) for d in range(10))

    @pytest.mark.parametrize("attr", sorted(SEGMENT_CLASSES))
    def test_attribute_classes(self, seven_segment, attr):
        part = ind_partition(seven_segment, [attr])
        got = [set(b) for b in part.blocks]
        want = sorted(SEGMENT_CLASSES[attr], key=min)
        assert got == want

    def test_class_sizes(self, seven_segment):
        sizes = [
            tuple(len(b) for b in ind_partition(seven_segment, [a]).blocks)
            for a in seven_segment.attributes
        ]
        assert sizes == [(8, 2), (8, 2), (9, 1), (7, 3), (4, 6), (6, 4), (3, 7)]

    def test_digit_zero_row(self, seven_segment):
        row = dict(zip(seven_segment.attributes, seven_segment.rows[0]))
        assert all(row[a] == "1" for a in "abcdef")
        assert row["g"] == "0"

    def test_digit_eight_row(self, seven_segment):
        assert set(seven_segment.rows[8]) == {"1"}

    @pytest.mark.parametrize("decision", [None, "g"])
    def test_load_builtin_with_decision(self, decision):
        assert load_builtin("seven-segment", decision) == dataclasses.replace(
            builtin_seven_segment(), decision=decision)

    def test_load_builtin_unknown_decision(self):
        with pytest.raises(UnknownDecision, match="^decision column 'zz' not found in table$"):
            load_builtin("seven-segment", "zz")

    def test_load_builtin_unknown_name(self):
        # The CLI's --builtin choices stop a bad name before the loader sees it.
        with pytest.raises(ReductForgeError, match="^unknown builtin dataset: 'nope'$") as exc:
            load_builtin("nope")
        assert type(exc.value) is ReductForgeError


class TestLoadCsv:
    def test_seven_segment_roundtrip(self):
        table = load_csv(SEVEN_SEGMENT_CSV.encode("utf-8"))
        assert table.object_count == 10
        assert table.attributes == ("a", "b", "c", "d", "e", "f", "g")

    def test_single_row_with_id(self):
        table = load_csv(b"id,p\nx,1\n")
        assert table.object_count == 1
        assert table.attributes == ("p",)
        assert table.object_ids == ("x",)

    def test_ragged_row_rejected(self):
        with pytest.raises(MalformedTable) as exc:
            load_csv(b"1,0\n1\n", has_header=False)
        assert exc.value.row == 2

    def test_ragged_after_header(self):
        with pytest.raises(MalformedTable) as exc:
            load_csv(b"p,q\n1,2\n3\n")
        assert exc.value.row == 3

    def test_duplicate_attribute(self):
        # A second ``id`` header column is a duplicate name, not an attribute.
        for text, name in [(b"p,p\n1,2\n", "p"), (b"id,a,id\n1,x,2\n", "id")]:
            with pytest.raises(DuplicateAttribute) as exc:
                load_csv(text)
            assert exc.value.name == name

    def test_unknown_decision(self):
        with pytest.raises(UnknownDecision):
            load_csv(b"p,q\n1,2\n", decision="missing")

    @pytest.mark.parametrize("header", ["a,,b", "a, ,b", "id,a,\t,b"],
                             ids=["empty", "space", "tab-after-id"])
    def test_empty_header_cell_is_the_header_line(self, header):
        # An attribute named "" could not be named by --attrs.
        with pytest.raises(MalformedTable, match="is empty") as exc:
            load_csv(f"\n \n{header}\n1,2,3,4\n".encode())
        assert exc.value.row == 3

    def test_empty_inputs(self):
        with pytest.raises(EmptyTable):
            load_csv(b"")
        with pytest.raises(EmptyTable):
            load_csv(b"p,q\n")  # header only

    def test_headerless_autonames(self):
        table = load_csv(b"1,2\n3,4\n", has_header=False)
        assert table.attributes == ("c1", "c2")
        assert table.object_ids == ("0", "1")

    def test_identity_string_decision(self):
        table = load_csv(b"p\n1\n", decision="identity")
        assert table.decision is None

    def test_cells_trimmed(self):
        table = load_csv(b"p, q\n 1 , 2 \n")
        assert table.attributes == ("p", "q")
        assert table.rows == (("1", "2"),)

    def test_quoted_comma_is_ragged(self):
        with pytest.raises(MalformedTable):
            load_csv(b'p,q\n"a,b",1\n')

    def test_deterministic(self):
        data = b"p,q\n1,2\n1,3\n"
        assert load_csv(data) == load_csv(data)

    def test_byte_order_mark_does_not_hide_id_column(self):
        data = b"id,p,q\nx,1,2\ny,1,3\n"
        table = load_csv(b"\xef\xbb\xbf" + data)
        assert table.attributes == ("p", "q")
        assert table.object_ids == ("x", "y")
        assert table == load_csv(data)

    @pytest.mark.parametrize("kind", sorted(SOURCES))
    def test_byte_order_mark_ignored_for_every_source_type(self, kind):
        table = load_csv(SOURCES[kind]("\ufeffid,p\nx,1\n"))
        assert table.attributes == ("p",)
        assert table.object_ids == ("x",)

    @pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("sep", SEPARATORS, ids=lambda c: f"U+{ord(c):04X}")
    def test_only_lf_crlf_and_cr_end_a_line(self, eol, sep):
        lines = ["p,q", f"1,x{sep}y", "", "2,z"]
        table = load_csv(eol.join(lines).encode())
        assert table.rows == (("1", f"x{sep}y"), ("2", "z"))
        with pytest.raises(MalformedTable) as exc:
            load_csv(eol.join(lines + ["3"]).encode())
        assert exc.value.row == 5

    @pytest.mark.parametrize(
        "data, ids, rows",
        [
            (b"p,id,q\nx,1,2\ny,3,4\n", ("1", "3"), (("x", "2"), ("y", "4"))),
            (b"p,q,id\nx,1,2\ny,3,4\n", ("2", "4"), (("x", "1"), ("y", "3"))),
            (b"p,q,id\r\nx,1,2\r\ny,3,4\r\n", ("2", "4"), (("x", "1"), ("y", "3"))),
            (b"p,q,id\rx,1,2\ry,3,4\r", ("2", "4"), (("x", "1"), ("y", "3"))),
        ],
        ids=["middle", "last", "last-crlf", "last-cr"],
    )
    def test_id_column_anywhere(self, data, ids, rows):
        table = load_csv(data)
        assert table.attributes == ("p", "q")
        assert table.object_ids == ids
        assert table.rows == rows

    @pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("layout", ["header", "headerless", "id-first", "id-last"])
    def test_malformed_row_is_the_file_line(self, eol, layout):
        # Blank and whitespace-only lines before the first line and between
        # rows still count: the ragged row "3" is line 8 of the file.  With
        # an id column, line 8 holds only its id, among repeated lines that
        # are keyed by their text without the id; with one attribute, that
        # text has no comma, so only the missing id comma shows the line.
        first, row, ragged, last = {
            "header": ("p,q", "1,2", "3", "4,5"),
            "headerless": ("0,0", "1,2", "3", "4,5"),
            "id-first": ("id,p", "o,1", "o", "o,4"),
            "id-last": ("p,id", "1,o", "o", "4,o"),
        }[layout]
        lines = ["", "  ", first, "\t", row, "", " \t ", ragged, *[last] * 20]
        with pytest.raises(MalformedTable) as exc:
            load_csv(eol.join(lines).encode("utf-8"), has_header=layout != "headerless")
        assert exc.value.row == 8
        assert "expected 2 cells, got 1" in str(exc.value)

    def test_header_only_with_id_column_is_empty(self):
        with pytest.raises(EmptyTable):
            load_csv(b"id,p\n")
        with pytest.raises(EmptyTable):
            load_csv(b"\n id , p \n \n")
        with pytest.raises(EmptyTable):  # rows, but no attribute
            load_csv(b"id\no1\no2\n")

    def test_id_only_table_reports_a_ragged_line_before_empty(self):
        # An id-only table is keyed like any id-first table, so a line with a
        # second cell is reported at its line before the table is found to
        # have no attribute.
        with pytest.raises(MalformedTable, match="^malformed table at row 3: expected 1 cells, got 2$"):
            load_csv(b"id\no1\no2,x\n")

    def test_line_too_short_for_the_middle_cut(self):
        # A line with fewer commas than the cut of a middle id needs is
        # reported at its line, and a ragged line before it first.
        for text, row, got in [(b"p,q,id,r\n1,2,o1,3\n\n1,2\n", 4, 2),
                               (b"p,q,id,r\n1,2,o1,3,4\n1\n", 2, 5)]:
            with pytest.raises(MalformedTable, match=f"expected 4 cells, got {got}$") as exc:
                load_csv(text)
            assert exc.value.row == row

    def test_header_only_reports_empty_before_unknown_decision(self):
        with pytest.raises(EmptyTable):
            load_csv(b"p,q\n", decision="zz")

    def test_unknown_decision_reported_before_duplicate_header(self):
        with pytest.raises(UnknownDecision):
            load_csv(b"p,p\n1,2\n", decision="zz")

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_round_trip_matches_direct_construction(self, data):
        m = data.draw(st.integers(1, 4))
        attrs = [f"a{i}" for i in range(m)]
        plain = st.text("xyz01", min_size=1, max_size=3)
        cell = plain | st.builds("{}{}{}".format, plain, st.sampled_from(SEPARATORS), plain)
        rows = data.draw(st.lists(st.lists(cell, min_size=m, max_size=m),
                                  min_size=1, max_size=6))
        id_col = data.draw(st.none() | st.integers(0, m))
        ids = [f"o{i}" for i in range(len(rows))]
        decision = data.draw(st.none() | st.sampled_from(attrs))
        pad = st.sampled_from(["", " ", "\t", " \t "])
        blank = st.lists(st.sampled_from(["", " ", "\t", " \t"]), max_size=2)

        def line(cells):
            return ",".join(data.draw(pad) + c + data.draw(pad) for c in cells)

        lines = data.draw(blank)
        for i, cells in enumerate([attrs] + rows):
            cells = list(cells)
            if id_col is not None:
                cells.insert(id_col, "id" if i == 0 else ids[i - 1])
            lines += [line(cells)] + data.draw(blank)
        text = data.draw(st.sampled_from(["\n", "\r\n", "\r"])).join(lines)
        bom = data.draw(st.sampled_from(["", "\ufeff"]))
        source = SOURCES[data.draw(st.sampled_from(sorted(SOURCES)))](bom + text)

        table = load_csv(source, decision=decision)
        assert table == InformationSystem(
            object_ids=tuple(ids) if id_col is not None else tuple(map(str, range(len(rows)))),
            attributes=tuple(attrs),
            rows=tuple(map(tuple, rows)),
            decision=decision,
        )
        # The loaded table and the one built from row tuples are coded alike.
        want = tuple(map(tuple, rows))
        direct = InformationSystem(table.object_ids, table.attributes, want, decision)
        assert hash(table) == hash(direct)
        assert table.rows == direct.rows
        assert table.rows == want
        # Rows swapped in by dataclasses.replace are coded afresh, not
        # grouped by the codes of the rows they replace.
        other = data.draw(st.lists(st.lists(cell, min_size=m, max_size=m),
                                   min_size=len(rows), max_size=len(rows)))
        other = tuple(map(tuple, other))
        swapped = dataclasses.replace(table, rows=other)
        fresh = InformationSystem(table.object_ids, table.attributes, other, decision)
        assert swapped == fresh
        assert swapped.rows == other
        cond = conditional_attributes(fresh)
        for name in cond:
            assert ind_partition(swapped, [name]) == ind_partition(fresh, [name])
        assert ind_partition(swapped, cond) == ind_partition(fresh, cond)
        assert decision_partition(swapped) == decision_partition(fresh)


@st.composite
def repeated_csv(draw):
    """A CSV text of a few rows repeated many times, or of up to 40 distinct
    rows each drawn once, in shuffled order, with whitespace drawn around
    cells, an ``id`` column first, in the middle, last or absent, or no
    header, LF, CRLF or CR line ends, an optional byte-order mark, and the
    identity or a named decision; returned with its line end and the rows,
    ids, names and decision it stands for."""
    has_header = draw(st.booleans())
    m = draw(st.integers(1, 4))
    names = [f"a{i}" for i in range(m)] if has_header else [f"c{i + 1}" for i in range(m)]
    cells = st.lists(st.sampled_from(["0", "1", "x y"]), min_size=m, max_size=m)
    if draw(st.booleans()):
        rows = draw(st.lists(cells, min_size=1, max_size=40, unique_by=tuple))
    else:
        pool = draw(st.lists(cells, min_size=1, max_size=4))
        rows = [list(row) for row in pool for _ in range(draw(st.integers(1, 12)))]
    rows = draw(st.permutations(rows))
    id_col = draw(st.none() | st.integers(0, m)) if has_header else None
    decision = draw(st.none() | st.sampled_from(names))
    ids = [f"o{i}" for i in range(len(rows))] if id_col is not None else None
    pad = st.sampled_from(["", "", "", " ", "\t"])

    def line(cells):
        return ",".join(draw(pad) + cell + draw(pad) for cell in cells)

    lines = []
    for i, cells in enumerate(([names] if has_header else []) + rows):
        cells = list(cells)
        if id_col is not None:
            cells.insert(id_col, "id" if has_header and i == 0 else ids[i - 1])
        lines.append(line(cells))
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(["", " "])))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    bom = draw(st.sampled_from(["", "\ufeff"]))
    return bom + eol.join(lines) + eol, eol, has_header, rows, ids, names, decision


@settings(max_examples=200, deadline=None)
@given(repeated_csv(), st.data())
def test_factorized_load_matches_direct_construction(drawn, data):
    """A loaded table keys each line by its text without the id cell,
    wherever the id sits, and codes only the distinct lines; every accessor
    and every answer must equal those of the table built from the row
    tuples, which keys the stripped cells."""
    text, _, has_header, rows, ids, names, decision = drawn
    table = load_csv(text, has_header=has_header, decision=decision)
    ids = tuple(ids) if ids is not None else tuple(map(str, range(len(rows))))
    direct = InformationSystem(ids, tuple(names), tuple(map(tuple, rows)), decision)
    # The loaded ids are a view that reads like the tuple of ids.
    view = table.object_ids
    assert len(view) == len(ids)
    assert view == direct.object_ids
    assert direct.object_ids == view
    assert hash(view) == hash(ids)
    assert repr(view) == repr(ids)
    assert tuple(view) == ids
    at = data.draw(st.integers(-len(ids), len(ids) - 1))
    assert view[at] == ids[at]
    assert view[-1] == ids[-1]
    bounds = st.none() | st.integers(-len(ids) - 1, len(ids) + 1)
    cut = slice(data.draw(bounds), data.draw(bounds), data.draw(st.none() | st.sampled_from([1, 2, -1])))
    assert view[cut] == ids[cut]
    assert table == direct
    assert table.rows == direct.rows == tuple(map(tuple, rows))
    assert list(table.rows) == list(direct.rows)
    obj = data.draw(st.integers(-len(rows), len(rows) - 1))
    assert table.rows[obj] == direct.rows[obj]
    for name in names:
        assert table.column(name) == direct.column(name)
        assert table.value(obj, name) == direct.value(obj, name)
    cond = conditional_attributes(table)
    for attrs in [cond, *([a] for a in cond)]:
        assert block_count(table, attrs) == block_count(direct, attrs)
        assert dependency(table, attrs) == dependency(direct, attrs)
    for view in (table._granules, direct._granules):
        assert sum(view.weights) == len(rows)
    assert rank_attributes(table) == rank_attributes(direct)
    assert eliminate(table) == eliminate(direct)


@settings(max_examples=100, deadline=None)
@given(repeated_csv(), st.data())
def test_ragged_repeat_reports_its_own_line(drawn, data):
    """A ragged line, a copy of a row with one cell dropped or added or only
    its id cell, placed among repeated lines and itself repeated, is
    reported at the file line of its first copy: a key's comma count stands
    for every line with that key, and a line without the comma that cuts off
    its id fails a check of its own, so every line's width is checked."""
    text, eol, has_header, *_ = drawn
    body = text.removeprefix("\ufeff")
    bom = text[:len(text) - len(body)]
    lines = body.split(eol)[:-1]
    copy = data.draw(st.sampled_from(lines[int(has_header):]).filter(str.strip))
    header = [cell.strip() for cell in lines[0].split(",")] if has_header else []
    choices = [copy + ",1"]
    if "," in copy:
        choices.append(copy.rpartition(",")[0])
    if "id" in header:
        choices.append(copy.split(",")[header.index("id")])
    ragged = data.draw(st.sampled_from(choices))
    # After the first line, which sets the width of a headerless table.
    at = sorted(data.draw(st.lists(st.integers(1, len(lines)), min_size=1, max_size=3)))
    for offset, position in enumerate(at):
        lines.insert(position + offset, ragged)
    with pytest.raises(MalformedTable) as exc:
        load_csv(bom + eol.join(lines), has_header=has_header)
    assert exc.value.row == at[0] + 1


@pytest.mark.parametrize("eol", ["\n", "\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize("id_first", [True, False], ids=["id-first", "id-last"])
def test_lone_id_line_among_empty_cells(eol, id_first):
    """With the id first or last and one attribute, a line that holds only
    its id keys as "", as an empty cell does, so it passes the comma count
    of the distinct keys; the check of every line for the id's comma, run
    because "" is a key, still reports it at its file line."""
    def line(obj, cell):
        return f"{obj},{cell}" if id_first else f"{cell},{obj}"

    lines = [line("id", "a"), line("o1", ""), line("o2", "x"), "", line("o3", " "),
             "o4", line("o5", ""), line("o6", "x")]
    with pytest.raises(MalformedTable, match="^malformed table at row 6: expected 2 cells, got 1$"):
        load_csv(eol.join(lines) + eol)
    del lines[5]
    table = load_csv(eol.join(lines) + eol)
    assert table.object_ids == ("o1", "o2", "o3", "o5", "o6")
    assert table.rows == (("",), ("x",), ("",), ("",), ("x",))


@pytest.mark.parametrize("text", ["id,p\no1,1\no2,2\n", "p,id,q\n1,o1,2\n3,o2,4\n",
                                  "p,q\n1,2\n3,4\n"], ids=["id-first", "id-middle", "no-id"])
def test_loaded_table_copies_and_pickles(text):
    """A copy of a table whose ids are not yet built holds the ids, not a
    share of the one pass that builds them."""
    table = load_csv(text)
    copied = deepcopy(table)
    pickled = pickle.loads(pickle.dumps(table))
    assert copied == pickled == table
    assert copied.object_ids == pickled.object_ids == tuple(table.object_ids)


def test_loaded_ids_are_built_only_when_read():
    """Ranking and elimination never read the object ids, so a loaded
    table with its id first keeps only its text until an id is read; the
    ids are then the stripped first cells of its lines."""
    lines = ["id,p,q,d"] + [f" o{i} ,{i % 7},{i % 3},{i % 5}" for i in range(20000)]
    table = load_csv("\n".join(lines), decision="d")
    rank_attributes(table)
    eliminate(table)
    assert table.object_ids._items is None
    assert table.object_ids[5] == "o5"
    assert table.object_ids._items is not None
    assert table.object_ids == tuple(line.split(",")[0].strip() for line in lines[1:])
    given_ids = tuple(f"x{i}" for i in range(3))
    given = InformationSystem(given_ids, ("p",), (("1",), ("2",), ("1",)))
    assert given.object_ids == given_ids
    assert given_ids == given.object_ids


def test_row_views_and_lazy_tuples_stand_for_their_tuples():
    """A table's ``rows``, its loaded ``object_ids`` and a stored row index
    are views that compare equal to their tuples and to each other, and
    hash and repr like them; lazy tuples of unequal length compare unequal
    before either reads its items, and a copy of one is a plain tuple."""
    table = load_csv("id,p,q\no1,1,x\no2,2,y\no3,1,x\n")
    rows = (("1", "x"), ("2", "y"), ("1", "x"))
    assert isinstance(table.object_ids, dataset._LazyTuple)
    assert isinstance(table.rows.index, dataset._LazyTuple)
    for view, want in ((table.rows, rows), (table.object_ids, ("o1", "o2", "o3")),
                       (table.rows.index, (0, 1, 0))):
        assert view == want and want == view and view != list(want)
        assert hash(view) == hash(want) and repr(view) == repr(want)
    lazy = dataset._LazyTuple(3, iter(rows))
    assert table.rows == lazy and lazy == table.rows and hash(table.rows) == hash(lazy)
    assert table.rows != dataset._LazyTuple(3, iter(rows[1:] + rows[:1]))

    def spy(items):
        read = []
        return read, dataset._LazyTuple(len(items), (read.append(x) or x for x in items))

    read_short, short = spy((1, 2))
    read_long, long = spy((1, 2, 3))
    assert short != long and long != short and short != table.rows
    assert read_short == read_long == [] and short._items is long._items is None
    for copied in (copy(long), pickle.loads(pickle.dumps(long))):
        assert type(copied) is tuple and copied == (1, 2, 3)


@pytest.mark.parametrize("at", [0, 2, 4, None], ids=["first", "middle", "last", "none"])
def test_row_index_is_built_only_when_read(at):
    """Ranking, significance, the core, elimination and the oracle never
    read the row index, so a loaded table whose lines repeat keeps it
    unbuilt, in every id layout; once read, the index, the row tuples, a
    column and a partition are what a plain dict over the lines gives."""
    rng = random.Random(f"lazy-index-{at}")
    pool = [[str(rng.randrange(3)) for _ in range(4)] for _ in range(30)]
    body = [rng.choice(pool) for _ in range(400)]
    names = ["a", "b", "c", "d"]
    lines = []
    for i, row in enumerate([names] + body):
        if at is not None:
            row = row[:at] + ["id" if i == 0 else f"o{i}"] + row[at:]
        lines.append(",".join(row))
    table = load_csv("\r\n".join(lines[:9] + [" "] + lines[9:]), decision="d")
    rows = table.rows
    assert isinstance(rows.index, dataset._LazyTuple)
    rank_attributes(table)
    significance(table, "a")
    core_attributes(table)
    eliminate(table)
    exhaustive_reducts(table)
    assert rows.index._items is None
    number: dict[tuple[str, ...], int] = {}
    want_index = tuple(number.setdefault(tuple(row), len(number)) for row in body)
    assert tuple(rows.index) == want_index
    assert rows.index._items is not None
    assert table.rows == tuple(map(tuple, body))
    assert table.column("b") == tuple(row[1] for row in body)
    blocks: dict[tuple[str, ...], list[int]] = {}
    for i, row in enumerate(body):
        blocks.setdefault((row[0], row[2]), []).append(i)
    assert ind_partition(table, ["a", "c"]) == Partition.from_blocks(
        [ObjectSet.from_indices(block, len(body)) for block in blocks.values()], len(body))


def _per_line(text: str, has_header: bool = True,
              decision: str | None = None) -> InformationSystem:
    """The loader as it keyed lines before the scan, kept as a reference for
    every layout: the text split into lines, blank and whitespace-only ones
    filtered out, each line split into cells and the id cell, wherever it
    is, taken out; the same storage step, and errors found by a plain pass
    over the lines in file order."""
    text = text.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n")
    numbered = [(number, line) for number, line in enumerate(text.split("\n"), 1)
                if line.strip()]
    if not numbered:
        raise EmptyTable()
    body = numbered
    if has_header:
        (at, header), *body = numbered
        names = [cell.strip() for cell in header.split(",")]
        if "" in names:
            raise MalformedTable(at, f"header cell {names.index('') + 1} is empty")
    else:
        names = [f"c{i + 1}" for i in range(numbered[0][1].count(",") + 1)]
    width = len(names)
    id_col = names.index("id") if "id" in names else None
    if id_col is not None:
        del names[id_col]
        if "id" in names:
            raise DuplicateAttribute("id")
    if not body:
        raise EmptyTable()
    for number, line in body:
        if line.count(",") != width - 1:
            raise MalformedTable(number, f"expected {width} cells, got {line.count(',') + 1}")
    cells = [line.split(",") for _, line in body]
    ids = (tuple(map(str, range(len(body)))) if id_col is None
           else tuple(row.pop(id_col).strip() for row in cells))
    keys = [",".join(row) for row in cells]
    rows = dataset._factorized(
        keys, iter(keys), lambda distinct: list(zip(*(key.split(",") for key in distinct))),
        strip=True)
    return InformationSystem(ids, tuple(names), rows, decision)


def _loaded(load, text: str, has_header: bool = True):
    """What ``load`` gives for ``text``: the table's attributes, stored rows
    and ids, or its exception's type, message and row."""
    try:
        table = load(text, has_header=has_header)
    except (EmptyTable, MalformedTable, DuplicateAttribute) as exc:
        return type(exc), str(exc), getattr(exc, "row", None)
    rows = table.rows
    return (table.attributes, rows.codes, rows.values, tuple(rows.index),
            tuple(rows.weights), tuple(table.object_ids))


# Cells that a line end must not split: "." matches each of them.
_ODD = ["\x0c", "\x85", "\u2028"]


@st.composite
def any_layout_csv(draw):
    """The text of a table, and whether it has a header, with the id first,
    in the middle, last or absent, an id-only table among them, or with no
    header.  Cells may be empty or hold spaces, tabs, form feeds, U+0085 or
    U+2028; blank and whitespace-only lines come anywhere, before the
    header and at the end too; some non-blank lines have no comma, some a
    wrong comma count; lines end at LF, CRLF or CR, with or without a last
    line end."""
    layout = draw(st.sampled_from(["first", "middle", "last", "none", "headerless", "id-only"]))
    m = 0 if layout == "id-only" else draw(st.integers(2 if layout == "middle" else 1, 3))
    has_header = layout != "headerless"
    at = {"first": 0, "last": m, "id-only": 0}.get(layout)  # None: no id
    if layout == "middle":
        at = draw(st.integers(1, m - 1))
    plain = st.sampled_from(["0", "1", "x"])
    cell = plain | st.sampled_from(["", " ", "\t", *_ODD]) | st.builds(
        "{}{}{}".format, plain, st.sampled_from([" ", "\t", *_ODD]), plain)
    blank = st.sampled_from(["", " ", "\t ", *_ODD, " \x85 "])

    def line(obj, cells):
        return ",".join(cells if at is None else [*cells[:at], obj, *cells[at:]])

    lines = draw(st.lists(blank, max_size=2))
    if has_header:
        lines.append(line("id", [f" a{i} " for i in range(m)]))
    for i in range(draw(st.integers(0, 12))):
        kind = draw(st.integers(0, 19))
        if kind < 3:
            lines.append(draw(blank))
        elif kind == 3:  # non-blank, no comma
            lines.append(draw(st.sampled_from([f"o{i}", f" o{i}\x0c", "\u2028x"])))
        elif kind == 4:  # a cell too many or too few
            lines.append(line(f"o{i}", draw(st.lists(cell, max_size=m + 1).filter(
                lambda c: len(c) != m))))
        else:
            lines.append(line(f"o{i}", draw(st.lists(cell, min_size=m, max_size=m))))
    lines += draw(st.lists(blank, max_size=2))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    bom = draw(st.sampled_from(["", "\ufeff"]))
    return bom + eol.join(lines) + draw(st.sampled_from(["", eol])), has_header


@settings(max_examples=400, deadline=None)
@given(any_layout_csv())
def test_id_first_scan_matches_the_per_line_cut(case):
    """Keying the lines of every layout by one chunked scan of the text
    gives the stored rows, attributes and ids that splitting the text into
    lines and cutting the id cell out of each gives, and on a malformed text
    the same error, message and file line."""
    assert _loaded(load_csv, *case) == _loaded(_per_line, *case)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(any_layout_csv())
def test_scan_chunks_do_not_change_the_load(monkeypatch, case):
    """However small the scan's chunks, so that their ends fall between
    every two lines, inside runs of blank lines and next to a ragged line,
    the stored rows, index, ids and errors are those of the default chunk,
    in every layout."""
    want = _loaded(load_csv, *case)
    for chunk in (1, 7, 64):
        monkeypatch.setattr(dataset, "_CHUNK", chunk)
        assert _loaded(load_csv, *case) == want
    monkeypatch.undo()


@pytest.mark.parametrize("text, has_header", [
    ("id,p\no1,1\no2\no3,3\n", True),  # one attribute, a line without a comma
    ("id,p\no1,1\n \t\no2,2\n\x0c\no3,\n\x85", True),  # comma-less lines all blank
    ("id,p,q\no1,1,2\no2,1\no3\n", True),  # a wrong count before a comma-less line
    ("id,p,q\no1,1,2\no2\no3,1\n", True),  # ... and after one
    ("\n\nid,p\n\n", True),  # no row after blank lines
    ("id,p\n\x0c\n", True),
    ("id,p\no1\n", True),  # a comma-less line as the only row
    ("id,p\no1,x\x0cy\no2,\u2028\r\no3,x\x85y", True),
    ("p,id,q\n1,o1,2\n\n1,o2\n3,o3,4\n", True),  # a middle line too short for its cut
    ("p,q,id,r\n1,2,o1,3\n1,2\n", True),  # ... holding fewer commas than the id's place
    ("p,id\n1,o1\no2\n,o3\n", True),  # id last, one attribute, a comma-less line
    ("p,id\n1,o1\n\n,o3\n \n", True),  # ... and none
    ("id\no1\n\no2\n", True),  # id only: no attribute
    ("id\no1\no2,x\n", True),  # ... and a line with a second cell
    ("\n 1,x\n\n2\n 1,x \n", False),  # headerless, a comma-less line
    ("\x85\n1\n\n2\n", False),  # headerless, one column
], ids=["one-attribute", "blank-only", "count-first", "count-after", "empty",
        "form-feed-only", "only-ragged", "odd-cells", "middle-short", "middle-shorter",
        "last-comma-less", "last-one-attribute", "id-only", "id-only-ragged",
        "headerless-ragged", "headerless-one-column"])
def test_id_first_scan_examples(text, has_header):
    assert _loaded(load_csv, text, has_header) == _loaded(_per_line, text, has_header)


@pytest.mark.parametrize("text, width", [
    ("id,p,q\no1,a,b,c\no2,d\n", 3), ("p,q,id\na,b,c,o1\nd,o2\n", 3), ("p,q\na,b,c\nd\n", 2),
], ids=["id-first", "id-last", "no-id"])
def test_one_character_keys_that_join_like_a_table_are_ragged(text, width):
    """Two keys of one-character cells, one with a cell too many and one
    with a cell too few, join to the text of two well-formed keys; the
    load still reports the first of their lines."""
    with pytest.raises(MalformedTable, match=f"^malformed table at row 2: "
                                             f"expected {width} cells, got {width + 1}$"):
        load_csv(text)


def test_load_splits_the_text_only_to_report_a_ragged_line(monkeypatch):
    """A load that does not raise never splits the whole text into lines,
    in any layout and with blank lines anywhere, nor does reading its ids
    and its row index; only a ragged line's report splits it, once."""
    splits = []

    class Whole(str):
        """The loaded text, counting the splits made of it whole (a slice
        of it is a plain str)."""

        def split(self, *args):
            splits.append(args)
            return super().split(*args)

    monkeypatch.setattr(dataset, "_read_text", Whole)
    body = [[str(i % 3), str(i % 5), str(i % 2)] for i in range(50)]
    for at in (0, 1, 3, None, "headerless"):
        def line(obj, cells):
            return ",".join(cells if at in (None, "headerless")
                            else [*cells[:at], obj, *cells[at:]])

        lines = [line(f"o{i}", cells) for i, cells in enumerate(body)]
        if at != "headerless":
            lines.insert(0, line("id", ["p", "q", "r"]))
        ids = tuple(f"o{i}" if at not in (None, "headerless") else str(i) for i in range(50))
        for text in ["\n".join(lines), "\n".join(lines) + "\n",
                     "\n".join([" ", *lines[:20], "", "\t", *lines[20:], "\x85"]) + "\n"]:
            splits.clear()
            table = load_csv(text, has_header=at != "headerless")
            assert table.object_count == 50
            assert tuple(table.object_ids) == ids
            assert table.rows == tuple(map(tuple, body))
            assert splits == []
        splits.clear()
        with pytest.raises(MalformedTable, match="^malformed table at row 22: "):
            load_csv("\n".join([*lines[:21], "9", *lines[21:]]),
                     has_header=at != "headerless")
        assert splits == [("\n",)]


class TestInformationSystem:
    def test_direct_construction_validates(self):
        with pytest.raises(MalformedTable):
            InformationSystem(("0",), ("p", "q"), (("1",),))
        with pytest.raises(EmptyTable):
            InformationSystem((), ("p",), ())
        with pytest.raises(DuplicateAttribute):
            InformationSystem(("0",), ("p", "p"), (("1", "2"),))
        with pytest.raises(UnknownDecision):
            InformationSystem(("0",), ("p",), (("1",),), decision="q")

    def test_row_count_and_width_errors(self):
        with pytest.raises(MalformedTable) as exc:
            InformationSystem(("0",), ("p",), ())
        assert exc.value.row == 0
        with pytest.raises(MalformedTable, match="expected 2 cells, got 3") as exc:
            InformationSystem(("0", "1"), ("p", "q"), (("1", "2"), ("1", "2", "3")))
        assert exc.value.row == 2
        table = make_table([["1", "2"], ["3", "4"]], ["p", "q"])
        with pytest.raises(MalformedTable, match="expected 1 cells, got 2") as exc:
            dataclasses.replace(table, attributes=("p",))
        assert exc.value.row == 1
        with pytest.raises(MalformedTable, match="object id count differs") as exc:
            dataclasses.replace(table, object_ids=("0", "1", "2"))
        assert exc.value.row == 2

    def test_rows_view_reads_like_the_row_tuples(self):
        rows = (("1", "x"), ("2", "y"), ("1", "x"))
        table = InformationSystem(("a", "b", "c"), ("p", "q"), rows)
        assert table.rows == rows
        assert rows == table.rows
        assert table.rows != rows[:2]
        assert len(table.rows) == 3
        assert table.rows[1] == ("2", "y")
        assert table.rows[-1] == ("1", "x")
        assert table.rows[1:] == rows[1:]
        assert list(table.rows) == list(rows)
        assert hash(table.rows) == hash(rows)
        assert repr(table.rows) == repr(rows)
        with pytest.raises(IndexError):
            table.rows[3]
        listed = InformationSystem(("a", "b", "c"), ("p", "q"), [list(r) for r in rows])
        assert listed == table
        assert hash(listed) == hash(table)
        assert dataclasses.replace(table, decision="q").rows == rows

    def test_caller_rows_are_copied(self):
        """A table built from the caller's mutable rows keeps what they held
        when it was built, however the caller changes them after; a replace
        with new rows stores those afresh."""
        given_rows = [["1", "x"], ["2", "y"], ["1", "x"], ["2", "y"], ["1", "z"]]
        want = tuple(map(tuple, given_rows))
        table = InformationSystem(tuple("abcde"), ("p", "q"), given_rows)
        twin = InformationSystem(tuple("abcde"), ("p", "q"), want)
        given_rows[0][1] = "changed"
        given_rows[2] = ["3", "w"]
        given_rows.append(["9", "9"])
        assert table.rows == want
        assert table.column("q") == ("x", "y", "x", "y", "z")
        assert table == twin and hash(table) == hash(twin)
        assert pickle.loads(pickle.dumps(table)).rows == want
        replaced = dataclasses.replace(table, rows=given_rows[:5])
        assert replaced.rows == (("1", "changed"), ("2", "y"), ("3", "w"), ("2", "y"),
                                 ("1", "z"))
        assert table.rows == want

    def test_accessors(self):
        table = make_table([["1", "2"], ["3", "4"]], ["p", "q"])
        assert table.value(1, "q") == "4"
        assert table.column("p") == ("1", "3")


class TestConditionalAttributes:
    def test_identity_policy_keeps_all(self, seven_segment):
        assert conditional_attributes(seven_segment) == ("a", "b", "c", "d", "e", "f", "g")

    def test_decision_excluded_in_order(self):
        table = make_table([["1", "2", "x"]], ["p", "q", "class"], decision="class")
        assert conditional_attributes(table) == ("p", "q")

    def test_single_attribute(self):
        table = make_table([["1"]], ["p"])
        assert conditional_attributes(table) == ("p",)


def test_value_relabeling_invariance(seven_segment):
    relabel = {"0": "off", "1": "on"}
    col = seven_segment.attributes.index("e")
    rows = tuple(
        tuple(relabel[v] if i == col else v for i, v in enumerate(row))
        for row in seven_segment.rows
    )
    renamed = InformationSystem(
        seven_segment.object_ids, seven_segment.attributes, rows, None
    )
    for attrs in (["e"], ["b", "e"], list(seven_segment.attributes)):
        assert ind_partition(renamed, attrs) == ind_partition(seven_segment, attrs)
    assert rank_attributes(renamed).ranked == rank_attributes(seven_segment).ranked
    assert eliminate(renamed).reduct == eliminate(seven_segment).reduct
