"""Table model, CSV ingestion, and the bundled seven-segment dataset."""

from __future__ import annotations

import dataclasses
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reduct_forge import (
    DuplicateAttribute,
    EmptyTable,
    InformationSystem,
    MalformedTable,
    UnknownDecision,
    builtin_seven_segment,
    conditional_attributes,
    decision_partition,
    eliminate,
    ind_partition,
    load_builtin,
    load_csv,
    rank_attributes,
)
from reduct_forge.dataset import SEVEN_SEGMENT_CSV
from reduct_forge.partition import block_count, dependency

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
        ],
        ids=["middle", "last"],
    )
    def test_id_column_anywhere(self, data, ids, rows):
        table = load_csv(data)
        assert table.attributes == ("p", "q")
        assert table.object_ids == ids
        assert table.rows == rows

    @pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("has_header", [True, False], ids=["header", "headerless"])
    def test_malformed_row_is_the_file_line(self, eol, has_header):
        # Blank and whitespace-only lines before the first line and between
        # rows still count: the ragged row "3" is line 8 of the file.
        first = "p,q" if has_header else "0,0"
        lines = ["", "  ", first, "\t", "1,2", "", " \t ", "3", "4,5"]
        with pytest.raises(MalformedTable) as exc:
            load_csv(eol.join(lines).encode("utf-8"), has_header=has_header)
        assert exc.value.row == 8
        assert "expected 2 cells, got 1" in str(exc.value)

    def test_header_only_with_id_column_is_empty(self):
        with pytest.raises(EmptyTable):
            load_csv(b"id,p\n")
        with pytest.raises(EmptyTable):
            load_csv(b"\n id , p \n \n")

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
    """A CSV text of a few rows repeated many times, in shuffled order, with
    whitespace drawn around cells, an ``id`` column first, in the middle,
    last or absent, or no header, and the identity or a named decision;
    returned with the rows, ids, names and decision it stands for."""
    has_header = draw(st.booleans())
    m = draw(st.integers(1, 4))
    names = [f"a{i}" for i in range(m)] if has_header else [f"c{i + 1}" for i in range(m)]
    pool = draw(st.lists(st.lists(st.sampled_from(["0", "1", "x y"]), min_size=m, max_size=m),
                         min_size=1, max_size=4))
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
    return "\n".join(lines) + "\n", has_header, rows, ids, names, decision


@settings(max_examples=200, deadline=None)
@given(repeated_csv(), st.data())
def test_factorized_load_matches_direct_construction(drawn, data):
    """A loaded table keys each line by its raw cells and codes only the
    distinct lines; every accessor and every answer must equal those of the
    table built from the row tuples, which keys the stripped cells."""
    text, has_header, rows, ids, names, decision = drawn
    table = load_csv(text, has_header=has_header, decision=decision)
    ids = tuple(ids) if ids is not None else tuple(map(str, range(len(rows))))
    direct = InformationSystem(ids, tuple(names), tuple(map(tuple, rows)), decision)
    assert table.object_ids == direct.object_ids
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
        assert sum(view.weights or [1] * len(view.labels)) == len(rows)
    assert rank_attributes(table) == rank_attributes(direct)
    assert eliminate(table) == eliminate(direct)


@settings(max_examples=100, deadline=None)
@given(repeated_csv(), st.data())
def test_ragged_repeat_reports_its_own_line(drawn, data):
    """A ragged line, a copy of a row with one cell dropped or added, placed
    among repeated lines and itself repeated, is reported at the file line of
    its first copy: every line's commas are checked, not one per key."""
    text, has_header, *_ = drawn
    lines = text.split("\n")[:-1]
    copy = data.draw(st.sampled_from(lines[int(has_header):]).filter(str.strip))
    ragged = copy + ",1" if data.draw(st.booleans()) or "," not in copy else \
        copy.rpartition(",")[0]
    # After the first line, which sets the width of a headerless table.
    at = sorted(data.draw(st.lists(st.integers(1, len(lines)), min_size=1, max_size=3)))
    for offset, position in enumerate(at):
        lines.insert(position + offset, ragged)
    with pytest.raises(MalformedTable) as exc:
        load_csv("\n".join(lines), has_header=has_header)
    assert exc.value.row == at[0] + 1


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
