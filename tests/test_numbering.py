"""The loader's numbering: ``_factorized`` counts keys with a ``Counter``,
which gives the distinct keys in first-occurrence order and each row's
object count, and numbers a second pass over the same keys densely with a
``defaultdict`` of a counter when each object's stored row is first read;
``_coded`` codes a column, merging cells that differ only in whitespace, by
one ``str.translate`` when the column is a string of one-character cells and
by a dict otherwise, and stores the codes as ``bytes`` at 256 values or
fewer and as an unsigned ``array`` above.  ``_factorized`` is checked against
a plain-dict reference, and ``_coded`` against the ``dict.fromkeys`` coding
it replaced, kept here verbatim; a loaded one-character table against the
same rows coded by the dict coder; the kernel's packing of a ``bytes``
column against that of a list; the loader's errors keep their precedence,
message and line, on lines that repeat and on lines that do not."""

from __future__ import annotations

import random
from array import array
from collections.abc import Hashable, Sequence
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reduct_forge import (
    EmptyTable, InformationSystem, MalformedTable, eliminate, exhaustive_reducts, load_csv,
    rank_attributes,
)
from reduct_forge import dataset
from reduct_forge.dataset import _coded, _factorized
from reduct_forge.kernel import _fields, _pack


def coded_reference(
    cells: Sequence[Hashable], strip: bool = False
) -> tuple[tuple[int, ...], tuple[Hashable, ...]]:
    """The coding before the counter's numbering: each distinct cell found by
    ``dict.fromkeys``, coded in a loop over them, then looked up per cell."""
    index = dict.fromkeys(cells)
    values: dict[Hashable, int] = {}
    for cell in index:
        index[cell] = values.setdefault(cell.strip() if strip else cell, len(values))
    return tuple(map(index.__getitem__, cells)), tuple(values)


def numbered_reference(keys: list[Hashable]) -> tuple[list[int], list[Hashable]]:
    """Each key's number, dense in first-occurrence order, and the distinct
    keys, by a plain loop."""
    number: dict[Hashable, int] = {}
    numbers = []
    for key in keys:
        if key not in number:
            number[key] = len(number)
        numbers.append(number[key])
    return numbers, list(number)


# Whitespace twins of "1", including the ideographic space U+3000, which
# str.strip also removes.
PAD = ["", " ", "  ", "\t", "　", " \t"]


@st.composite
def cell_columns(draw):
    """A column of cells: a few values repeated, more than 256 values, or
    every cell distinct, each cell maybe padded with whitespace or empty."""
    shape = draw(st.sampled_from(["few", "many", "distinct"]))
    if shape == "distinct":
        n = draw(st.integers(0, 600))
        base = [f"v{i}" for i in range(n)]
    elif shape == "few":
        k = draw(st.integers(1, 4))
        rng = random.Random(draw(st.integers(0, 2**16)))
        base = [str(rng.randrange(k)) for _ in range(draw(st.integers(0, 3000)))]
    else:  # k > 256 values, each drawn at least once
        k = draw(st.integers(257, 400))
        base = [str(i % k) for i in range(draw(st.integers(k, 3 * k)))]
        random.Random(draw(st.integers(0, 2**16))).shuffle(base)
    pads = draw(st.lists(st.tuples(st.sampled_from(PAD), st.sampled_from(PAD)),
                         min_size=1, max_size=4))
    rng = random.Random(draw(st.integers(0, 2**16)))
    padded = draw(st.floats(0, 1))
    out = []
    for cell in base:
        if rng.random() < padded:
            left, right = rng.choice(pads)
            cell = left + cell + right
        out.append("" if rng.random() < 0.02 else cell)
    return out


def assert_coded_like_the_reference(cells: str | Sequence[Hashable], strip: bool) -> None:
    """``_coded`` gives the reference's codes and values, the codes stored
    as ``bytes`` at 256 values or fewer and as an ``array`` above."""
    codes, values = _coded(cells, strip)
    assert (tuple(codes), values) == coded_reference(cells, strip)
    assert type(codes) is (bytes if len(values) <= 256 else array)
    assert type(values) is tuple


@settings(max_examples=150, deadline=None)
@given(cell_columns(), st.booleans())
def test_coded_matches_the_fromkeys_coding(cells, strip):
    """Codes and values equal those of the replaced coding, for raw and for
    stripped cells: whitespace twins share one code under ``strip`` and not
    without it."""
    assert_coded_like_the_reference(cells, strip)


@pytest.mark.parametrize("cells", [
    [" 1", "1 ", "\t1", "1", "　1　", "2", " 2"],
    ["", " ", "\t", "x", ""],
    [f"v{i}" for i in range(3000)],
    [" 1", *(f"v{i}" for i in range(2000)), "1"],
], ids=["twins", "empty", "distinct", "twins-far-apart"])
def test_coded_examples(cells):
    assert_coded_like_the_reference(cells, True)
    assert_coded_like_the_reference(cells, False)


def test_whitespace_twins_share_a_code():
    codes, values = _coded([" 1", "1 ", "\t1", "　1", "2", "1"], strip=True)
    assert codes == bytes((0, 0, 0, 0, 1, 0))
    assert values == ("1", "2")


# One-character cells: ASCII, whitespace characters that str.strip removes
# (U+3000, U+0085 and U+2028 among them), and characters outside Latin-1,
# one of them outside the Basic Multilingual Plane.
ONE_CHAR = ["0", "1", "2", "a", "z", " ", "\t", "\x0c", "\x85", "\u2028", "\u3000",
            "\xe9", "\u0436", "\u4e2d", "\U0001f600"]


@st.composite
def one_char_columns(draw):
    """A string of one-character cells: one value repeated, a few values
    from ``ONE_CHAR``, or more than 256 distinct characters, each at least
    once, which the dict coder codes."""
    shape = draw(st.sampled_from(["one", "few", "many"]))
    rng = random.Random(draw(st.integers(0, 2**16)))
    if shape == "one":
        return draw(st.sampled_from(ONE_CHAR)) * draw(st.integers(1, 50))
    if shape == "few":
        pool = draw(st.lists(st.sampled_from(ONE_CHAR), min_size=1, max_size=6, unique=True))
        return "".join(rng.choice(pool) for _ in range(draw(st.integers(0, 400))))
    # U+2000, U+2003, U+2006 and U+2009 are spaces that str.strip removes,
    # so with U+3000 and " " whitespace twins merge here too.
    k = draw(st.integers(257, 600))
    pool = [chr(0x2000 + 3 * i) for i in range(k)] + ["\u3000", " "]
    cells = pool + [rng.choice(pool) for _ in range(draw(st.integers(0, 300)))]
    rng.shuffle(cells)
    return "".join(cells)


@settings(max_examples=200, deadline=None)
@given(one_char_columns(), st.booleans())
@example("0", False).via("one value")
@example(" \u3000\t1 2", True).via("whitespace merges onto one code")
@example("".join(map(chr, range(0x100, 0x201))), True).via("257 values: the dict coder")
def test_one_char_string_codes_like_the_reference(cells, strip):
    """A string of one-character cells codes as the reference codes its
    characters, raw and stripped, and as the dict coder codes the list of
    them, in the same stored form."""
    assert_coded_like_the_reference(cells, strip)
    codes, values = _coded(cells, strip)
    listed = _coded(list(cells), strip)
    assert (type(codes), codes, values) == (type(listed[0]), *listed)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 255), max_size=2000))
@example([]).via("no granule")
@example([7]).via("one granule")
def test_bytes_column_packs_like_a_list(codes):
    """A ``bytes`` column packs to the int that the list of its codes packs
    to, and ``_fields`` reads the codes back."""
    packed = _pack(bytes(codes))
    assert packed == _pack(codes) == _pack(array("H", codes))
    assert _fields(packed, len(codes)).tolist() == codes


# The cells of a one-character table.  The loader strips each cell, so the
# whitespace cells " " and U+3000 both stand for "" and share one code.
ROW_CELLS = ["0", "1", "2", " ", "\u3000", "\u0436"]


@st.composite
def one_char_tables(draw):
    """The text of a table of one-character cells with its ``id`` first, in
    the middle, last or absent, LF or CRLF line ends, blank lines, repeated
    rows and maybe a decision ``d``, and the ids, attributes and stripped row
    tuples it stands for.  With ``wide`` one cell is two characters, which
    sends the whole table down the dict coder."""
    m = draw(st.integers(1, 5))
    layout = draw(st.sampled_from(["first", "middle", "last", "none"]))
    named = draw(st.booleans())
    names = [f"a{j + 1}" for j in range(m)] + (["d"] if named else [])
    cells = st.sampled_from(ROW_CELLS if len(names) > 1 else ROW_CELLS[:3] + ROW_CELLS[5:])
    pool = draw(st.lists(st.lists(cells, min_size=len(names), max_size=len(names)),
                         min_size=1, max_size=12))
    body = [list(draw(st.sampled_from(pool))) for _ in range(draw(st.integers(1, 60)))]
    wide = draw(st.booleans())
    if wide:
        body[draw(st.integers(0, len(body) - 1))][draw(st.integers(0, len(names) - 1))] = "12"
    at = {"first": 0, "middle": len(names) // 2, "last": len(names), "none": None}[layout]
    ids = tuple(f"o{i}" for i in range(len(body))) if at is not None else tuple(
        map(str, range(len(body))))
    lines = []
    for i, row in enumerate([names, *body]):
        if at is not None:
            row = row[:at] + ["id" if i == 0 else f"o{i - 1}"] + row[at:]
        lines.append(",".join(row))
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t"])))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    rows = [tuple(cell.strip() for cell in row) for row in body]
    return eol.join(lines) + eol, ids, tuple(names), rows, "d" if named else None, wide


@settings(max_examples=150, deadline=None)
@given(one_char_tables())
def test_one_char_table_loads_like_the_dict_coder(drawn):
    """A loaded table of one-character cells, whose columns ``str.translate``
    codes, equals the table built from the same row tuples, which the dict
    coder codes: in its rows, ranking, elimination and exhaustive reducts.
    One two-character cell sends the whole table down the dict coder."""
    text, ids, attrs, rows, decision, wide = drawn
    with mock.patch.object(dataset, "_coded", wraps=dataset._coded) as coded:
        loaded = load_csv(text.encode(), decision=decision)
    assert {type(call.args[0]) for call in coded.call_args_list} == {list if wide else str}
    built = InformationSystem(ids, attrs, rows, decision)
    assert loaded == built
    assert eliminate(loaded) == eliminate(built)
    assert rank_attributes(loaded) == rank_attributes(built)
    assert exhaustive_reducts(loaded) == exhaustive_reducts(built)


@pytest.mark.parametrize("wide", [False, True], ids=["one-char", "wide"])
def test_a_folded_table_keeps_compact_columns(wide):
    """Under a named decision a table of repeated rows folds its stored
    rows; the folded columns are ``bytes`` at 256 values or fewer and an
    ``array`` above, and the table answers as the dict coder's table does.
    The one-character table is coded by ``str.translate``; the wide one has
    a column of 300 values, which takes the dict coder."""
    rng = random.Random("fold")
    body = [[rng.choice("01"), rng.choice("012"), rng.choice("ab"), rng.choice("xyz")]
            for _ in range(600)]
    if wide:
        for i, row in enumerate(body):
            row[:2] = [f"w{i // 2}", str(i // 2 % 3)]
    text = "id,p,q,r,d\n" + "".join(f"o{i},{','.join(row)}\n" for i, row in enumerate(body))
    loaded = load_csv(text, decision="d")
    built = InformationSystem(tuple(f"o{i}" for i in range(600)), ("p", "q", "r", "d"),
                              [tuple(row) for row in body], "d")
    view = loaded._granules
    assert len(view.labels) < len(loaded.rows.weights)  # folded
    assert {name: type(codes) for name, (codes, _) in view.columns.items()} == {
        "p": array if wide else bytes, "q": bytes, "r": bytes}
    assert loaded == built
    assert eliminate(loaded) == eliminate(built)
    assert rank_attributes(loaded) == rank_attributes(built)
    assert exhaustive_reducts(loaded) == exhaustive_reducts(built)


@st.composite
def key_lists(draw):
    """Keys that repeat or not: a distinct run and a repeated run, in
    either order."""
    seed = draw(st.integers(0, 2**16))
    rng = random.Random(seed)
    distinct = draw(st.integers(0, 2000))
    repeated = draw(st.integers(0, 2000))
    pool = draw(st.integers(1, 50))
    runs = [[("d", i) for i in range(distinct)],
            [("r", rng.randrange(pool)) for _ in range(repeated)]]
    if draw(st.booleans()):
        runs.reverse()
    return runs[0] + runs[1]


@settings(max_examples=100, deadline=None)
@given(key_lists())
def test_factorized_index_and_weights_match_a_plain_dict(keys):
    """Each object's stored row and each row's object count; a table with
    no repeated key keeps its index as a range, and one with a repeat
    builds it from the second pass only when it is first read."""
    seen: list[list[Hashable]] = []
    read: list[Hashable] = []

    def second_pass():
        for key in keys:
            read.append(key)
            yield key

    rows = _factorized(iter(keys), second_pass(), lambda distinct: seen.append(distinct) or [
        [key[0] for key in distinct], [key[1] for key in distinct]])
    want_index, want_distinct = numbered_reference(keys)
    assert seen == [want_distinct]
    assert read == []
    assert list(rows.index) == want_index
    assert read == (keys if len(want_distinct) < len(keys) else [])
    assert rows.weights == [want_index.count(r) for r in range(len(want_distinct))]
    assert isinstance(rows.index, range) == (len(want_distinct) == len(keys))
    assert rows.n == len(keys)


def test_numbering_hands_out_the_next_number():
    """A new key gets the next number and a repeated key its own, both
    where ``_coded`` codes cells and where ``_factorized`` numbers rows."""
    assert _coded(list("abacb")) == (bytes((0, 1, 0, 2, 1)), ("a", "b", "c"))
    assert _coded("abacb") == (bytes((0, 1, 0, 2, 1)), ("a", "b", "c"))
    assert _coded([" a", "b", "a ", "b"], strip=True) == (bytes((0, 1, 0, 1)), ("a", "b"))
    rows = _factorized(iter("abacb"), iter("abacb"), lambda distinct: [distinct])
    assert list(rows.index) == [0, 1, 0, 2, 1] and rows.weights == [2, 2, 1]
    assert rows.codes == (bytes((0, 1, 2)),) and rows.values == (("a", "b", "c"),)


def _lines(n: int, repeat: bool) -> list[str]:
    return [f"o{i},{i % 3 if repeat else i},{i % 5}" for i in range(n)]


@pytest.mark.parametrize("repeat", [True, False], ids=["repeated", "distinct"])
@pytest.mark.parametrize("at", [5, 1031, 2051])
def test_loader_errors_keep_their_line(repeat, at):
    """A ragged line, a middle id's line too short for its cut, and an
    id-only table are reported as before, wherever the bad line sits."""
    n = 3072
    body = _lines(n, repeat)
    ragged = body[:at] + ["o,1"] + body[at:]
    with pytest.raises(MalformedTable, match="^malformed table at row "
                       f"{at + 2}: expected 3 cells, got 2$"):
        load_csv("id,p,q\n" + "\n".join(ragged) + "\n")
    middle = [",".join((p, o, q)) for o, p, q in map(lambda line: line.split(","), body)]
    short = middle[:at] + ["1"] + middle[at:]
    with pytest.raises(MalformedTable, match="^malformed table at row "
                       f"{at + 2}: expected 3 cells, got 1$"):
        load_csv("p,id,q\n" + "\n".join(short) + "\n")
    # A ragged line before a short one is reported first.
    both = middle[:at] + ["1,o,2,3"] + middle[at:at + 9] + ["1"] + middle[at + 9:]
    with pytest.raises(MalformedTable, match="^malformed table at row "
                       f"{at + 2}: expected 3 cells, got 4$"):
        load_csv("p,id,q\n" + "\n".join(both) + "\n")
    ids = [line.partition(",")[0] for line in body]
    with pytest.raises(EmptyTable):
        load_csv("id\n" + "\n".join(ids) + "\n")
    with pytest.raises(MalformedTable, match="^malformed table at row "
                       f"{at + 2}: expected 1 cells, got 2$"):
        load_csv("id\n" + "\n".join(ids[:at] + ["o,x"] + ids[at:]) + "\n")
