"""The loader's numbering: ``_factorized`` counts keys with a ``Counter``,
which gives the distinct keys in first-occurrence order and each row's
object count, and numbers a second pass over the same keys densely with a
``defaultdict`` of a counter when each object's stored row is first read;
``_coded`` codes a column, merging cells that differ only in whitespace.
``_factorized`` is checked against a plain-dict reference, and ``_coded``
against the ``dict.fromkeys`` coding it replaced, kept here verbatim; the
loader's errors keep their precedence, message and line, on lines that
repeat and on lines that do not."""

from __future__ import annotations

import random
from collections.abc import Hashable, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reduct_forge import EmptyTable, MalformedTable, load_csv
from reduct_forge.dataset import _coded, _factorized


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


@settings(max_examples=150, deadline=None)
@given(cell_columns(), st.booleans())
def test_coded_matches_the_fromkeys_coding(cells, strip):
    """Codes and values equal those of the replaced coding, for raw and for
    stripped cells: whitespace twins share one code under ``strip`` and not
    without it."""
    codes, values = _coded(cells, strip)
    want = coded_reference(cells, strip)
    assert (codes, values) == want
    assert type(codes) is tuple and type(values) is tuple


@pytest.mark.parametrize("cells", [
    [" 1", "1 ", "\t1", "1", "　1　", "2", " 2"],
    ["", " ", "\t", "x", ""],
    [f"v{i}" for i in range(3000)],
    [" 1", *(f"v{i}" for i in range(2000)), "1"],
], ids=["twins", "empty", "distinct", "twins-far-apart"])
def test_coded_examples(cells):
    assert _coded(cells, True) == coded_reference(cells, True)
    assert _coded(cells, False) == coded_reference(cells, False)


def test_whitespace_twins_share_a_code():
    codes, values = _coded([" 1", "1 ", "\t1", "　1", "2", "1"], strip=True)
    assert codes == (0, 0, 0, 0, 1, 0)
    assert values == ("1", "2")


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
    assert _coded(list("abacb")) == ((0, 1, 0, 2, 1), ("a", "b", "c"))
    assert _coded([" a", "b", "a ", "b"], strip=True) == ((0, 1, 0, 1), ("a", "b"))
    rows = _factorized(iter("abacb"), iter("abacb"), lambda distinct: [distinct])
    assert list(rows.index) == [0, 1, 0, 2, 1] and rows.weights == [2, 2, 1]
    assert rows.codes == ((0, 1, 2),) and rows.values == (("a", "b", "c"),)


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
