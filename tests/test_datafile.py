"""Data files: the chunked reader and the table writer against csv-module references.

`reference_read` is the reader as it was before the fast path: the csv
module, one cell at a time. For every file, `read_outcome_csv` must return
the same columns or raise the same exception class at the same line.
`reference_write` is the csv writer loop that `write_triples_csv` replaced.
`read_pattern_counts` must agree with the counts of `read_outcome_csv`'s
columns, and hold no cells while it reads.
"""

import csv
import gc
import io
import itertools
import json
import tracemalloc
from array import array
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from bellwigner import DataSetQuad, DataSetTriple, EmptyDataError, PatternCounts
from bellwigner import cli, datafile
from bellwigner.datafile import (
    DataParseError,
    RaggedRowError,
    read_outcome_csv,
    read_pattern_counts,
    write_triples_csv,
)
from conftest import bincount_reference, trial_rows

HEADERS = {("a", "b", "bp"): DataSetTriple, ("a", "ap", "b", "bp"): DataSetQuad}


def reference_parse_cell(text, line):
    cell = text.strip()
    if cell in ("+1", "1"):
        return 1
    if cell == "-1":
        return -1
    raise DataParseError(line, f"invalid outcome cell {text!r} (expected +1, 1 or -1)")


def reference_read(path):
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = tuple(c.strip().lower() for c in next(reader))
        except StopIteration:
            raise DataParseError(1, "empty file, expected a header row") from None
        if header not in HEADERS:
            raise DataParseError(1, f"unrecognized header {list(header)!r}")
        width = len(header)
        cells = array("b")
        for line, row in enumerate(reader, start=2):
            if len(row) != width:
                if not row:
                    continue
                raise RaggedRowError(line, f"expected {width} cells, got {len(row)}")
            cells.extend([reference_parse_cell(cell, line) for cell in row])
    if not cells:
        raise EmptyDataError(f"{path}: no data rows")
    rows = np.frombuffer(cells, dtype=np.int8).reshape(-1, width)
    return HEADERS[header].from_trials(rows)


def outcome(read, path):
    try:
        data = read(str(path))
    except (ValueError, csv.Error) as exc:
        return type(exc), getattr(exc, "line", None)
    return type(data), tuple(getattr(data, name).tolist() for name in data._fields)


def assert_same_outcome(path, chunk_bytes=None):
    if chunk_bytes is None:
        new = outcome(read_outcome_csv, path)
    else:
        with mock.patch.object(datafile, "_CHUNK_BYTES", chunk_bytes):
            new = outcome(read_outcome_csv, path)
    assert new == outcome(reference_read, path)
    return new


ALPHABET = '+-10, \t\r\n"x\xa0'
VALID = ("1", "+1", "-1", " 1", "+1 ", " -1 ", "\t+1", "-1\t")
ODD = ("+ 1", "-\t1", "11", "1 1", "", " ", "+", "+-1", "1+", '"1"', "0", "\xa01", "1\r")
LINE_ENDS = ("\n", "\n", "\r\n", "\r")


@st.composite
def row_texts(draw, width):
    """A line's text: mostly `width` well-formed cells, else odd, ragged or blank."""
    n = draw(st.sampled_from((width, width, width, 0, 1, width - 1, width + 1)))
    cells = draw(st.lists(st.sampled_from(VALID), min_size=n, max_size=n))
    for _ in range(draw(st.sampled_from((0, 0, 1, 2))) if n else 0):
        odd = st.one_of(st.sampled_from(ODD), st.text(ALPHABET, max_size=3))
        cells[draw(st.integers(0, n - 1))] = draw(odd)
    return ",".join(cells) if n else draw(st.sampled_from(("", " ", "\t")))


@st.composite
def data_files(draw):
    header = draw(st.sampled_from(("a,b,bp", "a,ap,b,bp", "A, B ,bp", 'a,"b",bp')))
    width = len(header.split(","))
    lines = draw(st.lists(st.tuples(row_texts(width), st.sampled_from(LINE_ENDS)), max_size=12))
    body = "".join(text + end for text, end in lines)
    if draw(st.integers(0, 7)) == 0:
        body = draw(st.text(ALPHABET, max_size=40))
    elif lines and draw(st.booleans()):
        body = body.rstrip("\r\n")  # last line without its line end
    bom = "\ufeff" if draw(st.booleans()) else ""
    return (bom + header + draw(st.sampled_from(LINE_ENDS)) + body).encode()


@pytest.fixture(scope="module")
def data_path(tmp_path_factory):
    return tmp_path_factory.mktemp("reader") / "data.csv"


@settings(max_examples=400, deadline=None)
@given(content=data_files(), chunk_bytes=st.integers(1, 24))
def test_reader_matches_csv_reference(data_path, content, chunk_bytes):
    data_path.write_bytes(content)
    assert_same_outcome(data_path, chunk_bytes)
    assert_same_outcome(data_path)


def counts_outcome(read, path):
    try:
        return read(str(path))
    except (ValueError, csv.Error) as exc:
        return type(exc), getattr(exc, "line", None)


@settings(max_examples=400, deadline=None)
@given(content=data_files(), chunk_bytes=st.integers(1, 24), block_cells=st.integers(1, 9))
def test_pattern_counts_match_counts_of_columns(data_path, content, chunk_bytes, block_cells):
    data_path.write_bytes(content)
    expected = counts_outcome(lambda p: PatternCounts.of(read_outcome_csv(p)), data_path)
    with mock.patch.multiple(datafile, _CHUNK_BYTES=chunk_bytes, _CSV_BLOCK_CELLS=block_cells):
        assert counts_outcome(read_pattern_counts, data_path) == expected


# the spellings of +1 and -1 a file may use; canonical files use the first
CELL_TEXTS = {1: ("+1", "1", " 1", "+1 ", "\t1"), -1: ("-1", " -1", "-1\t")}


@pytest.mark.parametrize("width", [3, 4])
@pytest.mark.parametrize("spelling", ["canonical", "mixed", "csv-fallback"])
def test_counts_of_columns_data_set_and_file_agree(tmp_path, width, spelling):
    # from_columns, of and read_pattern_counts all fold with the same bit
    # planes; a numpy bincount is the reference. 20,000 rows span
    # several chunks of the fast path and several blocks of the csv loop.
    rng = np.random.default_rng([width, len(spelling)])
    columns = rng.integers(0, 2, size=(width, 20_000), dtype=np.int8) * 2 - 1
    header = ["a", "b", "bp"] if width == 3 else ["a", "ap", "b", "bp"]
    if spelling == "csv-fallback":
        header[1] = f'"{header[1]}"'  # a quoted header hands the whole file to csv
    picks = rng.integers(0, 6, size=columns.shape) if spelling != "canonical" else 0 * columns
    lines = [",".join(header)] + [
        ",".join(CELL_TEXTS[v][p % len(CELL_TEXTS[v])] for v, p in zip(row, pick))
        for row, pick in zip(columns.T.tolist(), picks.T.tolist())
    ]
    path = tmp_path / "data.csv"
    path.write_text("\n".join(lines) + "\n")
    expected = PatternCounts(bincount_reference(columns))
    data = HEADERS[tuple(h.strip('"') for h in header)](*columns)
    assert PatternCounts.from_columns(columns) == expected
    assert PatternCounts.of(data) == expected
    assert read_pattern_counts(str(path)) == expected


_MIXED_ROWS = np.array(
    [f"{a},{b},{bp}\n".encode() for a in ("-1", "+1") for b in ("-1", " 1") for bp in ("-1", "1 ")],
    dtype=object,
)


@pytest.mark.parametrize(
    "rows, first_row",
    [(200_000, b""), (400_000, b""), (150_000, b'"+1",1,1\n')],
    ids=["fast-2e5", "fast-4e5", "csv-loop-1.5e5"],
)
def test_check_data_memory_does_not_grow_with_rows(tmp_path, capsys, rows, first_row):
    # the cells alone would take 600 KB, 1.2 MB and 450 KB; folding each
    # chunk or csv block into counts holds only that chunk's temporaries
    # (the fast grammar check makes about 10 the size of a 32 KiB chunk)
    rng = np.random.default_rng(rows)
    path = tmp_path / "d.csv"
    path.write_bytes(b"a,b,bp\n" + first_row + b"".join(_MIXED_ROWS[rng.integers(0, 8, rows)].tolist()))
    cli.main(["check-data", str(path)])  # warm-up
    capsys.readouterr()
    tracemalloc.start()
    try:
        assert cli.main(["check-data", str(path)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert json.loads(capsys.readouterr().out)["n"] == rows + first_row.count(b"\n")
    assert peak < 768 * 2**10, peak


BODY = "+1,-1,+1\n" * 4 + " 1,\t-1 ,+1\r\n" + "-1,-1,-1\n" * 4


@pytest.mark.parametrize(
    "bad, error",
    [("+1,0,+1\n", DataParseError), ("+1,-1\n", RaggedRowError)],
    ids=["bad-cell", "ragged-row"],
)
def test_error_in_third_chunk_reports_its_line(tmp_path, bad, error):
    # 9-byte rows and 10-byte reads, each read on to its line end: chunk k
    # holds data lines 2k and 2k+1
    path = tmp_path / "d.csv"
    rows = ["+1,-1,+1\n"] * 8
    rows[5] = bad  # line 7, the second line of the third chunk
    path.write_text("a,b,bp\n" + "".join(rows))
    handed_over = []
    reference = datafile._extend_from_csv

    def spy(rows, width, cells, first_line):
        handed_over.append((first_line, len(cells)))
        return reference(rows, width, cells, first_line)

    with mock.patch.object(datafile, "_CHUNK_BYTES", 10), mock.patch.object(datafile, "_extend_from_csv", spy):
        with pytest.raises(error) as info:
            read_outcome_csv(str(path))
    assert info.value.line == 7
    assert handed_over == [(6, 12)]  # two fast chunks, then the csv loop from line 6
    assert assert_same_outcome(path, 10) == (error, 7)


def test_hand_over_leaves_the_callers_file_open(tmp_path):
    # the text wrapper lent to the csv loop must not close the file when collected
    path = tmp_path / "d.csv"
    path.write_bytes(b'a,b,bp\n+1,-1,+1\n"+1",-1,+1\n')
    cells = array("b")
    with open(path, "rb") as fh:
        fh.readline()
        with mock.patch.object(datafile, "_CHUNK_BYTES", 9):
            datafile._read_body(fh, 3, cells)
        gc.collect()
        assert not fh.closed
    assert cells.tolist() == [1, -1, 1] * 2


# every cell spelling of the benchmark's data files (perfbench/inputs.py), and its value
SPELLINGS = {"+1": 1, "1": 1, " +1": 1, "1 ": 1, " 1 ": 1, "-1": -1, " -1": -1, "-1 ": -1}
MIXED = list(itertools.product(SPELLINGS, repeat=3))
FAST_FILES = {
    "blanks-crlf": (
        b"\xef\xbb\xbfa,b,bp\r\n" + BODY.encode() + b"\n\r\n-1, 1,1",
        [[1] * 4 + [1] + [-1] * 4 + [-1], [-1] * 4 + [-1] + [-1] * 4 + [1]],
    ),
    "mixed": (
        b"a,b,bp\n" + "".join(",".join(row) + "\n" for row in MIXED).encode(),
        [[SPELLINGS[row[i]] for row in MIXED] for i in (0, 1)],
    ),
    # a line longer than a chunk, but with no cell over the csv field limit
    "long-line": (b"a,b,bp\n-1" + b" " * 40_000 + b",1,1\n+1,-1,1\n", [[-1, 1], [1, -1]]),
}


@pytest.mark.parametrize(
    "body, chunk_bytes",
    [("blanks-crlf", size) for size in (1, 7, 9, 10, 1 << 16)]
    + [("mixed", size) for size in (1, 7, 1 << 16)]
    + [("long-line", 1 << 15)],
    ids=["1", "7", "9", "10", "65536", "mixed-1", "mixed-7", "mixed-65536", "long-line-32768"],
)
def test_fast_grammar_never_reaches_csv_loop(tmp_path, body, chunk_bytes):
    content, (a, b) = FAST_FILES[body]
    path = tmp_path / "d.csv"
    path.write_bytes(content)
    with mock.patch.object(datafile, "_CHUNK_BYTES", chunk_bytes), mock.patch.object(
        datafile, "_extend_from_csv", side_effect=AssertionError("csv loop used")
    ):
        data = read_outcome_csv(str(path))
    assert data.n == len(a)
    assert data.a.tolist() == a
    assert data.b.tolist() == b


def reference_cells(chunk, width):
    """The cells the csv module and `reference_parse_cell` read from `chunk`, or None."""
    cells = []
    for line, row in enumerate(csv.reader(io.StringIO(chunk.decode(), newline="")), start=2):
        if not row:
            continue
        if len(row) != width:
            return None
        try:
            cells.extend(reference_parse_cell(cell, line) for cell in row)
        except DataParseError:
            return None
    return cells


FAST_ODD = ("", " ", "\t", "+", "-", "11", "1 1", "+ 1", "-\t1", "+-1", "1+", "1\r", "\r\n", ",")
# rows as `simulate` writes them, and one-cell changes that keep or nearly keep their 3-byte cells
CANONICAL = ("+1", "-1")
CANONICAL_MISSES = ("1", " 1", "+ 1", "--1", "+-", "-+", "11", "1+", "+1 ")


@st.composite
def fast_alphabet_chunks(draw, width):
    """Whole lines over the bytes `+-1, \\t\\r\\n`: mostly `width` well-formed cells.

    Half of the chunks are canonical rows, `+1,-1,+1\\n`, with now and then
    a near miss: a CRLF, a blank line, a short or long row, or one cell
    spelled otherwise.
    """
    if draw(st.integers(0, 7)) == 0:
        return draw(st.text("+-1, \t\r\n", max_size=30)).encode() + b"\n"
    canonical = draw(st.booleans())
    spellings, odd = (CANONICAL, CANONICAL_MISSES) if canonical else (VALID, FAST_ODD)
    sizes = (width,) * (9 if canonical else 3) + (0, width - 1, width + 1)
    line_ends = ("\n",) * (9 if canonical else 2) + ("\r\n",)
    text = ""
    for _ in range(draw(st.integers(1, 6))):
        n = draw(st.sampled_from(sizes))
        cells = draw(st.lists(st.sampled_from(spellings), min_size=n, max_size=n))
        if n and draw(st.integers(0, 4 if canonical else 1)) == 0:
            cells[draw(st.integers(0, n - 1))] = draw(st.sampled_from(odd))
        text += ",".join(cells) if n else draw(st.sampled_from(("", " ", "\t")))
        text += draw(st.sampled_from(line_ends))
    return text.encode()


@settings(max_examples=400, deadline=None)
@given(data=st.data(), width=st.sampled_from((3, 4)))
def test_fast_cells_only_accepts_what_csv_reads_the_same(data, width):
    chunk = data.draw(fast_alphabet_chunks(width))
    cells = datafile._fast_cells(chunk, width)
    if cells is not None:
        assert isinstance(cells, bytes)
        assert array("b", cells).tolist() == reference_cells(chunk, width)


@pytest.mark.parametrize(
    "content",
    [
        b'a,b,bp\n"+1",-1,+1\n' + BODY.encode(),  # quoted cell
        b'"a",b,bp\n' + BODY.encode(),  # quoted header: the whole file goes to csv
        b'"a\n",b,bp\n' + BODY.encode(),  # a quoted header cell spanning two lines
        b"a,b,bp\n" + BODY.encode() + b"+1,-1,+1\r-1,-1,-1\n",  # lone \r ends a row
        b"a,b,bp\n+1,\xc2\xa0-1,+1\n",  # Unicode blank, stripped by the csv path
        b"a,b,bp\n" + BODY.encode() + b"+1,\x00,+1\n",  # NUL
        b"a,b,bp\n" + BODY.encode() + b"+1,\xff,+1\n",  # not UTF-8
        b"a,b,bp\n" + BODY.encode() + b" \n",  # a line of blanks is ragged
        b"a,b,bp\n1" + b" " * 200_000 + b",1,1\n",  # a cell over the csv field limit
        b"a,b,bp",
        b"a,b,bp\n\n\r\n",
        b"",
        b"\xef\xbb\xbf",
    ],
    ids=[
        "quoted-cell", "quoted-header", "two-line-header", "lone-cr", "nbsp", "nul", "bad-utf8",
        "blank-line-of-spaces", "field-limit", "header-only", "blank-lines-only",
        "empty", "bom-only",
    ],
)
def test_unusual_files_match_reference(tmp_path, content):
    path = tmp_path / "d.csv"
    path.write_bytes(content)
    for chunk_bytes in (None, 5):
        assert_same_outcome(path, chunk_bytes)


@pytest.mark.parametrize(
    "lines",
    [
        ",1,1,1\n",  # empty first cell
        "1,1,1\n,1,1,1\n",  # empty first cell after a row
        "1,,1,1\n",  # empty middle cell
        "1,1,\n1\n",  # empty last cell, then a short row
        "1\n1,1\n",  # two short rows that add up to one
        "+1,+-1,1\n",  # sign before a sign
        "1,1,1+\n",  # sign after a cell
        "1,1,11\n",  # two cells run together
        "1, 1 1,1\n",  # blank inside a cell
        "+\t1,1,1\n",  # tab after a sign
        "1,1,1\n\t\r\n",  # line of blanks before CRLF
        "1,1,1\r\r\n",  # \r not before \n: a row, then a blank line
    ],
)
def test_near_miss_rows_match_reference(tmp_path, lines):
    path = tmp_path / "d.csv"
    path.write_text("a,b,bp\n" + "1,1,1\n" * 3 + lines + "1,1,1\n", newline="")
    for chunk_bytes in (None, 6, 7):
        assert_same_outcome(path, chunk_bytes)


def canonical_rows(width):
    """Every sign pattern once, as `simulate` spells rows."""
    return "".join(",".join(row) + "\n" for row in itertools.product(CANONICAL, repeat=width))


def near_miss(width, spelling):
    """One row of canonical cells whose second cell is spelled `spelling`."""
    return ",".join(["+1", spelling] + ["-1"] * (width - 2)) + "\n"


@pytest.mark.parametrize("width", (3, 4))
@pytest.mark.parametrize(
    "miss",
    [
        lambda w: near_miss(w, "-1")[:-1] + "\r\n",
        *(lambda w, c=c: near_miss(w, c) for c in CANONICAL_MISSES),
        lambda w: "\n",
        lambda w: near_miss(w, "-1").rpartition(",")[0] + "\n",
        lambda w: " ".join(near_miss(w, "-1")),
    ],
    ids=["crlf", *CANONICAL_MISSES, "blank-line", "short-row", "spaced-row"],
)
def test_canonical_chunks_and_near_misses_match_reference(tmp_path, width, miss):
    # canonical chunks, then a chunk with one near miss, then canonical ones:
    # the fast path switches between its two checks at the chunk bounds, and
    # a miss as the last line ends the file
    path = tmp_path / "d.csv"
    header = "a,b,bp" if width == 3 else "a,ap,b,bp"
    rows = canonical_rows(width)
    for body in (rows + miss(width) + rows, rows + miss(width)):
        path.write_text(header + "\n" + body, newline="")
        expected = counts_outcome(lambda p: PatternCounts.of(read_outcome_csv(p)), path)
        for chunk_bytes in (4, 9, 1 << 15):
            assert_same_outcome(path, chunk_bytes)
            with mock.patch.object(datafile, "_CHUNK_BYTES", chunk_bytes):
                assert counts_outcome(read_pattern_counts, path) == expected


def reference_write(path, data):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("a", "b", "bp"))
        for row in zip(data.a.tolist(), data.b.tolist(), data.bp.tolist()):
            writer.writerow([{1: "+1", -1: "-1"}[v] for v in row])


@settings(max_examples=50, deadline=None)
@given(rows=st.lists(trial_rows, min_size=1, max_size=40), slice_rows=st.integers(1, 9))
def test_writer_matches_csv_writer(tmp_path_factory, rows, slice_rows):
    out = tmp_path_factory.mktemp("writer")
    data = DataSetTriple.from_trials(rows)
    reference_write(out / "reference.csv", data)
    with mock.patch.object(datafile, "_WRITE_ROWS", slice_rows):
        counts = write_triples_csv(str(out / "table.csv"), data)
    assert (out / "table.csv").read_bytes() == (out / "reference.csv").read_bytes()
    assert counts == PatternCounts.of(data)


def test_written_counts_equal_the_counts_read_back(tmp_path):
    # the writer's counts come from the codes it wrote, slice by slice
    rng = np.random.default_rng(3)
    data = DataSetTriple(*(rng.integers(0, 2, size=(3, 1000), dtype=np.int8) * 2 - 1))
    path = str(tmp_path / "d.csv")
    with mock.patch.object(datafile, "_WRITE_ROWS", 97):
        counts = write_triples_csv(path, data)
    assert counts == read_pattern_counts(path)
    assert counts.n == 1000
