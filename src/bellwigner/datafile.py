"""Trial data files: CSV with header a,b,bp (triples) or a,ap,b,bp (quads).

Cells are +1, 1 or -1. The reader parses the common spelling of such files
from their bytes, a chunk at a time, with the standard library only, and
hands any other spelling to the csv module, whose verdicts and line numbers
are the reference. One parser feeds two sinks: `read_outcome_csv` keeps
every cell as an int8 column, while `read_pattern_counts` hands each parsed
chunk to the bit-plane fold that `PatternCounts` counts with and keeps no
cells, so its memory is bounded by the chunk at any file size. Only
`read_outcome_csv` loads numpy: the row writer takes bool or int8 numpy
columns and 0/1 bytes alike, through one byte table.
"""

from __future__ import annotations

import csv
import io
import re
from array import array

from .core import DataSetQuad, DataSetTriple, EmptyDataError
from .data_inequality import PatternCounts, _PatternFold

_TRIPLE_HEADER = ("a", "b", "bp")
_DATA_SETS = {_TRIPLE_HEADER: DataSetTriple, ("a", "ap", "b", "bp"): DataSetQuad}


class DataParseError(ValueError):
    """A data file cell or header failed to parse; carries the line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class RaggedRowError(DataParseError):
    """A data file row has the wrong number of cells."""


def _parse_cell(text: str, line: int) -> int:
    cell = text.strip()
    if cell in ("+1", "1"):
        return 1
    if cell == "-1":
        return -1
    raise DataParseError(line, f"invalid outcome cell {text!r} (expected +1, 1 or -1)")


def _parse_header(row: list[str]) -> tuple[str, ...]:
    header = tuple(c.strip().lower() for c in row)
    if header not in _DATA_SETS:
        raise DataParseError(
            1, f"unrecognized header {list(header)!r}, expected a,b,bp or a,ap,b,bp"
        )
    return header


# The csv loop hands its cells to the sink in blocks of about this many.
_CSV_BLOCK_CELLS = 1 << 15


def _extend_from_csv(rows, width: int, cells, first_line: int) -> None:
    """The reference parser: csv rows from `first_line` on, handed to `cells`.

    `cells` is a sink: anything with array's `frombytes` for int8 cells,
    row after row.
    """
    block = array("b")
    for line, row in enumerate(rows, start=first_line):
        if len(row) != width:
            if not row:  # blank line, e.g. a trailing one
                continue
            raise RaggedRowError(line, f"expected {width} cells, got {len(row)}")
        block.extend([_parse_cell(cell, line) for cell in row])
        if len(block) >= _CSV_BLOCK_CELLS:
            cells.frombytes(block)
            del block[:]
    cells.frombytes(block)


# The fast path reads the body in chunks of about this many bytes, so a
# sink that keeps no cells holds only the chunk, at any size of file.
_CHUNK_BYTES = 1 << 15
# A header line the fast path takes: optional BOM, printable ASCII without a
# quote, then \n or \r\n. Anything else goes to the csv module whole.
_PLAIN_HEADER = re.compile(rb"(\xef\xbb\xbf)?([\t\x20\x21\x23-\x7e]*)\r?\n")
_FAST_ALPHABET = b"+-1, \t\r\n"


# The chunk's bytes as the general grammar sees them: 1, comma and \n keep
# their values, + becomes 0x80, - 0xC0 and a blank 0x00. Among those
# values bit 7 is set only in signs, bit 6 only in -, bit 1 only in \n and
# bit 0 only in 1, so `c >> k & lsb` is the flag plane of one class.
_CLASSES = bytes.maketrans(b"+- \t", b"\x80\xc0\x00\x00")
# int8 cells (+1 is 0x01, -1 is 0xFF) of a canonical row's sign bytes and of marked cells
_SIGN_CELLS = bytes.maketrans(b"+-", b"\x01\xff")
_MARK_CELLS = bytes.maketrans(b"10", b"\x01\xff")
_ZERO_AS_ONE = bytes.maketrans(b"0", b"1")


def _fast_cells(chunk: bytes, width: int) -> bytes | None:
    """int8 cells of whole lines in the fast grammar, as bytes, or None for anything else.

    Rows as `simulate` writes them, `+1,-1,+1\\n`, are checked three bytes
    at a time with strided slices: a sign, a 1, a separator. Every other
    chunk is checked against the grammar, on its bytes: only `+-1, \\t\\r\\n`,
    \\r only before \\n, and every + or - directly before a 1. The
    separators are every comma and every \\n that does not directly follow
    another \\n (one that does closes an empty line, which csv skips). The
    1s and separators alternate, and each line's separators are `width - 1`
    commas and its \\n. A cell is -1 where the byte before its 1 is -, and
    +1 otherwise. So blanks may stand around a cell, but `1 1` (no
    separator), `+ 1` (a sign not before its 1) and a line of only blanks (a
    separator right after another) fall outside. On lines in this grammar
    the csv module and `_parse_cell` give exactly these values and line
    count.

    The grammar is checked on flag planes: Python ints with one bit per
    byte of the chunk, bit 8i for byte i, so that `<< 8` moves each byte's
    flag onto the byte after it.
    """
    rows, rest = divmod(len(chunk), 3 * width)
    if (
        not rest
        and chunk[1::3] == b"1" * (rows * width)
        and chunk[2::3] == (b"," * (width - 1) + b"\n") * rows
    ):
        signs = chunk[0::3]
        if not signs.translate(None, b"+-"):
            return signs.translate(_SIGN_CELLS)
    if chunk.translate(None, _FAST_ALPHABET):
        return None
    if b"\r" in chunk:
        if chunk.count(b"\r") != chunk.count(b"\r\n"):
            return None
        chunk = chunk.replace(b"\r", b"")  # a CRLF ends a csv row like LF does
    c = int.from_bytes(chunk.translate(_CLASSES), "little")
    lsb = int.from_bytes(b"\x01" * len(chunk), "little")
    after_sign = (c >> 7 & lsb) << 8
    if after_sign & c != after_sign:
        return None  # "+ 1" is one bad cell, not +1
    # Each 1 after a - becomes 0, and each \n after a \n becomes 0x00 (the
    # chunk starts after the \n that ends the line before it): such a \n
    # closes an empty line, so is no separator. Nothing borrows, since no
    # byte loses more than its own value.
    nl = c >> 1 & lsb
    marks = c - ((c >> 6 & lsb) << 8) - (nl & (nl << 8 | 1)) * ord("\n")
    # the cells and separators, which in order spell one line, "c,c,c\n" for width 3, over and over
    marks = marks.to_bytes(len(chunk), "little").translate(None, b"\x00\x80\xc0")
    line = b"1," * (width - 1) + b"1\n"
    if marks.translate(_ZERO_AS_ONE) != line * (len(marks) // len(line)):
        return None
    return marks[0::2].translate(_MARK_CELLS)


def _read_body(fh, width: int, cells) -> None:
    """Parse the rest of `fh` (binary, positioned after the header) into sink `cells`.

    The body is read about 32 KiB at a time, each chunk read on to the end
    of its line. Chunks in the fast grammar are parsed by `_fast_cells`. The first
    chunk that is not hands everything from its first line on to the csv
    module, with the line count carried over, so every rejection and every
    unusual spelling is handled by the reference parser. That count is
    taken only then, over the bytes before the chunk. The one thing that
    can differ is which of two errors is reported when bytes that are not
    UTF-8 follow a bad cell closely: the text decoder raises when it decodes
    its 8 KiB block, and those blocks start where the csv module starts
    reading.
    """
    body = fh.tell()
    limit = csv.field_size_limit()
    while chunk := fh.read(_CHUNK_BYTES):
        # ends at a \n, at the end of the file, or past the limit
        chunk += fh.readline(limit)
        # a chunk no longer than the csv field limit keeps that limit out of play
        values = None
        if len(chunk) <= limit:
            values = _fast_cells(chunk if chunk.endswith(b"\n") else chunk + b"\n", width)
        if values is None:
            end = fh.tell() - len(chunk)
            fh.seek(body)
            line = 2 + sum(
                fh.read(min(_CHUNK_BYTES, end - at)).count(b"\n")
                for at in range(body, end, _CHUNK_BYTES)
            )
            text = io.TextIOWrapper(fh, encoding="utf-8", newline="")
            try:
                _extend_from_csv(csv.reader(text), width, cells, line)
            finally:
                text.detach()  # the caller's file stays open
            return
        cells.frombytes(values)


def _read(path: str, new_sink):
    """Parse `path` into the sink `new_sink(width)` makes; return (header, sink)."""
    with open(path, "rb") as fh:
        plain = _PLAIN_HEADER.fullmatch(fh.readline())
        if plain:
            header = _parse_header(next(csv.reader([plain[2].decode("ascii")])))
            sink = new_sink(len(header))
            _read_body(fh, len(header), sink)
        else:
            fh.seek(0)
            text = io.TextIOWrapper(fh, encoding="utf-8-sig", newline="")
            try:
                rows = csv.reader(text)
                first = next(rows, None)
                if first is None:
                    raise DataParseError(1, "empty file, expected a header row")
                header = _parse_header(first)
                sink = new_sink(len(header))
                _extend_from_csv(rows, len(header), sink, 2)
            finally:
                text.detach()
    return header, sink


def read_outcome_csv(path: str) -> DataSetTriple | DataSetQuad:
    """Read a triple or quad data file; the header decides which."""
    # parsed cells go straight into one flat int8 buffer, row after row
    header, cells = _read(path, lambda width: array("b"))
    if not cells:
        raise EmptyDataError(f"{path}: no data rows")
    import numpy as np

    rows = np.frombuffer(cells, dtype=np.int8).reshape(-1, len(header))
    return _DATA_SETS[header].from_trials(rows)


def read_pattern_counts(path: str) -> PatternCounts:
    """The pattern counts of a triple or quad data file, without keeping its cells.

    Accepts and rejects exactly what `read_outcome_csv` does, with the same
    errors and line numbers.
    """
    _, fold = _read(path, _PatternFold)
    if not any(fold.counts):
        raise EmptyDataError(f"{path}: no data rows")
    return PatternCounts(fold.counts)


_WRITE_ROWS = 1 << 16
# A column's bytes as the sign of its cells: 0x01 (+1, True) is "+", and
# 0x00 (False) and 0xFF (-1) are "-".
_SIGNS = b"-+" + b"-" * 254


class TriplesWriter:
    """Writes a triples file to the binary file ``fh``: the header, then rows slice by slice."""

    def __init__(self, fh):
        fh.write(",".join(_TRIPLE_HEADER).encode() + b"\n")
        self._fh = fh

    def write(self, columns) -> None:
        """Write one row per trial of the aligned (a, b, bp) columns.

        A column is any buffer of one byte per trial: bool (True = +1), int8
        +-1, or bytes of 1 (+1) and 0 (-1).
        """
        rows = bytearray(b"+1,+1,+1\n" * len(columns[0]))
        for offset, column in zip((0, 3, 6), columns):
            rows[offset::9] = bytes(column).translate(_SIGNS)
        self._fh.write(rows)


def write_triples_csv(path: str, data: DataSetTriple) -> PatternCounts:
    """Write `data` as a triples file, cells +1/-1, one table row per trial.

    Returns the data set's pattern counts (`PatternCounts.of`), which are
    those of the rows written.
    """
    with open(path, "wb") as fh:
        rows = TriplesWriter(fh)
        for lo in range(0, data.n, _WRITE_ROWS):
            rows.write([c[lo : lo + _WRITE_ROWS] for c in (data.a, data.b, data.bp)])
    return PatternCounts.of(data)
