"""Trial data files: CSV with header a,b,bp (triples) or a,ap,b,bp (quads).

Cells are +1, 1 or -1. The reader parses the common spelling of such files
with numpy, a chunk at a time, and hands any other spelling to the csv
module, whose verdicts and line numbers are the reference. One parser feeds
two sinks: `read_outcome_csv` keeps every cell as an int8 column, while
`read_pattern_counts` folds each parsed chunk into sign-pattern counts and
keeps no cells, so its memory is bounded by the chunk at any file size.
"""

from __future__ import annotations

import csv
import io
import re
from array import array

import numpy as np

from .core import DataSetQuad, DataSetTriple, EmptyDataError
from .data_inequality import PatternCounts, _pattern_codes, sign_patterns

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
# sink that keeps no cells holds only the chunk, at any size of file. Kept
# small: the chunk's numpy temporaries count towards a small file's peak RSS.
_CHUNK_BYTES = 1 << 15
# A header line the fast path takes: optional BOM, printable ASCII without a
# quote, then \n or \r\n. Anything else goes to the csv module whole.
_PLAIN_HEADER = re.compile(rb"(\xef\xbb\xbf)?([\t\x20\x21\x23-\x7e]*)\r?\n")
_FAST_ALPHABET = b"+-1, \t\r\n"
_COMMA, _NL, _ONE, _PLUS, _MINUS = b",\n1+-"


def _fast_cells(chunk: bytes, width: int) -> np.ndarray | None:
    """int8 cells of whole lines in the fast grammar, or None for anything else.

    The grammar, on the chunk's bytes: only `+-1, \\t\\r\\n`, \\r only before
    \\n, and every + or - directly before a 1. The separators are every
    comma and every \\n that does not directly follow another \\n (one that
    does closes an empty line, which csv skips). The 1s and separators
    alternate, and each line's separators are `width - 1` commas and its \\n.
    A cell is -1 where the byte before its 1 is -, and +1 otherwise. So
    blanks may stand around a cell, but `1 1` (no separator), `+ 1` (a sign
    not before its 1) and a line of only blanks (a separator right after
    another) fall outside. On lines in this grammar the csv module and
    `_parse_cell` give exactly these values and line count.
    """
    if chunk.translate(None, _FAST_ALPHABET):
        return None
    if b"\r" in chunk:
        if chunk.count(b"\r") != chunk.count(b"\r\n"):
            return None
        chunk = chunk.replace(b"\r", b"")  # a CRLF ends a csv row like LF does
    # the chunk after the \n that ends the line before it, so every byte has one before it
    t = np.frombuffer(b"\n" + chunk, dtype=np.uint8)
    one = t == _ONE
    if (((t[:-1] == _PLUS) | (t[:-1] == _MINUS)) & ~one[1:]).any():
        return None  # "+ 1" is one bad cell, not +1
    # the 1s and separators: a \n right after a \n closes an empty line, so is neither
    nl = t == _NL
    marked = one | (t == _COMMA)
    marked[1:] |= nl[1:] & ~nl[:-1]
    # in order they spell one line, "1,1,1\n" for width 3, over and over
    marks = t.compress(marked).tobytes()
    line = b"1," * (width - 1) + b"1\n"
    if marks != line * (len(marks) // len(line)):
        return None
    minus = t[:-1].compress(one[1:]) == _MINUS
    return 1 - 2 * minus.view(np.int8)


def _read_body(fh, width: int, cells) -> None:
    """Parse the rest of `fh` (binary, positioned after the header) into sink `cells`.

    The body is read about 32 KiB at a time, each chunk read on to the end
    of its line. Chunks in the fast grammar are parsed with numpy. The first
    chunk that is not hands everything from its first line on to the csv
    module, with the line count carried over, so every rejection and every
    unusual spelling is handled by the reference parser. The one thing that
    can differ is which of two errors is reported when bytes that are not
    UTF-8 follow a bad cell closely: the text decoder raises when it decodes
    its 8 KiB block, and those blocks start where the csv module starts
    reading.
    """
    line = 2
    limit = csv.field_size_limit()
    while chunk := fh.read(_CHUNK_BYTES):
        # ends at a \n, at the end of the file, or past the limit
        chunk += fh.readline(limit)
        # a chunk no longer than the csv field limit keeps that limit out of play
        values = None
        if len(chunk) <= limit:
            values = _fast_cells(chunk if chunk.endswith(b"\n") else chunk + b"\n", width)
        if values is None:
            fh.seek(-len(chunk), io.SEEK_CUR)
            text = io.TextIOWrapper(fh, encoding="utf-8", newline="")
            try:
                _extend_from_csv(csv.reader(text), width, cells, line)
            finally:
                text.detach()  # the caller's file stays open
            return
        cells.frombytes(values)
        line += chunk.count(b"\n")


class _PatternFold:
    """A sink that keeps only the pattern counts of the cells it is given."""

    def __init__(self, width: int):
        self.width = width
        self.counts = np.zeros(1 << width, dtype=np.int64)

    def frombytes(self, cells) -> None:
        rows = np.frombuffer(cells, dtype=np.int8).reshape(-1, self.width)
        self.counts += np.bincount(_pattern_codes(rows.T), minlength=self.counts.size)


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
    rows = np.frombuffer(cells, dtype=np.int8).reshape(-1, len(header))
    return _DATA_SETS[header].from_trials(rows)


def read_pattern_counts(path: str) -> PatternCounts:
    """The pattern counts of a triple or quad data file, without keeping its cells.

    Accepts and rejects exactly what `read_outcome_csv` does, with the same
    errors and line numbers.
    """
    _, fold = _read(path, _PatternFold)
    if not fold.counts.any():
        raise EmptyDataError(f"{path}: no data rows")
    return PatternCounts(fold.counts)


_ROW_BYTES = np.array([
    np.frombuffer(f"{a:+d},{b:+d},{bp:+d}\n".encode(), dtype=np.uint8)
    for a, b, bp in sign_patterns(3)
])
_WRITE_ROWS = 1 << 16


class TriplesWriter:
    """Writes a triples file to the binary file ``fh``: the header, then rows slice by slice.

    ``counts`` holds the pattern counts of the rows written so far.
    """

    def __init__(self, fh):
        fh.write(",".join(_TRIPLE_HEADER).encode() + b"\n")
        self._fh = fh
        self._counts = np.zeros(8, dtype=np.int64)

    def write(self, columns) -> None:
        """Write one row per trial of the aligned (a, b, bp) columns, +-1 or bool (True = +1)."""
        code = _pattern_codes(columns)
        self._fh.write(np.take(_ROW_BYTES, code, axis=0))
        self._counts += np.bincount(code, minlength=8)

    @property
    def counts(self) -> PatternCounts:
        return PatternCounts(self._counts)


def write_triples_csv(path: str, data: DataSetTriple) -> PatternCounts:
    """Write `data` as a triples file, cells +1/-1, one table row per trial.

    Returns the pattern counts of the rows written.
    """
    with open(path, "wb") as fh:
        rows = TriplesWriter(fh)
        for lo in range(0, data.n, _WRITE_ROWS):
            rows.write([c[lo : lo + _WRITE_ROWS] for c in (data.a, data.b, data.bp)])
    return rows.counts
