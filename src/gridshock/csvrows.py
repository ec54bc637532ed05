"""The one reader of the package's fixed-column csv tables.

Every such table is read by `read_rows` with a structured dtype whose
field names are its header, and the file format is what one `np.loadtxt`
call accepts. Every refusal names the file and, where it has one, the
line: `read_rows`' own, and the callers' row checks through `Rows.fault`.
The writers refuse an id that csv would have to quote or that the readers
would strip (`check_unquoted`), so every file the package writes reads
back.
`grid.csv` and `regions.csv`, with tagged rows of different widths and
`#` comment lines, are read in `grid`.
"""

from __future__ import annotations

import warnings
from bisect import bisect_right
from collections import defaultdict
from itertools import islice
from pathlib import Path
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .errors import ParseError, ValidationError

# `read_rows` hands this many lines to each `np.loadtxt` call.
_CHUNK_ROWS = 50_000

# Characters that make csv quote a field. The writers write unquoted
# fields, so they refuse an id holding any of them.
_QUOTED_CHARS = ',"\r\n'


class Rows(NamedTuple):
    """The data rows of a csv file up to its first refused line: an array
    per field, a text field as int64 codes into its list of `texts`; the
    refused line's ParseError, or None; per skipped empty line, the number
    of rows before it; and the file's name."""

    columns: dict[str, np.ndarray]
    texts: dict[str, list[str]]
    refusal: ParseError | None
    skipped: list[int]
    file: str

    def line(self, row) -> int:
        """The line of data row `row` (from 0), the header and skipped lines counted."""
        return 2 + int(row) + bisect_right(self.skipped, row)

    def fault(self, row, message: str) -> ParseError:
        """The ParseError of data row `row`, naming its file and line."""
        return ParseError(message, self.line(row), self.file)

    def stripped(self, name: str) -> tuple[list[str], np.ndarray]:
        """Text field `name` with its blanks stripped: the distinct ids, and
        each row's code into them; ids that differ only in blanks are one."""
        ids: dict[str, int] = {}
        codes = [ids.setdefault(text.strip(), len(ids)) for text in self.texts[name]]
        if len(ids) == len(codes):
            return list(ids), self.columns[name]
        return list(ids), np.array(codes, np.int64)[self.columns[name]]


def read_rows(path: Path, dtype: np.dtype, refuse: Callable | None = None) -> Rows:
    """Parse the csv rows of `path` under the header `dtype.names` as rows of `dtype`.

    An empty file, or a header line whose fields (blanks stripped) are not
    `dtype.names`, is a ParseError on line 1. Text fields keep their
    blanks. The first data line that loadtxt refuses, that holds a `"`, or
    whose row `refuse` marks (given a chunk's rows) is `Rows.refusal`, and
    no later line is read. Bytes that are not UTF-8 are a ParseError. Each
    refusal names the file.
    Lines go to loadtxt `_CHUNK_ROWS` at a time; where it refuses a chunk,
    bisecting the chunk's lines with the same call finds the refused line.
    """
    codes = {name: defaultdict() for name in dtype.names if dtype[name] == object}
    for code in codes.values():
        code.default_factory = code.__len__  # a new text takes the next code
    parts = {name: [np.empty(0, np.int64 if name in codes else dtype[name])] for name in dtype.names}
    skipped, n, first_line, refusal = [], 0, 2, None
    file = path.name
    try:
        with open(path, encoding="utf-8", newline="") as handle, warnings.catch_warnings():
            warnings.filterwarnings("ignore", ".*contained no data", UserWarning)  # a chunk of no rows
            header = handle.readline()
            if not header:
                raise ParseError("file is empty", 1, file)
            given = [field.strip() for field in header.split(",")]
            if given != list(dtype.names):
                raise ParseError(f"expected header {','.join(dtype.names)}, got {','.join(given)}", 1, file)
            while refusal is None and (lines := list(islice(handle, _CHUNK_ROWS))):
                end = len(lines)
                if '"' in "".join(lines):
                    end = next(k for k, text in enumerate(lines) if '"' in text)
                try:
                    chunk = _parse(lines[:end], dtype)
                except ValueError:
                    end = _first_refused(lines[:end], dtype)
                    chunk = _parse(lines[:end], dtype)
                # per skipped line, the number of the chunk's rows before it
                empty = [] if len(chunk) == end else [k for k in range(end) if not lines[k].rstrip("\r\n")]
                before = [k - j for j, k in enumerate(empty)]
                if refuse is not None and (marked := np.flatnonzero(refuse(chunk))).size:
                    row = int(marked[0])
                    chunk, end = chunk[:row], row + bisect_right(before, row)
                if end < len(lines):
                    refusal = ParseError(_refusal(lines[end], len(dtype.names)), first_line + end, file)
                skipped += [n + k for k in before]
                n, first_line = n + len(chunk), first_line + len(lines)
                for name in dtype.names:
                    column = chunk[name]
                    if name in codes:  # one lookup per run of equal texts
                        starts = np.flatnonzero(np.append(len(column) > 0, column[1:] != column[:-1]))
                        runs = [codes[name][text] for text in column[starts].tolist()]
                        column = np.repeat(np.array(runs, np.int64), np.diff(starts, append=len(column)))
                    parts[name].append(column.copy())
                del lines, chunk, column  # before the next chunk is read
    except UnicodeDecodeError as error:
        raise ParseError(f"not UTF-8 text ({error.reason})", file=file) from None
    # popped one by one, so that only one column is held twice
    columns = {name: np.concatenate(parts.pop(name)) for name in dtype.names}
    return Rows(columns, {name: list(code) for name, code in codes.items()}, refusal, skipped, file)


def first_repeat(*keys: np.ndarray) -> int | None:
    """The first row, in file order, whose `keys` an earlier row holds, or None."""
    order = np.lexsort(keys)  # stable: equal keys stay in file order
    same = np.logical_and.reduce([key[order][1:] == key[order][:-1] for key in keys])
    return int(order[1:][same].min()) if same.any() else None


def int_field(text: str) -> int | None:
    """`text` as `read_rows` reads an int64 field, or None where it would refuse it."""
    try:
        return int(_parse([text], np.dtype(np.int64))[0]) if text else None
    except ValueError:
        return None


def _parse(lines: list[str], dtype: np.dtype) -> np.ndarray:
    return np.loadtxt(lines, dtype, delimiter=",", comments=None, ndmin=1)


def _first_refused(lines: list[str], dtype: np.dtype) -> int:
    """Index of the first of `lines` that `_parse` refuses, given that it
    refuses them all together; each call parses half the lines left."""
    low, high = 0, len(lines)  # lines[:low] parse; lines[low:high] hold a refused one
    while high - low > 1:
        middle = (low + high) // 2
        try:
            _parse(lines[low:middle], dtype)
            low = middle
        except ValueError:
            high = middle
    return low


def _refusal(text: str, width: int) -> str:
    """Why a refused line of `width` fields is refused."""
    fields = text.rstrip("\r\n").split(",")
    if '"' in text:
        return "quoted fields are not supported"
    if len(fields) != width:
        return f"expected {width} fields, got {len(fields)}"
    return f"bad numeric value in {fields!r}"


def check_unquoted(fields: Iterable[str], kind: str) -> None:
    """Refuse any of `fields` that does not read back: one csv would quote,
    which `read_rows` cannot read, or one with surrounding blanks, which the
    readers strip."""
    for field in fields:
        if any(char in field for char in _QUOTED_CHARS):
            raise ValidationError(f"{kind} {field!r} needs csv quoting")
        if field != field.strip():
            raise ValidationError(f"{kind} {field!r} has surrounding blanks")
