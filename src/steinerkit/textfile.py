"""The one file format of designs, TDs, nets and groups: a header line
``TAG name=value ...``, then the (rows, width) sections its values lay out,
each ``rows`` rows of ``width`` points, and one bound the values give for
every point of the file: each is in 0..bound-1.  The writer puts a space
between points and a newline after each row; the reader also takes blank
lines, '#' comments to the end of their line, runs of spaces, tabs or '\\r',
a sign before a point and a last line without its newline.  Any other byte,
'_' and non-ASCII included, or a point of more than 18 digits, is a
ParseError naming the first line that is wrong.  Both stream through one
ordered ``chunk_stream`` on every CPU: the writer takes the cells of
_WRITE_ROWS rows a chunk from the file's one per-point byte table along its
one axis, and writes and hashes each chunk while later ones are made; the
reader reads newline-aligned chunks of _READ_BYTES bytes each into its own
buffer, tokenizes them with numpy, in int32 while no point has over 9
digits, in the table's dtype, and takes each chunk in order.
"""
from __future__ import annotations

import hashlib
import os
import re
import threading
from functools import partial
from typing import BinaryIO, Callable, Iterable, Iterator, Sequence

import numpy as np

from .chunkmap import chunk_stream
from .errors import BadParams, ParseError

_WRITE_ROWS = 1 << 16  # 2^17 writes no faster and leaves a larger heap behind
_READ_BYTES = 1 << 18  # a chunk's arrays take ~13x its size; 2^19 reads no faster, 2^17 slower
_MAX_DIGITS = 18  # a point of at most 18 digits fits an int64
_SEPARATOR = np.zeros(256, dtype=bool)
_SEPARATOR[list(b" \t\n\r\v\f")] = True


def point_dtype(bound: int) -> np.dtype:
    """The dtype of a table of points below ``bound``: uint16 while bound <=
    65,536, else uint32 (int64 past 2^32)."""
    return np.dtype(np.uint16 if bound <= 1 << 16 else np.uint32 if bound <= 1 << 32 else np.int64)


def _cells(bound: int) -> np.ndarray:
    """Row p of the (bound, width) uint8 table: NULs, p's digits, a space;
    one digit column at a time, by divmod in ``point_dtype(bound)``."""
    width = len(str(max(bound - 1, 0)))
    cells = np.full((bound, width + 1), ord(" "), dtype=np.uint8)
    rest = np.arange(bound, dtype=point_dtype(bound))
    for col in range(width - 1, -1, -1):
        above = (rest == 0) & (col < width - 1)  # places above the leading digit are NUL
        rest, digit = np.divmod(rest, 10)
        cells[:, col] = np.where(above, 0, digit + ord("0"))
    return cells


def _text(point_cells: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The bytes of the rows' lines, as uint8: their points' cells, the NULs dropped."""
    cells = np.take(point_cells, rows, axis=0)
    cells[:, -1, -1] = ord("\n")
    cells = cells.reshape(-1)
    return cells[cells != 0]


def _stream(tag: str, fields: dict[str, int], bound: int, tables: Iterable[np.ndarray],
            comments: Sequence[str], consume: Callable[[bytes | np.ndarray], None]) -> None:
    """``consume`` a file's bytes in order: comment lines and header, then the
    rows of each section, a (rows, width) array of points below ``bound``, in
    chunks of _WRITE_ROWS rows made beside the consuming."""
    consume("".join([*(f"# {c}\n" for c in comments), tag,
                     *(f" {name}={value}" for name, value in fields.items()), "\n"]).encode())
    chunk_stream([table[start:start + _WRITE_ROWS]
                  for table in tables for start in range(0, len(table), _WRITE_ROWS)],
                 partial(_text, _cells(bound)), consume)


def chunks(tag: str, fields: dict[str, int], bound: int, tables: Iterable[np.ndarray],
           comments: Sequence[str] = ()) -> list[bytes | np.ndarray]:
    """The bytes of a file (see ``_stream``), chunk by chunk: bytes, then uint8 arrays."""
    made: list[bytes | np.ndarray] = []
    _stream(tag, fields, bound, tables, comments, made.append)
    return made


def write(path, tag: str, fields: dict[str, int], bound: int, tables: Iterable[np.ndarray],
          comments: Sequence[str] = ()) -> str:
    """Stream the file into a sibling renamed over ``path``, so a failed
    write never truncates it; the sha256 of the bytes written.  Each chunk is
    written and hashed beside the making of the next; no two threads share a sibling."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.{threading.get_ident()}.tmp"
    digest = hashlib.sha256()

    def save(chunk: bytes | np.ndarray) -> None:
        fh.write(chunk)
        digest.update(chunk)

    try:
        with open(tmp, "wb") as fh:
            _stream(tag, fields, bound, tables, comments, save)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return digest.hexdigest()


def _blank_comments(a: np.ndarray) -> np.ndarray:
    """The bytes with every '#' up to the end of its line made a space: a byte
    is in a comment when the last '#' up to it follows the last newline."""
    at = np.arange(len(a))
    hash_, newline = (np.maximum.accumulate(np.where(a == c, at, -1)) for c in b"#\n")
    return np.where(hash_ > newline, np.uint8(ord(" ")), a)


def _pieces(fh: BinaryIO, end: int) -> Iterator[np.ndarray]:
    """The file up to ``end`` in newline-aligned pieces, each read into its own buffer."""
    head, got = b" ", True  # a separator, then the bytes past the last piece
    while got:
        buf = bytearray(len(head) + min(_READ_BYTES, end - fh.tell()) + _MAX_DIGITS)
        buf[:len(head)] = head
        stop = len(head) + (got := fh.readinto(memoryview(buf)[len(head):-_MAX_DIGITS]))
        cut = buf.rfind(b"\n", 0, stop) + 1 if got else stop
        head = b" " + buf[max(cut, 1):stop]
        if cut > 1:
            buf[cut:cut + _MAX_DIGITS] = b" " * _MAX_DIGITS
            yield np.frombuffer(buf, dtype=np.uint8, count=cut + _MAX_DIGITS)


def _tokens(a: np.ndarray, bound: int, width: int) -> tuple[np.ndarray, np.ndarray | None,
                                                            int, list[tuple[int, int, str]]]:
    """A newline-aligned piece's points in ``point_dtype(bound)``; None when
    every line is a row of ``width`` points, else the points on each line;
    its newlines; and its problems, each (line, rank, reason) with lines
    counted from 0 at the piece's start: the first point that is not an
    integer (rank 0) and the first outside 0..bound-1 (rank 2).  The piece is
    uint8 between a space and _MAX_DIGITS spaces, room to read past its ends."""
    newlines = np.flatnonzero(a == ord("\n"))
    digit = a - np.uint8(ord("0"))  # wraps: below 10 on digits only
    plain = (np.count_nonzero(digit < 10) + np.count_nonzero(a == ord(" "))
             + len(newlines) == len(a))
    if not plain:
        a = _blank_comments(a)
        digit = a - np.uint8(ord("0"))
    is_digit = digit < 10
    token = is_digit if plain else ~_SEPARATOR[a]
    bounds = np.flatnonzero(token[1:] != token[:-1]) + 1
    starts, ends = bounds[0::2], bounds[1::2]
    problems = []

    def line_of(t) -> int:
        return int(np.searchsorted(newlines, starts[t]))

    first = starts
    if not plain:
        signed = (a[starts] == ord("+")) | (a[starts] == ord("-"))
        stray = token & ~is_digit
        stray[starts[signed]] = False
        invalid = signed & (ends - starts == 1)
        invalid[np.searchsorted(starts, np.flatnonzero(stray), side="right") - 1] = True
        if invalid.any():
            problems.append((line_of(np.argmax(invalid)), 0, "point is not an integer"))
        first = starts + signed
    count = ends - first
    longest = int(count.max(initial=0))
    values = digit[first].astype(np.int32 if longest <= 9 else np.int64)  # int32 holds 9 digits
    for j in range(1, min(longest, _MAX_DIGITS)):
        values = np.where(count > j, values * 10 + digit[j:][first], values)
    if not plain:
        np.negative(values, out=values, where=a[starts] == ord("-"))
    bad = (values < 0) | (values >= bound) | (count > _MAX_DIGITS)
    if bad.any():
        problems.append((line_of(np.argmax(bad)), 2, "point index out of range"))

    # with t = width*L points on L lines, point width*i follows newline i-1
    # and point width*i+width-1 precedes newline i; else count points line by line
    lines = len(newlines) + (len(a) > 1 + _MAX_DIGITS and a[-1 - _MAX_DIGITS] != ord("\n"))
    t, w = len(starts), width
    rows = (t == w * lines and np.all(starts[w - 1::w][:len(newlines)] < newlines)
            and np.all(starts[w::w] > newlines[:lines - 1]))
    per_line = None if rows else np.bincount(np.searchsorted(newlines, starts), minlength=lines)
    return values.astype(point_dtype(bound), copy=False), per_line, len(newlines), problems


def read(fh: BinaryIO, tag: str, names: Sequence[str],
         layout: Callable[..., tuple[int, list[tuple[int, int]]]],
         distinct: bool = False) -> tuple[list[int], list[np.ndarray]]:
    """The values of the header (the first line not blank or a comment) and,
    for ``(bound, sections) = layout(*values)``, which raises BadParams on
    values it refuses, a (rows, width) array in ``point_dtype(bound)`` per
    section.  With ``distinct`` no row repeats a point.  A piece whose lines
    are rows of its section's width, with no problem and ending inside that
    section, is copied straight into its table; any other is checked row by
    row, each row in the section its index gives."""
    line_no, line = 0, b""
    while not line.strip() or line.lstrip().startswith(b"#"):
        line_no, line = line_no + 1, fh.readline()
        if not line:
            raise ParseError(line_no, f"missing {tag} header")
    fields = b"".join(rb"\s+%s=(-?\d+)" % name.encode() for name in names)
    match = re.fullmatch(rb"\s*%s%s\s*" % (tag.encode(), fields), line)
    if match is None:
        raise ParseError(line_no, f"expected '{' '.join([tag, *(f'{n}=<{n}>' for n in names)])}'")
    values = [int(value) for value in match.groups()]
    try:
        bound, sections = layout(*values)
    except BadParams as exc:
        raise ParseError(line_no, str(exc))
    total, here = sum(rows * width for rows, width in sections), fh.tell()
    if total > (end := fh.seek(0, os.SEEK_END)) - here:  # a point takes a byte at least
        raise ParseError(line_no, f"{total} points cannot fit in the file")
    fh.seek(here)
    tables = [np.empty((rows, width), dtype=point_dtype(bound)) for rows, width in sections]
    row_ends = np.cumsum([rows for rows, _ in sections])
    widths = np.array([width for _, width in sections] + [0])  # none past the last row
    s = filled = rows_read = 0  # the section filling, its points filled, the rows read
    width = max(sections, key=lambda section: section[0] * section[1])[1]  # _tokens' row test

    def take(made: tuple) -> None:
        """Raise a piece's first problem, unless it is a straight copy; fill it in."""
        nonlocal s, filled, rows_read, line_no
        got, per_line, newlines, problems = made
        if (per_line is not None or problems or distinct or width != widths[s]
                or filled + len(got) > tables[s].size):  # not a straight copy
            per_line = np.full(len(got) // width, width) if per_line is None else per_line
            at = np.flatnonzero(per_line)  # the lines that are rows
            count = per_line[at]
            section = np.searchsorted(row_ends, rows_read + np.arange(len(at)), side="right")
            if (wrong := (count != widths[section]) & (section < len(sections))).any():
                i = np.argmax(wrong)
                problems.append((at[i], 1,
                                 f"expected {widths[section[i]]} points, got {count[i]}"))
            if distinct:  # each row's points sorted: a repeat equals the point before it
                row = np.repeat(np.arange(len(at)), count)
                point = got[np.lexsort((got, row))]
                repeats = row[1:][(row[1:] == row[:-1]) & (point[1:] == point[:-1])]
                if len(repeats):
                    problems.append((at[repeats[0]], 3, "repeated point in a row"))
            if (past := section == len(sections)).any():
                problems.append((at[np.argmax(past)], 4, "more rows than the header gives"))
            if problems:
                at_line, _, reason = min(problems)
                raise ParseError(line_no + 1 + int(at_line), reason)
        while len(got):  # whole rows, each inside its section
            n = min(len(got), tables[s].size - filled)
            tables[s].reshape(-1)[filled:filled + n] = got[:n]
            got, filled, rows_read = got[n:], filled + n, rows_read + n // widths[s]
            while filled == tables[s].size and s < len(tables) - 1:
                s, filled = s + 1, 0
        line_no += newlines

    chunk_stream(_pieces(fh, end), partial(_tokens, bound=bound, width=width), take)
    if rows_read < row_ends[-1]:
        raise ParseError(line_no + 1, f"expected {row_ends[-1]} rows, got {rows_read}")
    return values, tables
