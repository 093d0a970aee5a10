"""The one file format of designs, TDs, nets and groups: a header line
``TAG name=value ...``, then the (rows, width, bound) sections its values
lay out, each ``rows`` rows of ``width`` points in 0..bound-1.  The writer
puts a space between points and a newline after each row; the reader also
takes blank lines, '#' comments to the end of their line, runs of spaces,
tabs or '\\r', a sign before a point and a last line without its newline.
Any other byte, '_' and non-ASCII included, or a point of more than 18
digits, is a ParseError naming the first line that is wrong.  Both stream,
one batch of chunks at a time, one chunk per CPU through ``chunk_map``: the
writer gathers _WRITE_ROWS rows a chunk from a per-point byte table, and
writes and hashes a batch while the next is made; the reader tokenizes
newline-aligned chunks of _READ_BYTES bytes with numpy, a batch together
while it cannot reach the end of a section, else one chunk at a time.
"""
from __future__ import annotations

import hashlib
import os
import re
from functools import partial
from typing import BinaryIO, Callable, Iterable, Sequence

import numpy as np

from . import chunkmap
from .chunkmap import chunk_map, chunk_stream
from .errors import BadParams, ParseError

_WRITE_ROWS = 1 << 17
_READ_BYTES = 1 << 17  # a chunk's arrays take ~20x its size; larger chunks read no faster
_MAX_DIGITS = 18  # a point of at most 18 digits fits an int64
_SEPARATOR = np.zeros(256, dtype=bool)
_SEPARATOR[list(b" \t\n\r\v\f")] = True


def _cells(bound: int) -> np.ndarray:
    """Row p of the (bound, width) uint8 table: NULs, p's digits, a space."""
    points = np.arange(bound)[:, None]
    places = 10 ** np.arange(len(str(max(bound - 1, 0))))[::-1]
    digits = np.where((points >= places) | (places == 1), points // places % 10 + ord("0"), 0)
    return np.pad(digits, ((0, 0), (0, 1)), constant_values=ord(" ")).astype(np.uint8)


def _text(point_cells: np.ndarray, rows: np.ndarray) -> bytes:
    """The lines of the rows: their points' cells, the NULs dropped."""
    cells = point_cells[rows]
    cells[:, -1, -1] = ord("\n")
    cells = cells.reshape(-1)
    return cells[cells != 0].tobytes()


def _stream(tag: str, fields: dict[str, int], sections: Iterable[tuple[np.ndarray, int]],
            comments: Sequence[str], consume: Callable[[list[bytes]], None]) -> None:
    """``consume`` a file's bytes in order: comment lines and header, then the
    rows of each section, a (rows, width) array of points below the bound it
    comes with, in chunks of _WRITE_ROWS rows made beside the consuming."""
    consume(["".join([*(f"# {c}\n" for c in comments), tag,
                      *(f" {name}={value}" for name, value in fields.items()), "\n"]).encode()])
    parts = []
    for table, bound in sections:
        point_cells = _cells(bound)
        parts += [partial(_text, point_cells, table[start:start + _WRITE_ROWS])
                  for start in range(0, len(table), _WRITE_ROWS)]
    chunk_stream(parts, consume)


def chunks(tag: str, fields: dict[str, int], sections: Iterable[tuple[np.ndarray, int]],
           comments: Sequence[str] = ()) -> list[bytes]:
    """The bytes of a file (see ``_stream``), chunk by chunk."""
    made: list[bytes] = []
    _stream(tag, fields, sections, comments, made.extend)
    return made


def write(path, tag: str, fields: dict[str, int], sections: Iterable[tuple[np.ndarray, int]],
          comments: Sequence[str] = ()) -> str:
    """Stream the file into a sibling renamed over ``path``, so a failed
    write never truncates it; the sha256 of the bytes written.  Each batch of
    chunks is written and hashed beside the making of the next."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    digest = hashlib.sha256()

    def save(made: list[bytes]) -> None:
        for chunk in made:
            fh.write(chunk)
            digest.update(chunk)

    try:
        with open(tmp, "wb") as fh:
            _stream(tag, fields, sections, comments, save)
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


def _table_chunk(chunk: bytes, first_line: int, v: int, k: int, room: int,
                 distinct: bool) -> tuple[np.ndarray, int, int]:
    """The points, newlines and bytes of a newline-aligned piece, starting at
    line ``first_line``, of a section of rows of k points below v with room
    for ``room`` more points: a piece with more ends at the line of the last,
    if the next starts a later line.  A malformed piece, or with ``distinct``
    a row that repeats a point, raises ParseError at its first wrong line."""
    # a separator before the first point, and room to read past the last
    a = np.frombuffer(b" " + chunk + b" " * _MAX_DIGITS, dtype=np.uint8)
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
    if 0 < room < len(starts):  # the next section starts in this piece
        end = np.searchsorted(newlines, starts[room - 1])
        if end < len(newlines) and newlines[end] < starts[room]:
            # a's newline i is byte i - 1 of the chunk
            return _table_chunk(chunk[:newlines[end]], first_line, v, k, room, distinct)
    problems = []  # (line number, reason), the first line reported

    def line_of(t) -> int:
        return first_line + int(np.searchsorted(newlines, starts[t]))

    first = starts
    if not plain:
        signed = (a[starts] == ord("+")) | (a[starts] == ord("-"))
        stray = token & ~is_digit
        stray[starts[signed]] = False
        invalid = signed & (ends - starts == 1)
        invalid[np.searchsorted(starts, np.flatnonzero(stray), side="right") - 1] = True
        if invalid.any():
            problems.append((line_of(np.argmax(invalid)), "point is not an integer"))
        first = starts + signed
    count = ends - first
    values = digit[first].astype(np.int64)
    for j in range(1, min(int(count.max(initial=0)), _MAX_DIGITS)):
        values = np.where(count > j, values * 10 + digit[j:][first], values)
    if not plain:
        np.negative(values, out=values, where=a[starts] == ord("-"))

    # the row width: with t = k*L points on L lines, point k*i follows newline
    # i-1 and point k*i+k-1 precedes newline i; else count points line by line
    lines = len(newlines) + (not chunk.endswith(b"\n") and bool(chunk))
    t = len(starts)
    if not (t == k * lines and (t == 0 or (np.all(starts[k - 1::k][:len(newlines)] < newlines)
                                           and np.all(starts[k::k] > newlines[:lines - 1])))):
        line = np.searchsorted(newlines, starts)
        opens = np.flatnonzero(np.diff(line, prepend=-1))
        width = np.diff(opens, append=t)
        if (width != k).any():
            i = int(np.argmax(width != k))
            problems.append((first_line + int(line[opens[i]]),
                             f"expected {k} points, got {width[i]}"))
    bad = (values < 0) | (values >= v) | (count > _MAX_DIGITS)
    if bad.any():
        problems.append((line_of(np.argmax(bad)), "point index out of range"))
    if distinct:  # rows before a width error are the file's rows
        rows = np.sort(values[:t - t % k].reshape(-1, k), axis=1)
        repeats = np.any(rows[:, 1:] == rows[:, :-1], axis=1)
        if repeats.any():
            problems.append((line_of(np.argmax(repeats) * k), "repeated point in a row"))
    if t > room:
        problems.append((line_of(room), "more rows than the header gives"))
    if problems:
        raise ParseError(*min(problems, key=lambda p: p[0]))
    return values, len(newlines), len(chunk)


def read(fh: BinaryIO, tag: str, names: Sequence[str],
         layout: Callable[..., list[tuple[int, int, int]]],
         distinct: bool = False) -> tuple[list[int], list[np.ndarray]]:
    """The values of the header (the first line not blank or a comment) and a
    (rows, width) int64 array per section of ``layout(*values)``, which raises
    BadParams on values it refuses.  With ``distinct`` no row repeats a point."""
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
    try:  # after the last section, one of no points refuses any further row
        sections = [*layout(*values), (0, 1, 0)]
    except BadParams as exc:
        raise ParseError(line_no, str(exc))
    total, here = sum(rows * width for rows, width, _ in sections), fh.tell()
    if total > fh.seek(0, os.SEEK_END) - here:  # a point takes a byte at least
        raise ParseError(line_no, f"{total} points cannot fit in the file")
    fh.seek(here)
    tables = [np.empty((rows, width), dtype=np.int64) for rows, width, _ in sections]
    s, filled, tail, end = 0, 0, b"", False
    while not end:
        pieces = []  # newline-aligned chunks, WORKERS at a time
        while not end and len(pieces) < chunkmap.WORKERS:
            data = fh.read(_READ_BYTES)
            chunk, end = tail + data, not data
            cut = len(chunk) if end else chunk.rfind(b"\n") + 1
            if cut:
                pieces.append(chunk[:cut])
            tail = chunk[cut:]
        while pieces:
            while s < len(tables) - 1 and filled == tables[s].size:
                s, filled = s + 1, 0
            _, width, bound = sections[s]
            room = tables[s].size - filled
            # n bytes hold at most (n + 1) // 2 points: pieces that cannot reach the
            # section's end are read together, else one at a time
            n = len(pieces) if (sum(map(len, pieces)) + 1) // 2 <= room else 1

            def tokens(i: int) -> tuple[np.ndarray, int, int]:
                try:
                    return _table_chunk(pieces[i], line_no + 1, bound, width, room, distinct)
                except ParseError:  # again, numbered by the newlines of the pieces before it
                    first = line_no + 1 + sum(piece.count(b"\n") for piece in pieces[:i])
                    return _table_chunk(pieces[i], first, bound, width, room, distinct)

            done = chunk_map(tokens, n)
            for got, newlines, _ in done:
                tables[s].reshape(-1)[filled:filled + len(got)] = got
                filled += len(got)
                line_no += newlines
            rest = pieces[n - 1][done[-1][2]:]
            pieces = [rest, *pieces[n:]] if rest else pieces[n:]
    rows, expected = sum(map(len, tables[:s])) + filled // sections[s][1], sum(map(len, tables))
    if rows < expected:
        raise ParseError(line_no + 1, f"expected {expected} rows, got {rows}")
    return values, tables[:-1]
