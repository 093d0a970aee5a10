"""The streamed design-file writer and the chunked reader against the
text-building ``serialize`` and the ``loadtxt`` parser they replaced.

The references are kept here, as in ``test_row_keys.py``.  Every comparison
runs with small write and read chunks, so that a file spans several of them
and a malformed line can sit after the first.  TD and net files are written
in the same format (their writer pins are here and in ``test_netstd.py``)
but never read back; the group reader shares the design reader's codec, and
the corpus cases that apply to it run through both readers at the end.
"""
from __future__ import annotations

import builtins
import hashlib
import io
import itertools
import os
import pickle
import sys
import tempfile
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinerkit import design as design_module
from steinerkit import chunkmap, textfile
from steinerkit.basedesigns import build_base_design, wilson_base_block
from steinerkit.design import Design, read_design, write_design
from steinerkit.errors import ParseError, SteinerError
from steinerkit.netstd import mols_td, td_file
from steinerkit.permgrp import PermGroup, Permutation, group_from_text, group_to_text

HYPOTHESIS = settings(max_examples=80, deadline=None)


# -- references --------------------------------------------------------------

def serialize(design: Design) -> str:
    """Reference writer: the whole file as one string."""
    head = f"DESIGN v={design.v} k={design.k} b={design.b}\n"
    if design.b == 0:
        return head
    body = "\n".join(" ".join(map(str, row)) for row in design.blocks.tolist())
    return head + body + "\n"


def _data_line(stream: io.StringIO, line_no: int) -> tuple[int, str | None]:
    """Number and text of the next line not blank or a comment; (end, None) at the end."""
    for line_no, raw in enumerate(iter(stream.readline, ""), start=line_no + 1):
        if raw.strip() and not raw.lstrip().startswith("#"):
            return line_no, raw
    return line_no + 1, None


def parse(text: str) -> Design:
    """Reference reader: ``np.loadtxt`` over the text after the header."""
    stream = io.StringIO(text)
    head_no, line = _data_line(stream, 0)
    if line is None:
        raise ParseError(head_no, "missing DESIGN header")
    head = line.split()
    if len(head) != 4 or head[0] != "DESIGN":
        raise ParseError(head_no, "expected 'DESIGN v=<v> k=<k> b=<b>'")
    try:
        v = int(head[1].removeprefix("v="))
        k = int(head[2].removeprefix("k="))
        b = int(head[3].removeprefix("b="))
    except ValueError:
        raise ParseError(head_no, "bad header fields")
    body = stream.tell()
    first_no, first = _data_line(stream, head_no)
    rows = np.empty((0, k), dtype=np.int64)
    if first is not None:  # loadtxt warns on a table without rows
        stream.seek(body)
        try:
            rows = np.loadtxt(stream, dtype=np.int64, ndmin=2)
        except ValueError as exc:
            raise ParseError(first_no, f"bad block table: {exc}")
    if rows.shape != (b, k):
        raise ParseError(first_no, f"expected {b}x{k} block table, got {rows.shape}")
    if rows.size and (rows.min() < 0 or rows.max() >= v):
        raise ParseError(first_no, "point index out of range")
    return Design(v, k, rows)


def cells(bound: int) -> np.ndarray:
    """Reference per-point byte table: every place of every point at once."""
    points = np.arange(bound)[:, None]
    places = 10 ** np.arange(len(str(max(bound - 1, 0))))[::-1]
    digits = np.where((points >= places) | (places == 1), points // places % 10 + ord("0"), 0)
    return np.pad(digits, ((0, 0), (0, 1)), constant_values=ord(" ")).astype(np.uint8)


# -- helpers -----------------------------------------------------------------

@pytest.fixture
def small_chunks(monkeypatch):
    monkeypatch.setattr(textfile, "_WRITE_ROWS", 3)
    monkeypatch.setattr(textfile, "_READ_BYTES", 16)


def read_text(text: str) -> Design:
    """read_design on a file holding exactly the bytes of ``text``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "d.design")
        path.write_bytes(text.encode())
        return read_design(path)


def verdict(read, text: str):
    """The design read, or the kind of error (ParseError or another)."""
    try:
        return read(text)
    except ParseError as exc:
        return ParseError, exc.line_no
    except SteinerError as exc:
        return type(exc)


@st.composite
def designs(draw) -> Design:
    """Up to 40 random k-subsets of v points, b=0 included."""
    k = draw(st.integers(1, 5))
    v = draw(st.sampled_from([k, k + 1, 9, 10, 11, 99, 100, 101, 1000, 12345]))
    subset = st.lists(st.integers(0, v - 1), min_size=k, max_size=k, unique=True)
    return Design(v, k, np.array(draw(st.lists(subset, max_size=40)), dtype=np.int64).reshape(-1, k))


COMMENT = st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=12)


# -- the writer --------------------------------------------------------------

@HYPOTHESIS
@given(d=designs(), comments=st.lists(COMMENT, max_size=3))
def test_write_design_bytes_equal_serialize(d, comments):
    expect = ("".join(f"# {c}\n" for c in comments) + serialize(d)).encode()
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
        mp.setattr(textfile, "_WRITE_ROWS", 3)
        path = Path(tmp, "d.design")
        digest = write_design(d, path, comments)
        assert path.read_bytes() == expect
    assert digest == hashlib.sha256(expect).hexdigest()


@pytest.mark.parametrize("bound", [0, 1, 2, 10, 11, 6859, 531_441, 10**6 + 3])
def test_point_cells_equal_the_reference(bound):
    got = textfile._cells(bound)
    assert got.dtype == np.uint8 and np.array_equal(got, cells(bound))


def plain_lines(rows) -> str:
    return "".join(" ".join(map(str, row)) + "\n" for row in rows)


@pytest.mark.parametrize("v", [65_536, 65_537])  # the last uint16 table, the first uint32
def test_write_design_equals_plain_lines_at_uint32_width(tmp_path, monkeypatch, v):
    monkeypatch.setattr(textfile, "_WRITE_ROWS", 3)
    rng = np.random.default_rng(v)
    rows = [rng.choice(v, 4, replace=False) for _ in range(20)] + [[0, 9, v - 2, v - 1]]
    d = Design(v, 4, rows)
    path = tmp_path / "d.design"
    write_design(d, path)
    assert path.read_text() == f"DESIGN v={v} k=4 b=21\n" + plain_lines(d.blocks.tolist())


def test_td_and_group_files_equal_plain_lines():
    td = mols_td(4, 5)
    assert td.groups.dtype == td.blocks.dtype == np.int64
    assert b"".join(textfile.chunks(*td_file(td))).decode() == (
        "TD k=4 n=5\n" + plain_lines(td.groups.tolist())
        + plain_lines(sorted(row) for row in td.blocks.tolist()))
    images = np.random.default_rng(1).permutation(65_537)
    gens = [Permutation(images), Permutation.identity(65_537)]
    assert group_to_text(PermGroup(65_537, gens)) == (
        "PERMGROUP degree=65537 gens=2\n" + plain_lines([images.tolist(), range(65_537)]))


def test_write_fails_on_a_later_chunk(tmp_path, monkeypatch):
    path = tmp_path / "d.design"
    write_design(Design(7, 3, [[0, 1, 3]]), path)
    old = path.read_bytes()
    on_disk = []

    class FullAfterFirst:
        """A file that takes the first chunk, then reports a full disk."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            if self.fh.tell():
                on_disk.append(os.path.getsize(self.fh.name))
                raise OSError(28, "No space left on device")
            self.fh.write(data)
            self.fh.flush()

    monkeypatch.setattr(textfile, "_WRITE_ROWS", 2)
    monkeypatch.setattr(textfile, "open",
                        lambda file, mode="r": FullAfterFirst(builtins.open(file, mode)),
                        raising=False)
    fano = Design(7, 3, [sorted((i % 7, (1 + i) % 7, (3 + i) % 7)) for i in range(7)])
    with pytest.raises(OSError):
        write_design(fano, path)
    assert on_disk and on_disk[0] > 0  # the first chunk reached the temporary file
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["d.design"]


# -- the reader --------------------------------------------------------------

@HYPOTHESIS
@given(d=designs(), comments=st.lists(COMMENT, max_size=3), data=st.data())
def test_read_design_equals_parse(d, comments, data):
    head, _, body = serialize(d).partition("\n")
    lines = body.splitlines(keepends=True)
    # comment and blank lines anywhere after the header, one row per line
    for _ in range(data.draw(st.integers(0, 3))):
        at = data.draw(st.integers(0, len(lines)))
        lines.insert(at, data.draw(st.sampled_from(["\n", "  \n", "# note\n", "\t# 1 2\n"])))
    text = "".join(f"# {c}\n" for c in comments) + head + "\n" + "".join(lines)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(textfile, "_READ_BYTES", 16)
        assert read_text(text) == parse(text) == d


# AG(2,3) on the points 21..29 of 30, 12 blocks on lines 2..13 of TEXT; the
# two-digit points leave the file room for a missing row
ROWS = ["21 22 23", "21 24 27", "21 25 29", "21 26 28", "22 24 29", "22 25 28",
        "22 26 27", "23 24 28", "23 25 27", "23 26 29", "24 25 26", "27 28 29"]
TEXT = "DESIGN v=30 k=3 b=12\n" + "".join(f"{r}\n" for r in ROWS)


def with_row(line: int, row: str) -> str:
    """TEXT with the block on file line ``line`` replaced by ``row``."""
    rows = list(ROWS)
    rows[line - 2] = row
    return "DESIGN v=30 k=3 b=12\n" + "".join(f"{r}\n" for r in rows)


# (case, text, the line a ParseError must name, or None when the file is legal)
CORPUS = [
    ("valid", TEXT, None),
    ("two points", with_row(11, "23 26"), 11),
    ("four points", with_row(12, "24 25 26 27"), 12),
    ("two points, first line", with_row(2, "21 22"), 2),
    ("decimal point", with_row(10, "23 25 2.5"), 10),
    ("letter", with_row(13, "27 x 29"), 13),
    ("lone minus", with_row(9, "23 - 28"), 9),
    ("double sign", with_row(9, "23 --24 28"), 9),
    ("inner sign", with_row(9, "23 24-1 28"), 9),
    ("underscore", with_row(9, "23 0_24 28"), 9),
    ("negative point", with_row(12, "-1 25 26"), 12),
    ("point v", with_row(8, "22 26 30"), 8),
    ("20 digits", with_row(7, "22 25 99999999999999999999"), 7),
    ("NUL byte", with_row(7, "22 25 28\x00"), 7),
    ("lone plus, v above the bytes after it", "DESIGN v=300 k=3 b=1\n123 + 128\n", 2),
    ("too few rows", TEXT.rsplit("27 28 29\n", 1)[0], 13),
    ("too many rows", TEXT + "21 25 29\n", 14),
    ("too many rows, blank lines before", TEXT + "\n\n21 25 29\n", 16),
    ("width error before a range error", with_row(9, "23 24")[:-9] + "27 28 30\n", 9),
    ("more points than the file can hold", "DESIGN v=9 k=3 b=12\n0 1 2\n0 3 6\n", 1),
    ("tabs", with_row(6, "22\t24\t29"), None),
    ("runs of spaces", with_row(7, "  22   25    28"), None),
    ("trailing spaces", with_row(13, "27 28 29   "), None),
    ("carriage returns", TEXT.replace("\n", "\r\n"), None),
    ("no final newline", TEXT[:-1], None),
    ("comment after the header", TEXT.replace("\n", "\n# made by hand\n", 1), None),
    ("comment lines among rows", TEXT.replace("22 26 27\n", "# x\n22 26 27\n  # y 3\n"), None),
    ("comment after a row", with_row(5, "21 26 28 # a line"), None),
    ("blank lines", TEXT.replace("23 24 28\n", "\n23 24 28\n   \n"), None),
    ("signs", with_row(4, "+21 25 29"), None),
    ("minus zero", with_row(4, "-0 25 29"), None),
    ("leading zeros", with_row(4, "021 0025 00029"), None),
    ("rows out of order", with_row(2, "27 28 29")[:-9] + "21 22 23\n", None),
    ("points out of order", with_row(3, "27 24 21"), None),
    ("empty file", "", 1),
    ("comments only", "# a\n\n", 3),
    ("bad header", "DESIGN v=9 k=3\n0 1 2\n", 1),
    ("non-integer header field", "# c\nDESIGN v=9 k=three b=1\n0 1 2\n", 2),
    ("b=0", "DESIGN v=4 k=2 b=0\n", None),
    ("b=0 with a row", "DESIGN v=4 k=2 b=0\n0 1\n", 2),
]


@pytest.mark.parametrize("case,text,line", CORPUS, ids=[c[0] for c in CORPUS])
@pytest.mark.parametrize("read_bytes", [7, 16, 1 << 20])
def test_corpus_verdicts_match_parse(monkeypatch, case, text, line, read_bytes):
    monkeypatch.setattr(textfile, "_READ_BYTES", read_bytes)
    # a rejection must come from the reader's own checks, whatever the
    # warning filter says
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = verdict(read_text, text)
    expect = verdict(parse, text)
    if isinstance(expect, Design):
        assert got == expect
        assert line is None
    else:
        assert got == (ParseError, line)


def test_repeated_point_is_a_malformed_block(small_chunks):
    assert verdict(read_text, with_row(6, "22 29 29")) == verdict(parse, with_row(6, "22 29 29"))


def test_points_have_at_most_18_digits(small_chunks):
    # leading zeros included, which loadtxt took: 21 is not read as 0
    assert verdict(read_text, with_row(7, "22 25 00000000000000000021")) == (ParseError, 7)


def test_oversized_header_rejected_before_allocation(tmp_path, monkeypatch):
    path = tmp_path / "huge.design"
    path.write_text("DESIGN v=7 k=3 b=1000000000000\n0 1 2\n0 3 4\n")

    def no_table(*args, **kwargs):
        raise AssertionError("block table allocated")

    monkeypatch.setattr(design_module.np, "empty", no_table)
    with pytest.raises(ParseError) as exc:
        read_design(path)
    assert exc.value.line_no == 1


def test_header_block_size_below_1_is_refused(tmp_path):
    path = tmp_path / "k0.design"
    path.write_text("# blocks of no points\nDESIGN v=5 k=0 b=3\n\n\n\n")
    with pytest.raises(ParseError, match="^line 2: block size k=0 must be at least 1$"):
        read_design(path)


# a 9-digit point is read in int32, a longer one in int64
WIDE = "DESIGN v=1000000000000000000 k=1 b=5\n" + plain_lines(
    [[999_999_999], [2**31 - 1], [2**31], [9_999_999_999], [10**18 - 1]])


@pytest.mark.parametrize("chunked", [True, False])
def test_points_past_int32_read_back_exactly(monkeypatch, one_and_two_workers, chunked):
    if chunked:  # the 9-digit row is a chunk of its own
        monkeypatch.setattr(textfile, "_READ_BYTES", 16)
    one, two = one_and_two_workers(lambda: read_text(WIDE).blocks.tobytes())
    assert one == two
    assert np.frombuffer(one, np.int64).tolist() == [999_999_999, 2**31 - 1, 2**31,
                                                     9_999_999_999, 10**18 - 1]


def test_round_trip_across_many_chunks(tmp_path, small_chunks):
    rng = np.random.default_rng(7)
    d = Design(1000, 4, [rng.choice(1000, 4, replace=False) for _ in range(500)])
    path = tmp_path / "d.design"
    write_design(d, path, ["made by a test"])
    assert read_design(path) == d


# -- the digest hashed as the file is read -----------------------------------
# read_design hashes each piece's points as it takes them and keeps the
# digest only when its table is the rows as read; a file whose rows needed
# sorting keeps none, and the design hashes its own table.  With
# digest=False nothing is hashed or kept.

def _lines(rows) -> str:
    return "".join(" ".join(map(str, row)) + "\n" for row in rows)


def _digest_cases() -> list[tuple[str, int, int, np.ndarray, str, bool]]:
    """(case, v, k, the rows in the file, its text, whether the streamed digest is kept)."""
    rows = build_base_design(31, 3, wilson_base_block(31, 3)).design.blocks  # 155 rows
    head = "DESIGN v=31 k=3 b=155\n"
    untidy = "".join(f"\r\n# row {i}\r\n\r\n+{a} {b}  {c}\r\n" if i % 7 == 0 else f"{a} {b} {c}\r\n"
                     for i, (a, b, c) in enumerate(rows.tolist()))
    wide = Design(70_000, 3, np.random.default_rng(31).permutation(70_000)[:180].reshape(60, 3)
                  ).blocks  # uint32
    return [
        ("canonical", 31, 3, rows, head + _lines(rows), True),
        ("rows reversed", 31, 3, rows[::-1], head + _lines(rows[::-1]), False),
        ("points reversed", 31, 3, rows[:, ::-1], head + _lines(rows[:, ::-1]), False),
        ("comments, blank lines, CRLF and signs", 31, 3, rows, "# c\r\n" + head + untidy, True),
        ("b=0", 4, 2, np.empty((0, 2), dtype=np.int64), "DESIGN v=4 k=2 b=0\n", True),
        ("uint32 table", 70_000, 3, wide, "DESIGN v=70000 k=3 b=60\n" + _lines(wide), True),
    ]


DIGEST_CASES = _digest_cases()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case, v, k, rows, text, kept", DIGEST_CASES,
                         ids=[c[0] for c in DIGEST_CASES])
def test_a_read_design_has_the_digest_of_its_table(tmp_path, monkeypatch, case, v, k, rows,
                                                   text, kept, workers):
    monkeypatch.setattr(textfile, "_READ_BYTES", 16)  # a piece holds a row or two
    monkeypatch.setattr(chunkmap, "WORKERS", workers)
    path = tmp_path / "d.design"
    path.write_bytes(text.encode())
    d = read_design(path)
    assert ("digest" in d._verdicts) == kept
    assert d.digest() == Design(v, k, rows).digest()
    assert d._verdicts["digest"] == d.digest()
    unhashed = read_design(path, digest=False)
    assert "digest" not in unhashed._verdicts
    assert unhashed == d and unhashed.digest() == d.digest()


def test_a_pickled_design_hashes_its_table_again(tmp_path):
    _, v, k, rows, text, _ = DIGEST_CASES[0]
    path = tmp_path / "d.design"
    path.write_text(text)
    d = read_design(path)
    copy = pickle.loads(pickle.dumps(d))
    assert "digest" in d._verdicts and "digest" not in copy._verdicts
    assert copy.digest() == d.digest() == Design(v, k, rows).digest()


# -- one corpus, two readers -------------------------------------------------
# Each format's legal file has 12 rows of 3 points on lines 2..13, like TEXT,
# so a corpus case is the same edit of the same line in every format.

def _rows(*rows) -> list[str]:
    return [" ".join(map(str, row)) for row in rows]


FORMATS = {  # header, rows, point bound, reader to arrays
    "design": ("DESIGN v=30 k=3 b=12", ROWS, 30, lambda text: read_text(text).blocks),
    "group": ("PERMGROUP degree=3 gens=12", _rows(*itertools.permutations(range(3))) * 2, 3,
              lambda text: np.stack([g.images for g in group_from_text(text).generators])),
}

# corpus case: (line, its new text from the row's points p and the bound v)
ROW_EDITS = {
    "decimal point": (10, lambda p, v: f"{p[0]} {p[1]} 2.5"),
    "letter": (13, lambda p, v: f"{p[0]} x {p[2]}"),
    "lone minus": (9, lambda p, v: f"{p[0]} - {p[2]}"),
    "double sign": (9, lambda p, v: f"{p[0]} --{p[1]} {p[2]}"),
    "underscore": (9, lambda p, v: f"{p[0]} 0_{p[1]} {p[2]}"),
    "negative point": (12, lambda p, v: f"-1 {p[1]} {p[2]}"),
    "point v": (8, lambda p, v: f"{p[0]} {p[1]} {v}"),
    "two points": (11, lambda p, v: f"{p[0]} {p[1]}"),
    "four points": (12, lambda p, v: f"{p[0]} {p[1]} {p[2]} {p[0]}"),
    "two points, first line": (2, lambda p, v: f"{p[0]} {p[1]}"),
    "tabs": (6, lambda p, v: "\t".join(p)),
    "comment after a row": (5, lambda p, v: " ".join(p) + " # a line"),
}
FILE_EDITS = {
    "too few rows": lambda text: text.rsplit("\n", 2)[0] + "\n",
    "too many rows": lambda text: text + text.split("\n")[3] + "\n",
    "carriage returns": lambda text: text.replace("\n", "\r\n"),
    "no final newline": lambda text: text[:-1],
}
LINES = {case: line for case, _, line in CORPUS}


def edited(fmt: str, case: str) -> str:
    head, rows, bound, _ = FORMATS[fmt]
    rows = list(rows)
    if case in FILE_EDITS:
        return FILE_EDITS[case](head + "\n" + "".join(f"{r}\n" for r in rows))
    line, edit = ROW_EDITS[case]
    rows[line - 2] = edit(rows[line - 2].split(), bound)
    return head + "\n" + "".join(f"{r}\n" for r in rows)


@pytest.mark.parametrize("fmt, case", [(fmt, case) for fmt in FORMATS
                                       for case in [*ROW_EDITS, *FILE_EDITS]])
def test_every_reader_meets_the_corpus_alike(fmt, case):
    head, rows, _, read = FORMATS[fmt]
    text = edited(fmt, case)
    if LINES[case] is None:
        legal = head + "\n" + "".join(f"{r}\n" for r in rows)
        assert np.array_equal(read(text), read(legal))
    else:
        with pytest.raises(ParseError) as exc:
            read(text)
        assert exc.value.line_no == LINES[case]


def test_group_row_that_is_no_permutation_names_its_line():
    with pytest.raises(ParseError, match="^line 5: repeated point in a row$"):
        group_from_text("PERMGROUP degree=3 gens=2\n# c\n1 2 0\n\n0 0 1\n")


# -- one worker or two -------------------------------------------------------
# The reader and the writer run their chunks through ``chunkmap.chunk_map``;
# forced to 1 worker and to 2, with small chunks, they give the same bytes,
# tables and errors.

def test_write_gives_the_same_bytes_on_one_worker_or_two(tmp_path, monkeypatch,
                                                         one_and_two_workers):
    d = build_base_design(31, 3, wilson_base_block(31, 3)).design  # 155 rows
    path = tmp_path / "d.design"
    monkeypatch.setattr(textfile, "_WRITE_ROWS", 3)
    one, two = one_and_two_workers(lambda: (write_design(d, path, ["c"]), path.read_bytes()))
    assert one == two
    assert one == (hashlib.sha256(one[1]).hexdigest(), ("# c\n" + serialize(d)).encode())


def test_read_gives_the_same_tables_on_one_worker_or_two(monkeypatch, one_and_two_workers):
    d = build_base_design(31, 3, wilson_base_block(31, 3)).design
    texts = {fmt: head + "\n" + "".join(f"{r}\n" for r in rows)
             for fmt, (head, rows, _, _) in FORMATS.items()}
    monkeypatch.setattr(textfile, "_READ_BYTES", 16)
    for fmt, text in texts.items():
        one, two = one_and_two_workers(lambda: FORMATS[fmt][3](text).tobytes())
        assert one == two == FORMATS[fmt][3](texts[fmt]).tobytes()
    one, two = one_and_two_workers(lambda: read_text(serialize(d)).blocks.tobytes())
    assert one == two == d.blocks.tobytes()


def test_a_bad_line_in_a_batch_is_named_alike_on_one_worker_or_two(monkeypatch,
                                                                    one_and_two_workers):
    # rows of 12 bytes read 12 bytes at a time: on 2 workers a batch is two
    # lines, and line 3 is the second chunk of the first batch
    rows = [f"{100 + 3 * i} {101 + 3 * i} {102 + 3 * i}" for i in range(20)]
    monkeypatch.setattr(textfile, "_READ_BYTES", 12)
    for line in range(2, 22):
        bad = rows.copy()
        bad[line - 2] = bad[line - 2].replace(" 1", " x", 1)
        text = "DESIGN v=1000 k=3 b=20\n" + "".join(f"{r}\n" for r in bad)
        one, two = one_and_two_workers(lambda: read_text(text))
        assert one == two == (ParseError, f"line {line}: point is not an integer")


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_the_earlier_of_two_bad_pieces_is_named_whichever_is_made_first(monkeypatch, workers):
    # one 12-byte row a piece, and every even-numbered tokenizing held back,
    # so that on more workers the later bad piece is tokenized first
    rows = [f"{100 + 3 * i} {101 + 3 * i} {102 + 3 * i}" for i in range(12)]
    rows[2], rows[3] = rows[2].replace(" 1", " x", 1), rows[3].replace(" 1", " 9", 1)
    text = "DESIGN v=1000 k=3 b=12\n" + "".join(f"{r}\n" for r in rows)
    calls, tokens = itertools.count(), textfile._tokens

    def held_back(*args, **kwargs):
        if next(calls) % 2 == 0:
            time.sleep(0.01)
        return tokens(*args, **kwargs)

    monkeypatch.setattr(textfile, "_READ_BYTES", 12)
    monkeypatch.setattr(textfile, "_tokens", held_back)
    monkeypatch.setattr(chunkmap, "WORKERS", workers)
    with pytest.raises(ParseError, match="^line 4: point is not an integer$"):
        read_text(text)


@pytest.mark.parametrize("read_bytes", [7, 64])
def test_read_gives_the_same_tables_on_one_two_or_three_workers(monkeypatch, read_bytes):
    d = build_base_design(31, 3, wilson_base_block(31, 3)).design
    head, *rows = serialize(d).splitlines()
    text = "\n".join([head, *(f"{row}  # row {i}\n" if i % 5 == 0 else row
                              for i, row in enumerate(rows))]) + "\n"
    group = PermGroup(31, [Permutation(np.roll(np.arange(31), 1)), Permutation.identity(31)])
    monkeypatch.setattr(textfile, "_READ_BYTES", read_bytes)
    seen = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(chunkmap, "WORKERS", workers)
        back = group_from_text(group_to_text(group))
        seen.append([read_text(text).blocks.tobytes(),
                     *(g.images.tobytes() for g in back.generators)])
    assert seen[0] == seen[1] == seen[2]
    assert seen[0][0] == d.blocks.tobytes()
    assert back.generators == group.generators


def test_two_threads_writing_one_path_leave_one_whole_file(tmp_path, monkeypatch):
    path = tmp_path / "d.design"
    designs = [build_base_design(p, 3, wilson_base_block(p, 3)).design for p in (31, 43)]
    monkeypatch.setattr(textfile, "_WRITE_ROWS", 16)
    failures = []

    def write_often(d):
        try:
            for _ in range(30):
                write_design(d, path)
        except Exception as exc:
            failures.append(exc)

    threads = [threading.Thread(target=write_often, args=(d,)) for d in designs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # the two threads' writes interleave
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert read_design(path) in designs
    assert [p.name for p in tmp_path.iterdir()] == ["d.design"]


# -- where the bytes are cut -------------------------------------------------
# Read 1..64 bytes at a time, and at the default, every bad line falls at
# each offset of a chunk and of a batch; the verdict is the same at every
# cut, on 1 worker and on 2.

def design_table(text: str) -> np.ndarray:
    return textfile.read(io.BytesIO(text.encode()), "DESIGN", ("v", "k", "b"),
                         design_module._design_layout)[1]


@st.composite
def cut_cases(draw):
    """A corpus text, unedited or with one byte replaced, inserted or deleted."""
    text = draw(st.sampled_from([text for _, text, _ in CORPUS]))
    edit = draw(st.sampled_from(["none", "replace", "insert", "delete"]))
    at = draw(st.integers(0, max(len(text) - 1, 0)))
    byte = draw(st.sampled_from(" \n\t\r#x-+.0123456789"))
    if edit == "insert":
        text = text[:at] + byte + text[at:]
    elif edit != "none" and text:
        text = text[:at] + (byte if edit == "replace" else "") + text[at + 1:]
    return text


@HYPOTHESIS
@given(text=cut_cases())
def test_the_verdict_does_not_depend_on_where_the_bytes_are_cut(text):
    def outcome():
        try:
            return design_table(text).tobytes()
        except SteinerError as exc:
            return type(exc), str(exc)

    seen = set()
    with pytest.MonkeyPatch.context() as mp:
        for read_bytes in [*range(1, 65), textfile._READ_BYTES]:
            mp.setattr(textfile, "_READ_BYTES", read_bytes)
            for workers in (1, 2):
                mp.setattr(chunkmap, "WORKERS", workers)
                seen.add(repr(outcome()))
    assert len(seen) == 1, seen


# a line with two problems names the first of: not an integer, wrong width,
# out of range, repeated point, more rows than the header gives
TIES = [
    ("DESIGN", "23 30", "expected 3 points, got 2"),
    ("DESIGN", "x 23 24 25", "point is not an integer"),
    ("DESIGN", "23 23 31", "point index out of range"),
    ("PERMGROUP", "0 0", "expected 3 points, got 2"),
    ("PERMGROUP", "0 0 1 2", "expected 3 points, got 4"),
    ("PERMGROUP", "1 1 9", "point index out of range"),
]


@pytest.mark.parametrize("fmt, row, reason", TIES)
@pytest.mark.parametrize("read_bytes", [7, 1 << 20])
def test_a_line_with_two_problems_names_the_first_by_rank(monkeypatch, fmt, row, reason,
                                                          read_bytes):
    monkeypatch.setattr(textfile, "_READ_BYTES", read_bytes)
    if fmt == "DESIGN":
        read, text, line = read_text, with_row(9, row), 9
    else:
        read, text, line = group_from_text, f"PERMGROUP degree=3 gens=2\n1 2 0\n{row}\n", 3
    with pytest.raises(ParseError, match=f"^line {line}: {reason}$"):
        read(text)


@pytest.mark.parametrize("text, line", [
    (TEXT + "21 25\n", 14),
    ("DESIGN v=4 k=2 b=0\n\n0 1 2\n", 3),
], ids=["design", "no rows"])
def test_a_row_past_the_last_section_is_one_more_than_the_header_gives(text, line):
    with pytest.raises(ParseError, match=f"^line {line}: more rows than the header gives$"):
        read_text(text)
