"""The matrix codec against the per-row writer and reader it replaced.

The references below are the earlier `LineWriter.matrix` and
`LineReader.matrix`, which wrote and read one row per line and took the
shape from the header. The one-template writers (matrix and vector)
must write the same bytes. The shape-known reader must accept a subset
of what the reference accepts, with the same array, and must accept
every input the reference reads at that shape whose entries are the
writer's text.
"""
import re

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ntcfk.serialize import FormatError, LineReader, LineWriter

Q = 7
SIGNED_MAX = 20
# Every character but "\n" that str.splitlines() also breaks a line at.
BREAK_CHARS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"

_REF_RESIDUES = re.compile(r"(?:(?:0|[1-9][0-9]{0,9})(?: (?:0|[1-9][0-9]{0,9}))*)?")


def ref_residues(text, q=None):
    if _REF_RESIDUES.fullmatch(text) is None:
        raise FormatError("bad residues")
    count = text.count(" ") + 1 if text else 0
    values = np.fromstring(text, dtype=np.int64, count=count, sep=" ")
    if q is not None and values.size and values.max() >= q:
        raise FormatError("residue not below q")
    return values


def ref_integers(text):
    try:
        return np.fromiter(map(int, text.split()), dtype=np.int64)
    except (ValueError, OverflowError) as exc:
        raise FormatError("bad integer") from exc


def ref_write(name, entries):
    """The per-row writer: the header, then each row joined on its own."""
    rows, cols = entries.shape
    return [f"{name}={rows} {cols}"] + [" ".join(map(str, row)) for row in entries.tolist()]


def ref_read(text, name, q):
    """The per-row reader, then the end of input: the array, or None
    where it raises FormatError. Signed when q is None."""
    lines, pos = text.splitlines(), 0

    def next_line():
        nonlocal pos
        if pos >= len(lines):
            raise FormatError("unexpected end of input")
        pos += 1
        return lines[pos - 1]

    try:
        head = next_line()
        if not head.startswith(name + "="):
            raise FormatError("wrong field")
        head = head[len(name) + 1:]
        head = ref_integers(head) if q is None else ref_residues(head)
        if len(head) != 2:
            raise FormatError("bad matrix header")
        rows, cols = head.tolist()
        if rows < 0 or cols < 0:
            raise FormatError("negative matrix size")
        got = []
        for _ in range(rows):
            got.append(next_line())
            if len(got[-1].split()) != cols:
                raise FormatError("wrong row length")
        body = " ".join(got)
        values = ref_integers(body) if q is None else ref_residues(body, q)
        if pos != len(lines):
            raise FormatError("trailing content")
        return values.reshape(rows, cols)
    except FormatError:
        return None


def new_read(text, name, rows, cols, q):
    try:
        r = LineReader(text)
        values = r.matrix(name, rows, cols, q)
        r.done()
        return values
    except FormatError:
        return None


def canonical(text, values, name):
    """Whether text is the writer's text of values, with the entries the
    signed grammar bounds to 10 digits."""
    return ("\n".join(ref_write(name, values)) + "\n" == text
            and bool(np.all(np.abs(values) < 10**10)))


@st.composite
def matrices(draw):
    rows, cols = draw(st.integers(0, 3)), draw(st.integers(1, 3))
    signed = draw(st.booleans())
    low, high = (-SIGNED_MAX, SIGNED_MAX) if signed else (0, Q - 1)
    values = draw(st.lists(st.integers(low, high), min_size=rows * cols,
                           max_size=rows * cols))
    return np.array(values, dtype=np.int64).reshape(rows, cols), signed


EDIT_TEXT = st.one_of(
    st.integers(-SIGNED_MAX, 2 * SIGNED_MAX).map(str),
    st.lists(st.integers(0, 2 * Q), max_size=4).map(lambda v: " ".join(map(str, v))),
    st.sampled_from(["-0", "+1", "01", "0_1", "\u0661", "1  2", " 1", "1 ", "1\t2", "M=1",
                     *BREAK_CHARS]),
    st.text(st.sampled_from("0123456789 -+" + BREAK_CHARS), max_size=5),
)


@given(matrices())
def test_writer_matches_reference(case):
    values, _signed = case
    w = LineWriter()
    w.matrix("M", values)
    assert w.text() == "\n".join(ref_write("M", values)) + "\n"
    for row in values:  # a vector line is one row's template
        w = LineWriter()
        w.vector("v", row)
        assert w.text() == "v=" + " ".join(map(str, row.tolist())) + "\n"


@given(matrices(), st.one_of(st.none(), st.tuples(st.integers(0, 4), st.integers(0, 3))),
       st.lists(st.tuples(st.integers(0, 4), st.sampled_from(["line", "insert", "delete", "append"]),
                          EDIT_TEXT), max_size=3))
@settings(max_examples=300)
def test_reader_matches_reference(case, header, edits):
    """Another header's shape, then line edits, on a written matrix."""
    values, signed = case
    rows, cols = values.shape
    q = None if signed else Q
    lines = ref_write("M", values)
    if header is not None:
        lines[0] = "M={} {}".format(*header)
    for at, op, text in edits:
        if op == "insert":
            lines.insert(at, text)
        elif at < len(lines) and op == "delete":
            del lines[at]
        elif at < len(lines) and op == "append":
            lines[at] += text
        elif at < len(lines):
            lines[at] = text
    text = "\n".join(lines) + "\n"
    ref, new = ref_read(text, "M", q), new_read(text, "M", rows, cols, q)
    if new is not None:
        assert ref is not None, "accepted what the reference rejects"
        assert np.array_equal(new, ref) and new.shape == (rows, cols)
    elif ref is not None and ref.shape == (rows, cols) and canonical(text, ref, "M"):
        raise AssertionError("rejected a canonical matrix the reference reads")
