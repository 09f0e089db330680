"""Canonical text encoding shared by every serializer.

Each line ends in one "\n", the last one too; no other character breaks
a line. One field per line as `name=value`. An integer field is its
str() and a float field its repr(), so floats round-trip bit-exactly;
the reader accepts a scalar only in exactly that text. A vector, bit
string or matrix reader is given the length or shape and accepts that
many entries only. Vectors are residues in [0, q) as ASCII decimals
split by single spaces, with no sign and no leading zero; bit strings
are ASCII 0s and 1s. A matrix field is `name=rows cols` and one line
per row of cols entries: residues below q (the key's A) or, for the
trapdoor's signed R, `0|-?[1-9][0-9]*`. Each is read as a read-only
int64 array. Files open with a versioned header line. No text over
MAX_TEXT_CHARS is parsed.
"""
from __future__ import annotations

import functools
import re

import numpy as np

from .zq import read_only

HEADER_KEY = "ntcf-key v1"
HEADER_SK = "ntcf-sk v1"
HEADER_TRANSCRIPT = "transcript v1"
MAX_TEXT_CHARS = 1 << 20  # over 500x the largest preset secret-key file


class FormatError(ValueError):
    """Malformed canonical text."""


# A vector line: ASCII decimals split by single spaces, no sign and no
# leading zero. At most 10 digits each (q < 2^31), so every value fits
# int64 before the range check. The trapdoor's R entries may add a minus.
_RESIDUE = r"(?:0|[1-9][0-9]{0,9})"
_SIGNED = r"(?:0|-?[1-9][0-9]{0,9})"
_BITS = re.compile("[01]*")


@functools.lru_cache(maxsize=32)
def _row_pattern(count: int, signed: bool) -> re.Pattern:
    """count residues, or signed entries, split by single spaces."""
    entry = _SIGNED if signed else _RESIDUE
    return re.compile(f"{entry}(?: {entry}){{{count - 1}}}" if count else "")


@functools.lru_cache(maxsize=32)
def _matrix_template(rows: int, cols: int) -> str:
    """All rows of a rows x cols matrix as one str.format template."""
    return "\n".join([" ".join(["{}"] * cols)] * rows)


@functools.lru_cache(maxsize=32)
def _matrix_pattern(name: str, rows: int, cols: int, signed: bool) -> re.Pattern:
    """The header `name=rows cols`, then rows lines of cols entries each."""
    row = "\n" + _row_pattern(cols, signed).pattern
    return re.compile(re.escape(f"{name}={rows} {cols}") + f"(?:{row}){{{rows}}}")


class LineWriter:
    def __init__(self, header: str | None = None):
        self.lines: list[str] = []
        if header is not None:
            self.lines.append(header)

    def field(self, name: str, value) -> None:
        self.lines.append(f"{name}={value}")

    def float_field(self, name: str, value: float) -> None:
        self.lines.append(f"{name}={float(value)!r}")

    def vector(self, name: str, vec: np.ndarray) -> None:
        values = vec.tolist()
        self.lines.append(f"{name}=" + _matrix_template(1, len(values)).format(*values))

    def matrix(self, name: str, mat: np.ndarray) -> None:
        rows, cols = mat.shape
        self.lines.append(f"{name}={rows} {cols}")
        if rows:
            self.lines.append(_matrix_template(rows, cols).format(*mat.ravel().tolist()))

    def bits(self, name: str, b: np.ndarray) -> None:
        self.lines.append(f"{name}=" + "".join(map(str, b.tolist())))

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


class LineReader:
    """Sequential reader; fields must appear in the order they are read."""

    def __init__(self, text: str, header: str | None = None):
        if len(text) > MAX_TEXT_CHARS:
            raise FormatError(f"input over the cap of {MAX_TEXT_CHARS} characters")
        if not text.endswith("\n"):
            raise FormatError("input does not end in a newline")
        self._lines = text[:-1].split("\n")
        self._pos = 0
        if header is not None:
            got = self.block(1)
            if got != header:
                raise FormatError(f"expected header {header!r}, got {got!r}")

    def block(self, count: int) -> str:
        """The next count lines, joined by newlines."""
        end = self._pos + count
        if end > len(self._lines):
            raise FormatError("unexpected end of input")
        text = "\n".join(self._lines[self._pos : end])
        self._pos = end
        return text

    def _value(self, name: str) -> str:
        line = self.block(1)
        prefix = name + "="
        if not line.startswith(prefix):
            raise FormatError(f"expected field {name!r}, got line {line!r}")
        return line[len(prefix) :]

    def field(self, name: str) -> str:
        return self._value(name)

    def int_field(self, name: str) -> int:
        """A canonical integer only: the text str() writes for it."""
        v = self._value(name)
        try:
            value = int(v)
            if str(value) == v:
                return value
        except ValueError:
            pass
        raise FormatError(f"field {name}: bad integer {v!r}")

    def float_field(self, name: str) -> float:
        """A canonical float only: the text repr() writes for it."""
        v = self._value(name)
        try:
            value = float(v)
            if repr(value) == v:
                return value
        except ValueError:
            pass
        raise FormatError(f"field {name}: bad float {v!r}")

    def vector(self, name: str, q: int, length: int) -> np.ndarray:
        """Exactly length canonical residues, each below q, as a read-only
        array."""
        text = self._value(name)
        # Tested first, it bounds the pattern's size.
        if length > len(text) or not _row_pattern(length, False).fullmatch(text):
            raise FormatError(f"field {name}: not {length} canonical residues")
        # Given no count, numpy's text parser over-allocates and shrinks
        # each result, which raised the desk-inproc peak RSS by ~0.7 MiB.
        values = np.fromstring(text, dtype=np.int64, count=length, sep=" ")
        if length and values.max() >= q:
            raise FormatError(f"field {name}: residue not below q={q}")
        return read_only(values)

    def matrix(self, name: str, rows: int, cols: int, q: int | None = None) -> np.ndarray:
        """The header `name=rows cols`, then rows lines of cols entries:
        residues below q given q, else signed (the trapdoor's R), as a
        read-only array."""
        text = self.block(rows + 1)
        too_wide = rows and cols > len(text)  # tested first, it bounds the pattern's size
        if too_wide or not _matrix_pattern(name, rows, cols, q is None).fullmatch(text):
            raise FormatError(f"matrix {name}: not {rows} x {cols} canonical entries")
        values = np.fromstring(text.partition("\n")[2], dtype=np.int64, count=rows * cols, sep=" ")
        if q is not None and values.size and values.max() >= q:
            raise FormatError(f"matrix {name}: residue not below q={q}")
        return read_only(values.reshape(rows, cols))

    def bits(self, name: str, length: int) -> np.ndarray:
        """Exactly length ASCII 0s and 1s, as a read-only 0/1 array."""
        v = self._value(name)
        if len(v) != length or _BITS.fullmatch(v) is None:
            raise FormatError(f"field {name}: not {length} bits")
        return read_only(np.frombuffer(v.encode(), dtype=np.uint8).astype(np.int64) - 48)

    def done(self) -> None:
        if self._pos != len(self._lines):
            raise FormatError(f"trailing content at line {self._pos + 1}")
