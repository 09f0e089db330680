"""Canonical text encoding shared by every serializer.

One field per line as `name=value`. An integer field is its str() and a
float field its repr(), so floats round-trip bit-exactly; the reader
accepts a scalar only in exactly that text. Vectors are residues in
[0, q) as ASCII decimals split by single spaces, with no sign and no
leading zero; the reader accepts nothing else.
A matrix field is `name=rows cols` followed by one row per line; a
matrix over Z_q (the key's A) takes the vector grammar in its header and
rows, while the trapdoor's signed R takes any integers. Files open with
a versioned header line.
"""
from __future__ import annotations

import re

import numpy as np

from .zq import BitString, Modulus, ZqMatrix, ZqVector

HEADER_KEY = "ntcf-key v1"
HEADER_SK = "ntcf-sk v1"
HEADER_TRANSCRIPT = "transcript v1"


class FormatError(ValueError):
    """Malformed canonical text."""


# A vector line: ASCII decimals split by single spaces, no sign and no
# leading zero. At most 10 digits each (q < 2^31), so every value fits
# int64 before the range check.
_RESIDUES = re.compile(r"(?:(?:0|[1-9][0-9]{0,9})(?: (?:0|[1-9][0-9]{0,9}))*)?")


def _residues(name: str, text: str, q: int | None = None) -> np.ndarray:
    """The values of a `_RESIDUES` line, each below q when q is given."""
    if _RESIDUES.fullmatch(text) is None:
        raise FormatError(f"field {name}: bad residues {text!r}")
    # The grammar is checked, so numpy's text parser reads every value.
    # Given no count it over-allocates and shrinks each result, which
    # raised the desk-inproc peak RSS by ~0.7 MiB.
    count = text.count(" ") + 1 if text else 0
    values = np.fromstring(text, dtype=np.int64, count=count, sep=" ")
    if q is not None and values.size and values.max() >= q:
        raise FormatError(f"field {name}: residue not below q={q}")
    return values


def _integers(name: str, text: str) -> np.ndarray:
    """Whitespace-separated integers of any sign."""
    try:
        return np.fromiter(map(int, text.split()), dtype=np.int64)
    except (ValueError, OverflowError) as exc:
        raise FormatError(f"field {name}: bad integer") from exc


class LineWriter:
    def __init__(self, header: str | None = None):
        self.lines: list[str] = []
        if header is not None:
            self.lines.append(header)

    def field(self, name: str, value) -> None:
        self.lines.append(f"{name}={value}")

    def float_field(self, name: str, value: float) -> None:
        self.lines.append(f"{name}={float(value)!r}")

    def vector(self, name: str, vec) -> None:
        entries = vec.entries if isinstance(vec, ZqVector) else vec
        values = np.asarray(entries, dtype=np.int64).tolist()
        self.lines.append(f"{name}=" + " ".join(map(str, values)))

    def matrix(self, name: str, mat) -> None:
        entries = mat.entries if isinstance(mat, ZqMatrix) else mat
        entries = np.asarray(entries, dtype=np.int64)
        rows, cols = entries.shape
        self.lines.append(f"{name}={rows} {cols}")
        self.lines.extend(" ".join(map(str, row)) for row in entries.tolist())

    def bits(self, name: str, b: BitString) -> None:
        self.lines.append(f"{name}=" + "".join(str(v) for v in b.bits))

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


class LineReader:
    """Sequential reader; fields must appear in the order they are read."""

    def __init__(self, text: str, header: str | None = None):
        self._lines = text.splitlines()
        self._pos = 0
        if header is not None:
            got = self._next_line()
            if got != header:
                raise FormatError(f"expected header {header!r}, got {got!r}")

    def _next_line(self) -> str:
        if self._pos >= len(self._lines):
            raise FormatError("unexpected end of input")
        line = self._lines[self._pos]
        self._pos += 1
        return line

    def _value(self, name: str) -> str:
        line = self._next_line()
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

    def vector(self, name: str, modulus: Modulus) -> ZqVector:
        """Canonical residues only: see `_RESIDUES`, and each below q."""
        return ZqVector(_residues(name, self._value(name), modulus.q), modulus)

    def matrix(self, name: str, modulus: Modulus | None = None) -> np.ndarray:
        """A `rows cols` header, then one line per row. With a modulus the
        header and the rows take the vector grammar and every entry is a
        residue below q; without one, entries are any integers (the signed
        trapdoor R). The array is built from the rows actually read, never
        sized from the header alone."""
        signed = modulus is None
        head = (_integers if signed else _residues)(name, self._value(name))
        if len(head) != 2:
            raise FormatError(f"field {name}: bad matrix header {head.tolist()!r}")
        rows, cols = head.tolist()
        if rows < 0 or cols < 0:
            raise FormatError(f"field {name}: negative matrix size {rows} x {cols}")
        lines = []
        for i in range(rows):
            lines.append(self._next_line())
            got = len(lines[-1].split())
            if got != cols:
                raise FormatError(f"matrix {name}: row {i} has {got} entries")
        text = " ".join(lines)
        values = _integers(name, text) if signed else _residues(name, text, modulus.q)
        return values.reshape(rows, cols)

    def bits(self, name: str) -> BitString:
        v = self._value(name)
        if any(c not in "01" for c in v):
            raise FormatError(f"field {name}: bad bit string {v!r}")
        return BitString(tuple(int(c) for c in v))

    def done(self) -> None:
        if self._pos != len(self._lines):
            raise FormatError(f"trailing content at line {self._pos + 1}")
