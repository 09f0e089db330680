"""Canonical text encoding shared by every serializer.

One field per line as `name=value`. Vectors are residues in [0, q) as
ASCII decimals split by single spaces, with no sign and no leading zero;
the reader accepts nothing else.
A matrix field is `name=rows cols` followed by one row per line. Floats
use repr() so they round-trip bit-exactly. Files open with a versioned
header line.
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
        v = self._value(name)
        try:
            return int(v)
        except ValueError as exc:
            raise FormatError(f"field {name}: bad integer {v!r}") from exc

    def float_field(self, name: str) -> float:
        v = self._value(name)
        try:
            return float(v)
        except ValueError as exc:
            raise FormatError(f"field {name}: bad float {v!r}") from exc

    def vector(self, name: str, modulus: Modulus) -> ZqVector:
        """Canonical residues only: see `_RESIDUES`, and each below q."""
        v = self._value(name)
        if _RESIDUES.fullmatch(v) is None:
            raise FormatError(f"field {name}: bad vector {v!r}")
        parts = v.split(" ") if v else []
        values = np.fromiter(map(int, parts), dtype=np.int64, count=len(parts))
        if parts and values.max() >= modulus.q:
            raise FormatError(f"field {name}: residue not below q={modulus.q}")
        return ZqVector(values, modulus)

    def matrix(self, name: str) -> np.ndarray:
        """A `rows cols` header, then one line per row. The array is built
        from the rows actually read, never sized from the header alone."""
        head = self._value(name).split()
        try:
            rows, cols = map(int, head)
        except ValueError as exc:
            raise FormatError(f"field {name}: bad matrix header {head!r}") from exc
        if rows < 0 or cols < 0:
            raise FormatError(f"field {name}: negative matrix size {rows} x {cols}")
        parts: list[str] = []
        for i in range(rows):
            row = self._next_line().split()
            if len(row) != cols:
                raise FormatError(f"matrix {name}: row {i} has {len(row)} entries")
            parts.extend(row)
        try:
            values = np.fromiter(map(int, parts), dtype=np.int64, count=len(parts))
        except (ValueError, OverflowError) as exc:
            raise FormatError(f"matrix {name}: bad entry") from exc
        return values.reshape(rows, cols)

    def bits(self, name: str) -> BitString:
        v = self._value(name)
        if any(c not in "01" for c in v):
            raise FormatError(f"field {name}: bad bit string {v!r}")
        return BitString(tuple(int(c) for c in v))

    def done(self) -> None:
        if self._pos != len(self._lines):
            raise FormatError(f"trailing content at line {self._pos + 1}")
