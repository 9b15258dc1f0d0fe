"""PCOL coloring file formats.

Text:   line 1 ``PCOL 1``, line 2 ``q=<q> n=<n> k=<k>``, then q**n
whitespace-separated color values in vertex-index order.
Binary: line 1 ``PCOLB1``, the same header line, then one little-endian byte
per vertex (two when k > 256).  Both round-trip bit-exactly.  The reader
finds and parses the header once, and checks it against the materialization
guard before it reads the payload.

Text is written, and read when canonical (ASCII digits separated by
``\\t\\n\\v\\f\\r`` and space), with numpy byte operations over fixed-size
blocks.  Any other text file goes through the per-token loop, which reports
the line and column of a bad token.
"""
from __future__ import annotations

import io
import os
import re

import numpy as np

from .core import Coloring, color_dtype, materialize_guard
from .errors import (ColorOutOfRangeError, LengthMismatchError, ParseError,
                     TooLargeError)

TEXT_MAGIC = "PCOL 1"
BINARY_MAGIC = b"PCOLB1"
_VALUES_PER_LINE = 64
# Values per written block; a multiple of _VALUES_PER_LINE, so blocks end on line ends.
_WRITE_BLOCK = 1 << 18
# Payload bytes per parsed block, before the cut back to whitespace.
_PARSE_BLOCK = 1 << 20
# Longest token parsed by digit arithmetic: 10**18 - 1 still fits in int64.
_MAX_DIGITS = 18
_POW10 = 10 ** np.arange(_MAX_DIGITS, dtype=np.int64)
# Byte classes of the canonical payload: 0 whitespace, 1 digit, 2 anything else.
_BYTE_CLASS = np.full(256, 2, dtype=np.uint8)
_BYTE_CLASS[list(b"\t\n\v\f\r ")] = 0
_BYTE_CLASS[list(b"0123456789")] = 1
# The ASCII line boundaries of str.splitlines, and the binary format's one.
_LINE_END = re.compile(rb"\r\n|[\n\r\v\f\x1c-\x1e]")
_BINARY_LINE_END = re.compile(rb"\n")


def _format_header(C: Coloring) -> str:
    return f"q={C.q} n={C.n} k={C.k}"


def _parse_header(line: str, lineno: int) -> tuple[int, int, int]:
    parts = line.split()
    if len(parts) != 3:
        raise ParseError(f"expected 'q=<q> n=<n> k=<k>', got {line!r}", line=lineno)
    out = []
    for part, key in zip(parts, ("q", "n", "k")):
        if not part.startswith(key + "="):
            raise ParseError(f"expected '{key}=<value>', got {part!r}", line=lineno)
        try:
            out.append(int(part[len(key) + 1:]))
        except ValueError:
            raise ParseError(f"non-integer value in {part!r}", line=lineno)
    q, n, k = out
    if q < 2 or n < 0 or k < 1:
        raise ParseError(f"invalid dimensions q={q} n={n} k={k}", line=lineno)
    color_dtype(k)  # raises UnsupportedError for k > 65536, before any payload is read
    return q, n, k


def _above(q: int, n: int, count: int) -> bool:
    # Past this bound q**n >= 2**(n*floor(log2 q)) exceeds count, and q**n,
    # which may have millions of digits, need not be computed.
    return n * (q.bit_length() - 1) > count.bit_length()


def _format_block(values: np.ndarray, labels: np.ndarray, widths: np.ndarray,
                  last: bool) -> np.ndarray:
    """ASCII bytes of whole lines of values: labels joined by spaces, 64 a line."""
    w = widths[values]
    ends = np.cumsum(w + 1)
    starts = ends - w - 1
    out = np.full(int(ends[-1]), ord(" "), dtype=np.uint8)
    out[ends[_VALUES_PER_LINE - 1::_VALUES_PER_LINE] - 1] = ord("\n")
    if last:
        out[-1] = ord("\n")
    for j in range(labels.shape[1]):
        at, digit = starts + j, labels[values, j]
        if j:
            longer = w > j
            at, digit = at[longer], digit[longer]
        out[at] = digit
    return out


def write_pcol(path, C: Coloring, *, binary: bool = False,
               guard: int | None = None) -> None:
    """Write a coloring; symbolic colorings are materialized first."""
    Cm = C.materialize(guard)
    header = _format_header(Cm)
    if binary:
        payload = Cm.table.astype("<u1" if Cm.k <= 256 else "<u2").tobytes()
        with open(path, "wb") as fh:
            fh.write(BINARY_MAGIC + b"\n")
            fh.write(header.encode("ascii") + b"\n")
            fh.write(payload)
        return
    labels = np.array([str(c) for c in range(Cm.k)], dtype=bytes)
    widths = np.char.str_len(labels)
    labels = labels.view(np.uint8).reshape(Cm.k, -1)
    table = Cm.table
    with open(path, "wb") as fh:
        fh.write(f"{TEXT_MAGIC}\n{header}\n".encode("ascii"))
        for lo in range(0, table.size, _WRITE_BLOCK):
            hi = min(lo + _WRITE_BLOCK, table.size)
            fh.write(_format_block(table[lo:hi], labels, widths, hi == table.size))


def _check_payload(arr: np.ndarray, q: int, n: int, k: int) -> Coloring:
    if _above(q, n, arr.size):
        raise LengthMismatchError(
            f"header q={q} n={n} asks for more than the {arr.size} values given")
    expected = q**n
    if arr.size != expected:
        raise LengthMismatchError(
            f"expected q**n = {expected} values, got {arr.size}")
    if arr.size and int(arr.max()) >= k:
        v = int(np.argmax(arr >= k))
        raise ColorOutOfRangeError(
            f"vertex {v} has color {int(arr[v])}, not below k={k}")
    # The table is this reader's own: read-only, from_table need not copy it.
    arr.setflags(write=False)
    return Coloring.from_table(arr, q, k)


def _parse_block_values(chunk: np.ndarray, digit: np.ndarray) -> np.ndarray | None:
    """Values of the digit tokens in a block that starts after whitespace.

    None when a token is longer than _MAX_DIGITS.
    """
    if not (digit[1:] & digit[:-1]).any():
        return chunk[digit] - ord("0")
    first = digit.copy()
    first[1:] &= ~digit[:-1]
    pos = np.flatnonzero(digit)
    starts = np.flatnonzero(first[pos])
    lens = np.diff(starts, append=pos.size)
    if lens.max() > _MAX_DIGITS:
        return None
    place = np.repeat(starts + lens, lens) - np.arange(1, pos.size + 1)
    return np.add.reduceat((chunk[pos] - ord("0")) * _POW10[place], starts)


def _parse_canonical_text(blob: bytes, offset: int, q: int, n: int, k: int):
    """(table, q, n, k) of a canonical text payload blob[offset:] with exactly
    q**n values below k.

    None for anything else, which the token loop then reads or rejects.
    """
    data = np.frombuffer(blob, dtype=np.uint8, offset=offset)
    # Every value but the last takes a digit and a separator.
    most = (data.size + 1) // 2
    if _above(q, n, most) or q**n > most:
        return None
    cells = q**n
    table = np.empty(cells, dtype=color_dtype(k))
    filled = start = 0
    while start < data.size:
        end = min(start + _PARSE_BLOCK, data.size)
        cls = _BYTE_CLASS[data[start:end]]
        if cls.max() > 1:
            return None
        if end < data.size and cls[-1] and _BYTE_CLASS[data[end]]:
            # A token runs past the block: end the block at its last whitespace.
            cut = cls.size - int(np.argmin(cls[::-1]))
            if cls[cut - 1]:
                return None
            cls, end = cls[:cut], start + cut
        values = _parse_block_values(data[start:end], cls.view(np.bool_))
        if values is None or filled + values.size > cells:
            return None
        if values.size and int(values.max()) >= k:
            return None
        table[filled:filled + values.size] = values
        filled += values.size
        start = end
    if filled != cells:
        return None
    return table, q, n, k


def _parse_text_tokens(blob: bytes):
    """(values, q, n, k) of any text file, token by token; raises on bad input."""
    try:
        text = blob.decode("ascii")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not an ASCII PCOL file: {exc}", line=1)
    lines = text.splitlines()
    if not lines or lines[0].strip() != TEXT_MAGIC:
        raise ParseError(f"missing magic {TEXT_MAGIC!r}", line=1)
    if len(lines) < 2:
        raise ParseError("missing header line", line=2)
    q, n, k = _parse_header(lines[1].strip(), 2)
    values = []
    for lineno, line in enumerate(lines[2:], start=3):
        col = 1
        for token in line.split():
            try:
                values.append(int(token))
            except ValueError:
                raise ParseError(f"non-integer token {token!r}", line=lineno,
                                 column=line.find(token, col - 1) + 1)
            col = line.find(token, col - 1) + len(token) + 1
    try:
        arr = np.array(values, dtype=np.int64)
    except OverflowError:
        v, value = next((v, x) for v, x in enumerate(values) if not 0 <= x < 2**63)
        raise ColorOutOfRangeError(
            f"vertex {v} has color {value}, not below k={k}" if value >= 0
            else f"vertex {v} has negative color {value}")
    if arr.size and arr.min() < 0:
        v = int(np.argmax(arr < 0))
        raise ColorOutOfRangeError(f"vertex {v} has negative color {int(arr[v])}")
    return arr, q, n, k


def _read_header(fh):
    """(binary, payload offset, (q, n, k) or None) of a file's two header lines.

    Reads on in _PARSE_BLOCK steps until the header lines end, and no
    further than one block past them.  A bad binary header raises; a text
    header that the canonical parser cannot take gives None, and the token
    loop then reports the fault.
    """
    buf = bytearray(fh.read(_PARSE_BLOCK))
    binary = buf.startswith(BINARY_MAGIC)
    line_end = _BINARY_LINE_END if binary else _LINE_END
    ends, pos, eof = [], 0, not buf
    while len(ends) < 2:
        m = line_end.search(buf, pos)
        # A lone "\r" at the end of what was read may begin a "\r\n".
        if m and (eof or m.end() < len(buf) or m.group() != b"\r"):
            ends.append(m)
            pos = m.end()
        elif eof:
            if binary:
                raise ParseError("truncated binary header", line=1)
            return False, 0, None
        else:
            pos = m.start() if m else len(buf)
            chunk = fh.read(_PARSE_BLOCK)
            eof = not chunk
            buf += chunk
    head = buf[ends[0].end():ends[1].start()]
    if binary:
        return True, ends[1].end(), _parse_header(head.decode("ascii", "replace"), 2)
    try:
        if buf[:ends[0].start()].decode("ascii").strip() == TEXT_MAGIC:
            return False, ends[1].end(), _parse_header(head.decode("ascii").strip(), 2)
    except (UnicodeDecodeError, ParseError):
        pass
    return False, 0, None


def read_pcol(path) -> Coloring:
    """Read either format back into an explicit coloring.

    A header whose q**n is above the materialization guard raises
    TooLargeError before the payload is read, when the payload is long
    enough to hold q**n values; a shorter one stays a LengthMismatchError.
    """
    with open(path, "rb") as raw:
        # A pipe cannot be reread, so it is read whole and then read as a file.
        fh = raw if raw.seekable() else io.BytesIO(raw.read())
        binary, offset, header = _read_header(fh)
        if header:
            q, n, k = header
            size = fh.seek(0, os.SEEK_END) - offset
            # One or two bytes a value in binary; in text a digit and a
            # separator a value, but the last.
            most = size // (1 if k <= 256 else 2) if binary else (size + 1) // 2
            limit = materialize_guard()
            if not _above(q, n, most) and limit < q**n <= most:
                raise TooLargeError(f"header q={q} n={n}: q**n = {q}**{n} exceeds "
                                    f"the materialization guard {limit}")
        fh.seek(0)
        blob = fh.read()
    if binary:
        itemsize = 1 if k <= 256 else 2
        size = len(blob) - offset
        if size % itemsize:
            raise LengthMismatchError(
                f"payload of {size} bytes is not a multiple of {itemsize}")
        arr = np.frombuffer(blob, dtype="<u1" if itemsize == 1 else "<u2", offset=offset)
        return _check_payload(arr, q, n, k)
    parsed = _parse_canonical_text(blob, offset, *header) if header else None
    return _check_payload(*(parsed or _parse_text_tokens(blob)))
