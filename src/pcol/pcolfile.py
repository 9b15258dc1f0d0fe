"""PCOL coloring file formats.

Text:   line 1 ``PCOL 1``, line 2 ``q=<q> n=<n> k=<k>``, then q**n
whitespace-separated color values in vertex-index order.
Binary: line 1 ``PCOLB1``, the same header line, then one little-endian byte
per vertex (two when k > 256).  Both round-trip bit-exactly.  The reader
finds and parses the header once, and checks it against the materialization
guard before it reads the payload.

Text is written one block at a time, one fixed-width record a value, and
read when canonical (ASCII digits separated by ``\\t\\n\\v\\f\\r`` and
space) in blocks classed by uint8 comparisons: one-digit tokens at every even
offset, as written for k <= 10, by one strided subtraction, others by place
value.  Any other text file goes through the per-token loop, which reports
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
# uint8 operands, so that the wrapping byte comparisons of the canonical
# parser do not depend on numpy's scalar promotion rules.
_ZERO, _TEN, _TAB, _FIVE, _SPACE = (np.uint8(c) for c in (48, 10, 9, 5, 32))
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


def write_pcol(path, C: Coloring, *, binary: bool = False) -> None:
    """Write a coloring; symbolic colorings are materialized first."""
    Cm = C.materialize()
    header = _format_header(Cm)
    if binary:
        # The table itself when it already has the file's dtype and layout.
        payload = np.ascontiguousarray(Cm.table, "<u1" if Cm.k <= 256 else "<u2")
        with open(path, "wb") as fh:
            fh.write(BINARY_MAGIC + b"\n")
            fh.write(header.encode("ascii") + b"\n")
            fh.write(payload)
        return
    width = len(str(Cm.k - 1)) + 1
    spaced, ended = (np.array([b"%d%s" % (c, sep) for c in range(Cm.k)], dtype=f"S{width}")
                     for sep in (b" ", b"\n"))
    table, step = Cm.table, _VALUES_PER_LINE
    out = np.empty(min(_WRITE_BLOCK, table.size), dtype=spaced.dtype)
    with open(path, "wb") as fh:
        fh.write(f"{TEXT_MAGIC}\n{header}\n".encode("ascii"))
        for lo in range(0, table.size, _WRITE_BLOCK):
            # One record a value: "c\n" at every 64th value and at the last.
            values = table[lo:lo + _WRITE_BLOCK]
            block = np.take(spaced, values, out=out[:values.size], mode="clip")
            block[step - 1::step] = ended[values[step - 1::step]]
            if lo + values.size == table.size:
                block[-1] = ended[values[-1]]
            text = block.view(np.uint8)
            # Labels of one width (k <= 10) leave no NUL padding in their records.
            fh.write(text if Cm.k <= 10 else text[text != 0])


def _check_payload(arr: np.ndarray, q: int, n: int, k: int) -> Coloring:
    if _above(q, n, arr.size):
        raise LengthMismatchError(
            f"header q={q} n={n} asks for more than the {arr.size} values given")
    if arr.size != q**n:
        raise LengthMismatchError(f"expected q**n = {q**n} values, got {arr.size}")
    if arr.size and int(arr.max()) >= k:
        v = int(np.argmax(arr >= k))
        raise ColorOutOfRangeError(
            f"vertex {v} has color {int(arr[v])}, not below k={k}")
    # The table is this reader's own: read-only, from_table need not copy it.
    arr.setflags(write=False)
    return Coloring.from_table(arr, q, k)


def _parse_block_values(chunk: np.ndarray, digit: np.ndarray,
                        scratch: np.ndarray) -> np.ndarray | None:
    """Values of the digit tokens in a block that starts on a token boundary.

    One-digit tokens at every even offset (every odd byte is then whitespace)
    are read into the uint8 buffer ``scratch``.  None past _MAX_DIGITS digits.
    """
    if digit[::2].all() and not digit[1::2].any():
        return np.subtract(chunk[::2], _ZERO, out=scratch[:(chunk.size + 1) // 2])
    first = digit.copy()
    first[1:] &= ~digit[:-1]
    pos = np.flatnonzero(digit)
    starts = np.flatnonzero(first[pos])
    lens = np.diff(starts, append=pos.size)
    if lens.max(initial=0) > _MAX_DIGITS:
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
    # Block buffers: the digit class, and shifted bytes, a class mask or values.
    digit = np.empty(min(_PARSE_BLOCK, data.size), dtype=np.bool_)
    scratch = np.empty(digit.size, dtype=np.uint8)
    filled = start = 0
    while start < data.size:
        end = min(start + _PARSE_BLOCK, data.size)
        chunk, is_digit, shifted = data[start:end], digit[:end - start], scratch[:end - start]
        mask = shifted.view(np.bool_)
        np.less(np.subtract(chunk, _ZERO, out=shifted), _TEN, out=is_digit)
        # Digits, "\t" to "\r" and space are disjoint classes: a byte outside
        # them leaves the counts short of the block.
        classed = np.count_nonzero(is_digit) + np.count_nonzero(np.equal(chunk, _SPACE, out=mask))
        np.less(np.subtract(chunk, _TAB, out=shifted), _FIVE, out=mask)
        if classed + np.count_nonzero(mask) < chunk.size:
            return None
        if end < data.size and is_digit[-1] and 48 <= data[end] <= 57:
            # A token runs past the block: end the block at its last whitespace.
            cut = chunk.size - int(np.argmin(is_digit[::-1]))
            if is_digit[cut - 1]:
                return None
            chunk, is_digit, end = chunk[:cut], is_digit[:cut], start + cut
        values = _parse_block_values(chunk, is_digit, scratch)
        if (values is None or filled + values.size > cells
                or values.size and int(values.max()) >= k):
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
    # int() refuses more than 4300 digits.  Leading zeros add nothing, and past
    # 64 digits a color is out of range anyway: such a value is kept as text.
    values, huge = [], {}
    for lineno, line in enumerate(lines[2:], start=3):
        col = 1
        for token in line.split():
            digits = (token.lstrip("0") or "0") if token.isdigit() else token
            if len(digits) > 64 and digits.isdigit():
                huge[len(values)] = digits
            try:
                values.append(2**63 if len(values) in huge else int(digits))
            except ValueError:
                shown = (repr(token) if len(token) <= 20
                         else f"{token[:20]!r}... ({len(token)} characters)")
                raise ParseError(f"non-integer token {shown}", line=lineno,
                                 column=line.find(token, col - 1) + 1)
            col = line.find(token, col - 1) + len(token) + 1
    try:
        arr = np.array(values, dtype=np.int64)
    except OverflowError:
        v, value = next((v, x) for v, x in enumerate(values) if not 0 <= x < 2**63)
        shown = huge.get(v, str(value))
        if len(shown) > 64:
            shown = f"{shown[:20]}... ({len(shown)} characters)"
        raise ColorOutOfRangeError(
            f"vertex {v} has color {shown}, not below k={k}" if value >= 0
            else f"vertex {v} has negative color {shown}")
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
