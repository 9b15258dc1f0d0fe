"""PCOL coloring file formats.

Text:   line 1 ``PCOL 1``, line 2 ``q=<q> n=<n> k=<k>``, then q**n color
values in vertex-index order: runs of ASCII digits apart by the whitespace of
``str.split`` on ASCII (``\\t\\n\\v\\f\\r``, ``\\x1c``-``\\x1f``, space).
Binary: line 1 ``PCOLB1``, the same header line, then one little-endian byte
per vertex (two when k > 256).  Both round-trip bit-exactly.  The reader
parses the header once and holds it against the guard before the payload.

Text is written one fixed-width record a value, and read by one loop of
_PARSE_BLOCK bytes into the table.  A token of more than 19 digits is its
last 19 when every earlier one is 0, else 2**63 or more.  Of a text file's
faults the first of these is raised: a byte past ASCII, a bad magic or
header line, the first bad token (signs and underscores are bad) at its line
and column, the first value of 2**63 or more, a count other than q**n, the
first color not below k.
"""
from __future__ import annotations

import io
import os
import re

import numpy as np

from .core import Coloring, color_dtype, materialize_guard
from .errors import (ColorOutOfRangeError, LengthMismatchError, ParseError,
                     TooLargeError, UnsupportedError)

TEXT_MAGIC = "PCOL 1"
BINARY_MAGIC = b"PCOLB1"
_VALUES_PER_LINE = 64
# Values per written block; a multiple of _VALUES_PER_LINE, so blocks end on line ends.
_WRITE_BLOCK = 1 << 18
# Payload bytes per read block.
_PARSE_BLOCK = 1 << 18
# Digit places summed per token: 10**19 - 1 still fits in uint64, so a value
# of 2**63 or more is told from one below it.
_PLACES = 19
_POW10 = 10 ** np.arange(_PLACES, dtype=np.uint64)
# uint8 operands, so that the wrapping byte comparisons of the text reader do
# not depend on numpy's scalar promotion rules.
_ZERO, _TEN, _TAB, _FS, _FIVE = (np.uint8(c) for c in (48, 10, 9, 28, 5))
# The ASCII line boundaries of str.splitlines, and the binary format's one.
_LINE_END = re.compile(rb"\r\n|[\n\r\v\f\x1c-\x1e]")
_BINARY_LINE_END = re.compile(rb"\n")
_TOKEN = re.compile(rb"[^\t-\r\x1c- ]*")


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
    header = f"q={Cm.q} n={Cm.n} k={Cm.k}"
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


def _check_count(count: int, q: int, n: int) -> None:
    if _above(q, n, count):
        raise LengthMismatchError(
            f"header q={q} n={n} asks for more than the {count} values given")
    if count != q**n:
        raise LengthMismatchError(f"expected q**n = {q**n} values, got {count}")


def _check_payload(arr: np.ndarray, q: int, n: int, k: int) -> Coloring:
    _check_count(arr.size, q, n)
    if arr.size and int(arr.max()) >= k:
        v = int(np.argmax(arr >= k))
        raise ColorOutOfRangeError(
            f"vertex {v} has color {int(arr[v])}, not below k={k}")
    # The table is this reader's own: read-only, from_table need not copy it.
    arr.setflags(write=False)
    return Coloring.from_table(arr, q, k)


def _trailing(mask: np.ndarray) -> int:
    """Length of the run of True at the end of a bool array."""
    return mask.size if mask.all() else int(np.argmin(mask[::-1]))


def _token_values(chunk: np.ndarray, digit: np.ndarray, scratch: np.ndarray):
    """(values, token offsets) of digit tokens from the first byte to the last:
    one-digit tokens at every even offset into the uint8 buffer ``scratch``
    (offsets None), others in uint64 by one gather per digit place."""
    if digit[::2].all() and not digit[1::2].any():
        return np.subtract(chunk[::2], _ZERO, out=scratch[:(chunk.size + 1) // 2]), None
    # Each digit run starts and stops at a change of class.
    bounds = np.flatnonzero(np.diff(digit, prepend=False, append=False))
    starts, stops = bounds[::2], bounds[1::2]
    lens = stops - starts
    values = np.zeros(starts.size, dtype=np.uint64)
    for place in range(min(int(lens.max(initial=0)), _PLACES)):
        digits = chunk.take(stops - (place + 1), mode="wrap") - _ZERO
        values += np.multiply(digits, lens > place, out=digits) * _POW10[place:place + 1]
    if lens.max(initial=0) > _PLACES:
        # Past 2**63 unless every digit before the last 19 is 0.
        nonzero = np.concatenate(([0], np.cumsum(chunk > _ZERO)))
        long = np.flatnonzero(lens > _PLACES)
        values[long[nonzero[stops[long] - _PLACES] > nonzero[starts[long]]]] = 2**63
    return values, starts


def _token_error(fh, offset: int, start: int, vertex: int | None = None, k: int = 0):
    """The error of the token at file offset start: the color of vertex, not
    below k, or else a bad token, at its line and column from line 3 at offset."""
    fh.seek(start)
    text, size = "", 0
    while block := fh.read(_PARSE_BLOCK):
        token = _TOKEN.match(block).group()
        part = token.lstrip(b"0") if vertex is not None and not size else token
        text, size = text + part[:65 - len(text)].decode("ascii", "replace"), size + len(part)
        if len(token) < len(block):
            break
    if vertex is not None:
        shown = text if size <= 64 else f"{text[:20]}... ({size} characters)"
        return ColorOutOfRangeError(f"vertex {vertex} has color {shown}, not below k={k}")
    fh.seek(offset)
    line, head, prev = 3, offset, b""
    for pos in range(offset, start, _PARSE_BLOCK):
        block = fh.read(min(_PARSE_BLOCK, start - pos))
        ends = [m.end() for m in _LINE_END.finditer(block)]
        # A "\r\n" split by a block end is one line end.
        line += len(ends) - (prev == b"\r" and block[:1] == b"\n")
        head, prev = pos + ends[-1] if ends else head, block[-1:]
    shown = repr(text) if size <= 20 else f"{text[:20]!r}... ({size} characters)"
    return ParseError(f"non-integer token {shown}", line=line, column=start - head + 1)


def _read_text(fh, offset: int, most: int, q: int, n: int, k: int) -> Coloring:
    """The coloring of the text payload at file offset `offset`, of at most `most` values."""
    table = np.empty(0 if _above(q, n, most) or q**n > most else q**n, dtype=color_dtype(k))
    # One block after the digits carried from the one before, its digit class
    # and scratch bytes: shifted bytes, a class mask or one-digit values.
    buf = np.empty(_PARSE_BLOCK + _PLACES + 1, dtype=np.uint8)
    digit, scratch = np.empty(buf.size, dtype=np.bool_), np.empty_like(buf)
    # The (token offset, vertex) of the first color not below k and of 2**63 or
    # more; at and base are the file offsets of the carried token and of buf[carried].
    found, count, carried, got, at, base = [None, None], 0, 0, None, offset, offset
    while got != 0:
        got = fh.readinto(memoryview(buf)[carried:carried + _PARSE_BLOCK])
        chunk = buf[:carried + got]
        is_digit, shifted = digit[:chunk.size], scratch[:chunk.size]
        mask = shifted.view(np.bool_)
        np.less(np.subtract(chunk, _ZERO, out=shifted), _TEN, out=is_digit)
        classed = np.count_nonzero(is_digit)
        # Digits, "\t" to "\r" and "\x1c" to space are disjoint classes.
        for low in (_TAB, _FS):
            np.less(np.subtract(chunk, low, out=shifted), _FIVE, out=mask)
            classed += np.count_nonzero(mask)
        if classed < chunk.size:
            bad = int(np.argmin(is_digit | (chunk - _TAB < _FIVE) | (chunk - _FS < _FIVE)))
            start = bad - _trailing(is_digit[:bad])
            raise _token_error(fh, offset, at if start < carried else base - carried + start)
        # Until the end of the file, a last digit run may go on in the next block.
        cut = chunk.size - (_trailing(is_digit) if got and is_digit[-1] else 0)
        if cut:
            values, starts = _token_values(chunk[:cut], is_digit[:cut], scratch)
            table[count:count + values.size] = values[:max(table.size - count, 0)]
            top = int(values.max(initial=0))
            for i, bound in enumerate((k, 2**63)):
                if found[i] is None and top >= bound:
                    v = int(np.argmax(values >= bound))
                    s = 2 * v if starts is None else int(starts[v])
                    found[i] = at if s < carried else base - carried + s, count + v
            count += values.size
        at = at if cut < carried else base - carried + cut
        # A longer run keeps its last 19 digits, after a 1 if a digit before them is not 0.
        rest = chunk[cut:] if chunk.size - cut <= _PLACES + 1 else np.append(
            np.uint8(49 if (chunk[cut:-_PLACES] > _ZERO).any() else 48), chunk[-_PLACES:])
        buf[:rest.size], carried, base = rest, rest.size, base + got
    if found[1]:
        raise _token_error(fh, offset, *found[1], k)
    _check_count(count, q, n)
    if found[0]:
        raise _token_error(fh, offset, *found[0], k)
    table.setflags(write=False)
    return Coloring.from_table(table, q, k)


def _read_header(fh, binary: bool):
    """(payload offset, (q, n, k)) of a file's two header lines, read in
    _PARSE_BLOCK steps no further than one block past them; raises their faults."""
    fh.seek(0)
    buf = bytearray(fh.read(_PARSE_BLOCK))
    line_end = _BINARY_LINE_END if binary else _LINE_END
    ends, pos, eof = [], 0, not buf
    while len(ends) < 2:
        m = line_end.search(buf, pos)
        # A lone "\r" at the end of what was read may begin a "\r\n".
        if m and (eof or m.end() < len(buf) or m.group() != b"\r"):
            ends.append(m)
            pos = m.end()
        elif eof:
            break
        else:
            pos = m.start() if m else len(buf)
            buf.extend(chunk := fh.read(_PARSE_BLOCK))
            eof = not chunk
    if binary and len(ends) < 2:
        raise ParseError("truncated binary header", line=1)
    # Text lines are those of str.splitlines: the last may end at the end of the file.
    if not binary and buf[:ends[0].start() if ends else len(buf)].decode(
            "ascii", "replace").strip() != TEXT_MAGIC:
        raise ParseError(f"missing magic {TEXT_MAGIC!r}", line=1)
    if not ends or ends[0].end() == len(buf):
        raise ParseError("missing header line", line=2)
    stop, offset = (ends[1].start(), ends[1].end()) if len(ends) == 2 else (len(buf),) * 2
    head = buf[ends[0].end():stop].decode("ascii", "replace")
    return offset, _parse_header(head if binary else head.strip(), 2)


def read_pcol(path) -> Coloring:
    """Read either format back into an explicit coloring.

    A header whose q**n is above the materialization guard raises
    TooLargeError before the payload is read, when the payload is long
    enough to hold q**n values; a shorter one stays a LengthMismatchError.
    """
    with open(path, "rb") as raw:
        # A pipe cannot be sized or reread: it is buffered whole, then read as a file.
        fh = raw if raw.seekable() else io.BytesIO(raw.read())
        binary = fh.read(len(BINARY_MAGIC)) == BINARY_MAGIC
        try:
            offset, (q, n, k) = _read_header(fh, binary)
            size = fh.seek(0, os.SEEK_END) - offset
            # One or two bytes a value in binary; in text a digit and a
            # separator a value, but the last.
            most = size // (1 if k <= 256 else 2) if binary else (size + 1) // 2
            limit = materialize_guard()
            if not _above(q, n, most) and limit < q**n <= most:
                raise TooLargeError(f"header q={q} n={n}: q**n = {q}**{n} exceeds "
                                    f"the materialization guard {limit}")
            fh.seek(offset)
            if not binary:
                return _read_text(fh, offset, most, q, n, k)
            payload = fh.read()
        except (ParseError, UnsupportedError):
            # A byte past ASCII anywhere in a text file is its first fault.  The
            # faults found after a whole pass come from ASCII files.
            pos = fh.seek(0)
            while not binary and (block := fh.read(_PARSE_BLOCK)):
                if m := re.search(rb"[\x80-\xff]", block):
                    raise ParseError(f"not an ASCII PCOL file: 'ascii' codec can't decode byte "
                                     f"0x{block[m.start()]:02x} in position {pos + m.start()}: "
                                     "ordinal not in range(128)", line=1) from None
                pos += len(block)
            raise
    itemsize = 1 if k <= 256 else 2
    if size % itemsize:
        raise LengthMismatchError(f"payload of {size} bytes is not a multiple of {itemsize}")
    return _check_payload(np.frombuffer(payload, dtype="<u1" if itemsize == 1 else "<u2"), q, n, k)
