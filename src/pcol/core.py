"""Hamming graph H(n, q): vertex indexing, neighbor iteration, colorings.

A vertex is the integer index v = sum(x_i * q**i) of its word (x_0, ..., x_{n-1});
position 0 is the least significant digit.  A Coloring is either an explicit
dense table over all q**n vertices or a symbolic composition node.  Every
node has ``eval(idx)``, mapping an integer array of vertex indices to their
colors: ``evaluate`` passes one vertex in an object array, so symbolic
colorings stay exact past the guard and past int64.  A table costs one block
more: an outer node is written from its window tables by broadcast sums, any
other node by ``eval`` blocks.  The guard, ``PCOL_MATERIALIZE_GUARD``
or 2**26 cells, is read where a table is allocated and bounds every table
handed out, explicit ones included; no node materializes a child.

A coloring has at most 65536 colors.  ``from_table`` and ``materialize``
check that a table attains all k colors with one scan, ``_first_vertices``,
whose first vertices ``compute_quotient`` reads its rows at.  Provenance
lives in a collection's manifest, not on a coloring.
"""
from __future__ import annotations

import operator
import os
from dataclasses import dataclass

import numpy as np

from .errors import (InvalidPartitionError, NotSurjectiveError, OutOfRangeError,
                     TooLargeError, UnsupportedError)

DEFAULT_MATERIALIZE_GUARD = 1 << 26
GUARD_ENV_VAR = "PCOL_MATERIALIZE_GUARD"
# Vertex indices per eval call in materialize: bounds its int64 temporaries.
_MATERIALIZE_BLOCK = 1 << 20
# Up to this k, k - 1 compares per block beat a bincount, which casts it to np.intp:
# 0.7 vs 11 ms at k = 2 on 2**22 uint8 cells (2-vCPU Xeon), even near k = 12 to 16.
_FEW_COLORS = 8


def materialize_guard() -> int:
    """The cell guard: the environment variable (an integer >= 0), else the default."""
    env = os.environ.get(GUARD_ENV_VAR)
    try:
        limit = int(env) if env else DEFAULT_MATERIALIZE_GUARD
    except ValueError:
        limit = -1
    if limit < 0:
        raise OutOfRangeError(f"{GUARD_ENV_VAR} must be a nonnegative integer, got {env!r}")
    return limit


def _check_vertex(v: int, n: int, q: int) -> None:
    """OutOfRangeError unless 0 <= v < q**n, in one short line whatever v and n."""
    if not 0 <= v < q**n:
        bits = int(v).bit_length()
        shown = v if bits <= 64 else f"{'-' * (v < 0)}<{bits} bits>"
        raise OutOfRangeError(f"vertex {shown} not in [0, {q}**{n})")


def digits(v: int, n: int, q: int) -> tuple[int, ...]:
    """Base-q digits of a vertex index, least significant first."""
    _check_vertex(v, n, q)
    out = []
    for _ in range(n):
        out.append(v % q)
        v //= q
    return tuple(out)


def vertex_index(word, q: int) -> int:
    """Inverse of digits()."""
    v = 0
    for i, x in enumerate(word):
        if not 0 <= x < q:
            raise OutOfRangeError(f"digit {x} not in [0, {q})")
        v += x * q**i
    return v


def neighbors(v: int, n: int, q: int) -> list[int]:
    """The n*(q-1) neighbors of v: position-major, replacement digit ascending."""
    _check_vertex(v, n, q)
    out = []
    place = 1
    rest = v
    for _ in range(n):
        d = rest % q
        rest //= q
        base = v - d * place
        for r in range(q):
            if r != d:
                out.append(base + r * place)
        place *= q
    return out


def _shifted_index(idx: np.ndarray, q: int, word, sign: int) -> np.ndarray:
    """Index of x + sign*word over Z_q**n, digit by digit, for every index x in idx."""
    if q == 2:  # x + z = x - z = x XOR z, digit by digit
        return idx ^ sum(int(z) << p for p, z in enumerate(word))
    out = np.zeros(idx.shape, dtype=idx.dtype)
    rest = idx
    place = 1
    for z in word:
        out += ((rest % q + sign * z) % q) * place
        rest = rest // q
        place *= q
    return out


def _color_counts(arr: np.ndarray, k: int) -> np.ndarray:
    """Cells of each color, counted in blocks; color 0 is the rest."""
    counts = np.zeros(k, dtype=np.int64)
    for lo in range(0, arr.size, _MATERIALIZE_BLOCK):
        blk = arr[lo:lo + _MATERIALIZE_BLOCK]
        counts[1:] += (np.bincount(blk, minlength=k)[1:] if k > _FEW_COLORS else
                       np.array([np.count_nonzero(blk == c) for c in range(1, k)], np.int64))
    counts[0] = arr.size - counts[1:].sum()
    return counts


def _first_vertices(arr: np.ndarray, k: int) -> np.ndarray:
    """The first cell of each color; raises for the lowest color arr misses.

    Slices double from 2**12 cells up to _MATERIALIZE_BLOCK, and a color is
    located inside the slice where it first appears, so each color costs
    about as many cells as were scanned before it.
    """
    first = np.full(k, -1, dtype=np.intp)
    lo, step = 0, 1 << 12
    while lo < arr.size:
        blk = arr[lo:lo + step]
        for c in np.flatnonzero((np.bincount(blk, minlength=k) > 0) & (first < 0)).tolist():
            first[c] = lo + np.argmax(blk == c)
        if (first >= 0).all():
            return first
        lo += step
        step = min(2 * step, _MATERIALIZE_BLOCK)
    raise NotSurjectiveError(int(np.argmax(first < 0)))


def _collection(colorings):
    """(members, n, q, k) of colorings that are not empty and share (n, q, k)."""
    members = tuple(colorings)
    if not members:
        raise OutOfRangeError("empty collection")
    n, q, k = members[0].n, members[0].q, members[0].k
    if any(c.n != n or c.q != q or c.k != k for c in members):
        raise OutOfRangeError("collection members must share (n, q, k)")
    return members, n, q, k


def color_dtype(k: int):
    if k <= 256:
        return np.uint8
    if k <= 65536:
        return np.uint16
    raise UnsupportedError(f"more than 65536 colors not supported (k={k})")


class Coloring:
    """A surjection from the vertices of H(n, q) onto {0..k-1}.

    The body is either an explicit table or a symbolic composition node;
    evaluation is a pure function of the vertex index either way.  Tables and
    nodes never change, so a body may remember what it computed from them (a
    quotient, member tables); instances are safe to share across threads.
    """

    __slots__ = ("n", "q", "k", "body")

    def __init__(self, n: int, q: int, k: int, body):
        color_dtype(k)  # refuse more colors than a table can hold
        self.n = n
        self.q = q
        self.k = k
        self.body = body

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_table(values, q: int, k: int | None = None) -> "Coloring":
        """Explicit coloring from a table of q**n colors; every color below k must occur."""
        arr = np.asarray(values).reshape(-1)
        if arr.dtype.kind not in "biu":
            raise OutOfRangeError(f"color table must hold integers, got dtype {arr.dtype}")
        # A Python int, so q**n never wraps as a numpy integer would.
        try:
            q = operator.index(q)
        except TypeError:
            raise OutOfRangeError(f"alphabet size q={q!r} is not an integer") from None
        if q < 2:
            raise OutOfRangeError(f"alphabet size q={q} is below 2")
        size = arr.size
        n = 0
        cells = 1
        while cells < size:
            cells *= q
            n += 1
        if cells != size:
            raise OutOfRangeError(f"table size {size} is not a power of q={q}")
        if size and int(arr.min()) < 0:
            raise OutOfRangeError("negative color value")
        top = int(arr.max()) if size else -1
        if k is None:
            k = top + 1
        if top >= k:
            raise OutOfRangeError(f"color {top} not below k={k}")
        # Taken as it is only if nothing can write to its memory: read-only
        # down the .base chain to None or bytes.  Anything else is copied.
        base = arr
        while isinstance(base, np.ndarray) and not base.flags.writeable:
            base = base.base
        arr = arr.astype(color_dtype(k), copy=base is not None and not isinstance(base, bytes))
        _first_vertices(arr, k)
        arr.setflags(write=False)
        return Coloring(n, q, k, _TableBody(arr))

    @staticmethod
    def translation(base: "Coloring", shift) -> "Coloring":
        """x -> base(x - shift), componentwise over Z_q."""
        if isinstance(shift, int):
            shift = digits(shift, base.n, base.q)
        shift = tuple(int(z) for z in shift)
        if len(shift) != base.n or any(not 0 <= z < base.q for z in shift):
            raise OutOfRangeError(f"shift {shift} is not a word of H({base.n},{base.q})")
        return Coloring(base.n, base.q, base.k, _TranslationBody(base, shift))

    @staticmethod
    def cylinder(base: "Coloring", n: int, offset: int) -> "Coloring":
        """Extend base to n coordinates; base reads positions [offset, offset+base.n)."""
        if offset < 0 or offset + base.n > n:
            raise OutOfRangeError(f"window [{offset}, {offset + base.n}) not inside [0, {n})")
        return Coloring(n, base.q, base.k, _CylinderBody(base, offset))

    @staticmethod
    def outer(members, outer_coloring: "Coloring") -> "Coloring":
        """F(y, x) = member[i](x^j) with q*i + j = outer(y).

        y occupies the first outer.n positions; the x-part splits into q groups
        of member length, group j starting at position outer.n + j*member.n.
        """
        members, nb, q, k = _collection(members)
        M = len(members)
        if outer_coloring.n != M or outer_coloring.q != q or outer_coloring.k != M * q:
            raise OutOfRangeError(
                f"outer coloring must be an {M * q}-coloring of H({M},{q})")
        return Coloring(q * nb + M, q, k, _OuterBody(members, outer_coloring))

    @staticmethod
    def merged(base: "Coloring", grouping) -> "Coloring":
        """Recolor by group index; grouping must partition {0..base.k-1} into nonempty groups."""
        groups = [np.asarray(g, dtype=np.int64) for g in grouping]
        sizes = [g.size for g in groups]
        seen = np.concatenate(groups or [np.zeros(0, np.int64)])
        if (seen.size != base.k or not all(sizes) or seen.min() < 0
                or not (np.bincount(seen, minlength=base.k) == 1).all()):
            raise InvalidPartitionError(
                f"grouping {[g.tolist() for g in groups]} is not a partition of 0..{base.k - 1}")
        mapping = np.zeros(base.k, dtype=color_dtype(len(groups)))
        mapping[seen] = np.repeat(np.arange(len(groups)), sizes)
        mapping.setflags(write=False)
        return Coloring(base.n, base.q, len(groups), _MergeBody(base, mapping))

    @staticmethod
    def syndrome(m: int) -> "Coloring":
        """2**m-coloring of H(2**m - 1, 2) by syndrome (position p has column p+1)."""
        if m < 1:
            raise OutOfRangeError(f"m must be >= 1, got {m}")
        M = 1 << m
        return Coloring(M - 1, 2, M, _SyndromeBody(m))

    # -- evaluation ----------------------------------------------------

    def evaluate(self, v: int) -> int:
        _check_vertex(v, self.n, self.q)
        # Object dtype keeps Python integers, exact for vertices past int64.
        return int(self.body.eval(np.array([int(v)], dtype=object))[0])

    @property
    def is_explicit(self) -> bool:
        return isinstance(self.body, _TableBody)

    @property
    def table(self) -> np.ndarray:
        if not self.is_explicit:
            raise TypeError("coloring is symbolic; materialize() it first")
        return self.body.arr

    def materialize(self) -> "Coloring":
        """Explicit-table copy of this coloring; verifies surjectivity.

        Raises TooLargeError past the guard, for explicit tables too.
        """
        cells = self.q**self.n
        limit = materialize_guard()
        if cells > limit:
            raise TooLargeError(
                f"q**n = {self.q}**{self.n} exceeds the materialization guard {limit}")
        if self.is_explicit:
            return self
        arr = _table(self)
        _first_vertices(arr, self.k)
        arr.setflags(write=False)
        return Coloring(self.n, self.q, self.k, _TableBody(arr))

    def __repr__(self) -> str:
        kind = "explicit" if self.is_explicit else type(self.body).__name__.strip("_")
        return f"Coloring(n={self.n}, q={self.q}, k={self.k}, {kind})"


# -- body nodes --------------------------------------------------------
#
# eval(idx) maps an integer array of vertex indices (int64, or object for
# exact Python integers) to their colors; whole tables come from _table, by an
# outer node's fill() or by _eval_blocks.  Index arithmetic keeps idx.dtype; an
# index is cast to np.intp only once reduced into a table.


class _TableBody:
    __slots__ = ("arr", "quotient")

    def __init__(self, arr: np.ndarray):
        self.arr = arr
        self.quotient = None  # compute_quotient's answer, once asked

    def eval(self, idx):
        return self.arr[idx.astype(np.intp, copy=False)]


class _TranslationBody:
    __slots__ = ("base", "shift")

    def __init__(self, base: Coloring, shift: tuple[int, ...]):
        self.base = base
        self.shift = shift

    def eval(self, idx):
        return self.base.body.eval(_shifted_index(idx, self.base.q, self.shift, -1))


class _CylinderBody:
    __slots__ = ("base", "offset")

    def __init__(self, base: Coloring, offset: int):
        self.base = base
        self.offset = offset

    def eval(self, idx):
        q = self.base.q
        return self.base.body.eval(idx // q**self.offset % q**self.base.n)


class _OuterBody:
    __slots__ = ("members", "outer", "tabs")

    def __init__(self, members: tuple[Coloring, ...], outer: Coloring):
        self.members = members
        self.outer = outer
        self.tabs = None

    def _tabs(self, known=None):
        """tabs[w, i] is member i at window w; built once, as the members never change."""
        if self.tabs is None:
            self.tabs = np.stack([_table(c, known) for c in self.members], axis=1)
        return self.tabs

    def fill(self, arr: np.ndarray) -> np.ndarray:
        """arr[x*q**M + y] = tabs[x^j, i], E(y) = q*i + j, x^j = digits j*nb .. (j+1)*nb - 1
        of x: the sum over j of A_j[x^j, y] = tabs[x^j, i(y)]*[j(y) = j] broadcast along
        the other windows, one block at a time, with windows q-2 .. 0 whole in it."""
        M, q, nb = len(self.members), self.members[0].q, self.members[0].n
        W, Q, a = q**nb, q**M, q if nb else 2  # with nb = 0, windows 1 .. q-1 share axis 1
        out = arr.reshape((W,) * a + (Q,))  # window s on axis a-1-s
        width = min(Q, max(1, _MATERIALIZE_BLOCK // max((q + 1) * W, W**(a - 1))))
        rows = max(1, _MATERIALIZE_BLOCK // (W**(a - 1) * width))
        for ya in range(0, Q, width):
            i, j = np.divmod(self.outer.body.eval(np.arange(ya, min(ya + width, Q))).astype(int), q)
            # A[s] along window s's axis of a block, window 0 next to the y.
            A = [(np.take(self._tabs(), i, axis=1) * (j == s if s < a - 1 else j >= s))
                 .reshape((W,) + (1,) * s + (-1,)) for s in range(a)]
            for lo in range(0, W, rows):
                blk = out[lo:lo + rows, ..., ya:ya + width]
                np.add(A[a - 1][lo:lo + rows], A[0], out=blk)
                for s in range(1, a - 1):
                    blk += A[s]
            del A
        return arr

    def eval(self, idx):
        M = len(self.members)
        q, nb = self.members[0].q, self.members[0].n
        # Group j of the x-part starts at position M + j*nb; E's colors are below M*q <= 65536.
        place = np.array([q**(M + t * nb) for t in range(q)], dtype=idx.dtype)
        i, j = np.divmod(self.outer.body.eval(idx % q**M).astype(np.intp, copy=False), q)
        window = idx // place[j] % q**nb
        out = np.empty(idx.shape, dtype=np.int64)
        for a in np.flatnonzero(np.bincount(i, minlength=M)):  # np.unique imports numpy.ma
            sel = i == a
            out[sel] = self.members[a].body.eval(window[sel])
        return out


def _eval_blocks(colorings):
    """(verts, vals) per block, in order: vals[c] holds coloring c's colors at verts."""
    N = colorings[0].q ** colorings[0].n
    for lo in range(0, N, _MATERIALIZE_BLOCK):
        hi = min(lo + _MATERIALIZE_BLOCK, N)
        yield range(lo, hi), [c.body.eval(np.arange(lo, hi, dtype=np.int64))
                              .astype(color_dtype(c.k), copy=False) for c in colorings]


def _window_block(colorings):
    """check_uniform's block for outer nodes over one E, else None: cell (w, e) is each
    node's member i at window word w, read where window j is w and E(y) = e = q*i + j,
    ordered by the first such vertex (other windows 0, E's first y)."""
    if not all(isinstance(c.body, _OuterBody) for c in colorings):
        return None
    known = {}  # each distinct member and E tabulated once
    Es = [_table(c.body.outer, known) for c in colorings]
    if not all(np.array_equal(E, Es[0]) for E in Es):
        return None
    tabs = [c.body._tabs(known) for c in colorings]
    (W, M), q = tabs[0].shape, colorings[0].q
    i, j = np.divmod(np.arange(q * M), q)
    verts = (np.arange(W)[:, None] * W**j * Es[0].size + _first_vertices(Es[0], q * M)).ravel()
    order = np.argsort(verts)
    return verts[order], [t[:, i].ravel()[order] for t in tabs]


def _table(C: Coloring, known=None) -> np.ndarray:
    """C's colors, by fill or eval blocks; known, if given, keeps them by id(C), made once."""
    if known is not None:
        return known[id(C)] if id(C) in known else known.setdefault(id(C), _table(C))
    if C.is_explicit:
        return C.table
    arr = np.empty(C.q**C.n, dtype=color_dtype(C.k))
    if isinstance(C.body, _OuterBody):
        return C.body.fill(arr)
    for verts, (vals,) in _eval_blocks([C]):
        arr[verts.start:verts.stop] = vals
        del vals  # before the walk makes the next block
    return arr


class _MergeBody:
    __slots__ = ("base", "mapping")

    def __init__(self, base: Coloring, mapping: np.ndarray):
        self.base = base
        self.mapping = mapping

    def eval(self, idx):
        return self.mapping[self.base.body.eval(idx).astype(np.intp, copy=False)]


class _SyndromeBody:
    __slots__ = ("m",)

    def __init__(self, m: int):
        self.m = m

    def eval(self, idx):
        syn = np.zeros(idx.shape, dtype=idx.dtype)
        for p in range((1 << self.m) - 1):
            syn ^= ((idx >> p) & 1) * (p + 1)
        return syn


@dataclass(frozen=True)
class QuotientMatrix:
    """k-by-k neighbor-count matrix of a perfect coloring of H(n, q)."""

    entries: tuple[tuple[int, ...], ...]
    n: int
    q: int

    def __post_init__(self):
        k = len(self.entries)
        for row in self.entries:
            if len(row) != k:
                raise OutOfRangeError("quotient matrix must be square")
            if any(e < 0 for e in row):
                raise OutOfRangeError("quotient entries must be nonnegative")

    @staticmethod
    def of(rows, n: int, q: int) -> "QuotientMatrix":
        return QuotientMatrix(tuple(tuple(int(e) for e in row) for row in rows), n, q)

    @property
    def k(self) -> int:
        return len(self.entries)

    def as_lists(self) -> list[list[int]]:
        return [list(row) for row in self.entries]

    def __str__(self) -> str:
        return "[" + ", ".join("[" + ", ".join(map(str, r)) + "]" for r in self.entries) + "]"
