"""Hamming graph H(n, q): vertex indexing, neighbor iteration, colorings.

A vertex is the integer index v = sum(x_i * q**i) of its word (x_0, ..., x_{n-1});
position 0 is the least significant digit.  A Coloring is either an explicit
dense table over all q**n vertices or a symbolic composition node.  Every
node has one method, ``eval(idx)``, mapping an integer array of vertex
indices to their colors: ``evaluate`` passes one vertex in an object array,
so symbolic colorings stay exact past the materialization guard and past
int64, and ``materialize`` fills the table in blocks of indices, so its
memory is the table plus one block.  The guard bounds every table handed
out, explicit ones included.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import (InvalidPartitionError, NotSurjectiveError, OutOfRangeError,
                     TooLargeError, UnsupportedError)

DEFAULT_MATERIALIZE_GUARD = 1 << 26
GUARD_ENV_VAR = "PCOL_MATERIALIZE_GUARD"
# Vertex indices per eval call in materialize: bounds its int64 temporaries.
_MATERIALIZE_BLOCK = 1 << 20


def materialize_guard(override: int | None = None) -> int:
    """Effective cell guard: explicit override > environment > default."""
    if override is not None:
        return int(override)
    env = os.environ.get(GUARD_ENV_VAR)
    return int(env) if env else DEFAULT_MATERIALIZE_GUARD


def digits(v: int, n: int, q: int) -> tuple[int, ...]:
    """Base-q digits of a vertex index, least significant first."""
    if not 0 <= v < q**n:
        raise OutOfRangeError(f"vertex {v} not in [0, {q**n})")
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
    if not 0 <= v < q**n:
        raise OutOfRangeError(f"vertex {v} not in [0, {q**n})")
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
    out = np.zeros(idx.shape, dtype=idx.dtype)
    rest = idx
    place = 1
    for z in word:
        out += ((rest % q + sign * z) % q) * place
        rest = rest // q
        place *= q
    return out


def _color_counts(arr: np.ndarray, k: int) -> np.ndarray:
    """Cells of each color, counted in blocks: bincount casts to np.intp."""
    counts = np.zeros(k, dtype=np.int64)
    for lo in range(0, arr.size, _MATERIALIZE_BLOCK):
        counts += np.bincount(arr[lo:lo + _MATERIALIZE_BLOCK], minlength=k)
    return counts


def _require_surjective(arr: np.ndarray, k: int) -> None:
    missing = np.flatnonzero(_color_counts(arr, k) == 0)
    if missing.size:
        raise NotSurjectiveError(int(missing[0]))


def color_dtype(k: int):
    if k <= 256:
        return np.uint8
    if k <= 65536:
        return np.uint16
    raise UnsupportedError(f"more than 65536 colors not supported (k={k})")


class Coloring:
    """A surjection from the vertices of H(n, q) onto {0..k-1}.

    The body is either an explicit table or a symbolic composition node;
    evaluation is a pure function of the vertex index either way.  Instances
    are immutable after construction and safe to share across threads.
    """

    __slots__ = ("n", "q", "k", "body", "provenance")

    def __init__(self, n: int, q: int, k: int, body, provenance: str | None = None):
        self.n = n
        self.q = q
        self.k = k
        self.body = body
        self.provenance = provenance

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_table(values, q: int, k: int | None = None, *, validate: bool = True,
                   provenance: str | None = None) -> "Coloring":
        arr = np.asarray(values).reshape(-1)
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
        arr = arr.astype(color_dtype(k))
        if validate:
            _require_surjective(arr, k)
        arr.setflags(write=False)
        return Coloring(n, q, k, _TableBody(arr), provenance)

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
        members = tuple(members)
        M = len(members)
        q = members[0].q
        nb = members[0].n
        k = members[0].k
        if any(c.q != q or c.n != nb or c.k != k for c in members):
            raise OutOfRangeError("collection members must share (n, q, k)")
        if outer_coloring.n != M or outer_coloring.q != q or outer_coloring.k != M * q:
            raise OutOfRangeError(
                f"outer coloring must be an {M * q}-coloring of H({M},{q})")
        outer_tab = outer_coloring.materialize()
        return Coloring(q * nb + M, q, k, _OuterBody(members, outer_tab))

    @staticmethod
    def merged(base: "Coloring", grouping) -> "Coloring":
        """Recolor by group index; grouping must partition {0..base.k-1}."""
        groups = [tuple(int(c) for c in g) for g in grouping]
        seen = [c for g in groups for c in g]
        if sorted(seen) != list(range(base.k)):
            raise InvalidPartitionError(
                f"grouping {groups} is not a partition of 0..{base.k - 1}")
        k_new = len(groups)
        mapping = np.zeros(base.k, dtype=color_dtype(k_new))
        for gi, g in enumerate(groups):
            for c in g:
                mapping[c] = gi
        mapping.setflags(write=False)
        return Coloring(base.n, base.q, k_new, _MergeBody(base, mapping))

    @staticmethod
    def syndrome(m: int) -> "Coloring":
        """2**m-coloring of H(2**m - 1, 2) by syndrome (position p has column p+1)."""
        if m < 1:
            raise OutOfRangeError(f"m must be >= 1, got {m}")
        M = 1 << m
        return Coloring(M - 1, 2, M, _SyndromeBody(m))

    # -- evaluation ----------------------------------------------------

    def evaluate(self, v: int) -> int:
        if not 0 <= v < self.q**self.n:
            raise OutOfRangeError(f"vertex {v} not in [0, {self.q**self.n})")
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

    def materialize(self, guard: int | None = None) -> "Coloring":
        """Explicit-table copy of this coloring; verifies surjectivity.

        Raises TooLargeError past the guard, for explicit tables too.
        """
        cells = self.q**self.n
        limit = materialize_guard(guard)
        if cells > limit:
            raise TooLargeError(
                f"q**n = {cells} exceeds the materialization guard {limit}")
        if self.is_explicit:
            return self
        arr = np.empty(cells, dtype=color_dtype(self.k))
        for lo in range(0, cells, _MATERIALIZE_BLOCK):
            hi = min(lo + _MATERIALIZE_BLOCK, cells)
            arr[lo:hi] = self.body.eval(np.arange(lo, hi, dtype=np.int64))
        _require_surjective(arr, self.k)
        arr.setflags(write=False)
        return Coloring(self.n, self.q, self.k, _TableBody(arr), self.provenance)

    def with_provenance(self, provenance: str) -> "Coloring":
        return Coloring(self.n, self.q, self.k, self.body, provenance)

    def __repr__(self) -> str:
        kind = "explicit" if self.is_explicit else type(self.body).__name__.strip("_")
        return f"Coloring(n={self.n}, q={self.q}, k={self.k}, {kind})"


# -- body nodes --------------------------------------------------------
#
# eval(idx) maps an integer array of vertex indices (int64, or object for
# exact Python integers) to their colors.  Index arithmetic keeps idx.dtype;
# an index is cast to np.intp only once it has been reduced into a table.


class _TableBody:
    __slots__ = ("arr",)

    def __init__(self, arr: np.ndarray):
        self.arr = arr

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
    __slots__ = ("members", "outer")

    def __init__(self, members: tuple[Coloring, ...], outer: Coloring):
        self.members = members
        self.outer = outer

    def eval(self, idx):
        M = len(self.members)
        q, nb = self.members[0].q, self.members[0].n
        i, j = np.divmod(self.outer.table[(idx % q**M).astype(np.intp)], q)
        # Group j of the x-part starts at position M + j*nb.
        place = np.array([q**(M + t * nb) for t in range(q)], dtype=idx.dtype)
        window = idx // place[j] % q**nb
        if M * q**nb <= idx.size:
            # Tabulate each member once rather than re-evaluate it per index.
            tabs = np.stack([c.body.eval(np.arange(q**nb, dtype=np.int64))
                             for c in self.members])
            return tabs[i, window.astype(np.intp, copy=False)]
        out = np.empty(idx.shape, dtype=np.int64)
        for a in np.unique(i):
            sel = i == a
            out[sel] = self.members[a].body.eval(window[sel])
        return out


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

    @property
    def degree(self) -> int:
        return self.n * (self.q - 1)

    def row_sums(self) -> tuple[int, ...]:
        return tuple(sum(row) for row in self.entries)

    def as_lists(self) -> list[list[int]]:
        return [list(row) for row in self.entries]

    def __str__(self) -> str:
        return "[" + ", ".join("[" + ", ".join(map(str, r)) + "]" for r in self.entries) + "]"
