"""Character transforms over Z_q**n, function/coloring degrees, eigenspace checks.

Frequencies are indexed like vertices; the weight-w characters span the
eigenspace of H(n, q) for eigenvalue n(q-1) - q*w, so degree questions reduce
to the support of the transform.  The transform here is exact and integer for
every q: the basis change L_q (x) ... (x) L_q, where L_q has row 0 all ones
and row s >= 1 equal to e_0 - e_s.  Row 0 vanishes on sum-zero vectors, rows
s >= 1 vanish on constants and together kill no nonzero sum-zero vector.  The
eigenspace part of a table that is sum-zero in the digits S and constant in
the others (Delsarte's Hamming scheme; Godsil & Royle, Algebraic Graph Theory,
ch. 9) thus maps one-to-one into the frequencies whose nonzero digits are S,
as under the characters: each frequency support set, and so each support
weight, is the character transform's.  For q = 2, L_2 = H_2 and the
coefficients are the exact Walsh-Hadamard spectrum, unnormalized (scaled by
2**n).  The eigenspaces are the graph's, so nothing depends on the group or
field a coloring was built from.

The kernel writes into one new output array, int32 when q**n * max|value| <
2**31 (every color indicator up to 2**30 cells) and int64 otherwise.  Every
entry of L_q**(x)g is 0 or +-1, so each partial sum adds +-values of distinct
cells, and in any order of summation it is an integer of magnitude at most
q**n * max|value|.  Below q = _DIRECT_Q the kernel multiplies by the blocks
L_q**(x)g, q**g <= 32, Sylvester's H_(2**g) for q = 2 (Fino & Algazi, IEEE
Trans. Comput. 1976): the products run in float32 while that bound is at most
2**24 and in float64 while it is at most 2**52, so no value is ever rounded;
tables past 2**52 are refused (an indicator reaches only q**n <= the default
guard, 2**26).  Each tile of at most 2**16 cells takes its own digits, then
the digits above it follow in groups of at most 2**8 rows, one pass over the
output per group; each tile is cast into a float buffer, multiplied and cast
back.  No product exceeds 2**18 multiply-adds, so OpenBLAS runs each on the
calling thread.  From q = _DIRECT_Q on, where a q x q block would cost q
multiply-adds per cell and digit, each digit is one sum and q - 1 differences
in the output's integer dtype.  ``CharacterSpectrum.support_weights`` is the
one reader of a spectrum, one block of frequencies at a time; ``degree`` is
its maximum.  The eigenspace check of a perfect coloring needs no transform:
its own quotient's spectrum is the union of the colors' supports.  Tables past
these bounds raise OutOfRangeError rather than wrap, and so do tables that do
not hold integers.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import Coloring, QuotientMatrix, _index, materialize_guard
from .errors import OutOfRangeError, TooLargeError
from .verify import compute_quotient, graph_eigenvalue, quotient_spectrum


# The kernel's tile of at most 2**_TILE_BITS cells (also the most cells of one
# degree block), the most rows, 2**_GROUP_BITS, of one pass over the output
# above a tile, and the most multiply-adds m*n*k of one matrix product
# (OpenBLAS keeps a product this small on the calling thread).  From q =
# _DIRECT_Q on, a tile holds two digits or fewer and a digit is a sum and
# differences instead of q x q products: on a 2-vCPU VM the products take at
# most 1.4 ns per cell and digit up to q = 40, and 2.1-3.8 ns from q = 41,
# where the sum and differences take 0.9-1.5.
_TILE_BITS = 16
_GROUP_BITS = 8
_GEMM = 2**18
_DIRECT_Q = 41


def _fit(q: int, cells: int) -> int:
    """The most digits d with q**d <= cells."""
    d = 0
    while q ** (d + 1) <= cells:
        d += 1
    return d


@lru_cache(maxsize=None)
def _blocks(q: int, carrier: type) -> tuple[np.ndarray, np.ndarray]:
    """L_q**(x)G, q**G the largest at most 32 (G >= 1), and its transpose,
    C-contiguous and read-only in the float carrier.  As L_q[0, 0] = 1, the
    top-left q**g square of each is L_q**(x)g or its transpose."""
    L = np.zeros((q, q), carrier)
    L[0] = L[:, 0] = 1
    L[range(1, q), range(1, q)] = -1
    block = L
    for _ in range(1, max(1, _fit(q, 32))):
        block = np.kron(block, L)
    pair = block, np.ascontiguousarray(block.T)
    for b in pair:
        b.setflags(write=False)
    return pair


# Every q = 2 call reads these.  Built at import, they are not allocated
# between a call's large arrays, where they left 0.2 MiB more peak RSS on
# H(24,2).
_blocks(2, np.float32)
_blocks(2, np.float64)


def hamming_weights(n: int, q: int) -> np.ndarray:
    """Number of nonzero base-q digits of every index in [0, q**n)."""
    w, digit = np.zeros(1, dtype=np.uint8), np.ones(q, dtype=np.uint8)
    digit[0] = 0
    for _ in range(n):
        # a new most significant digit: 0 keeps the weight, the q-1 others add one
        w = np.add.outer(digit, w).reshape(-1)
    w.setflags(write=False)
    return w


@dataclass(frozen=True)
class CharacterSpectrum:
    """Transform coefficients in the basis L_q (x) ... (x) L_q, indexed by
    frequency word; shape (q**n,).

    Exact integers, int32 when every one fits, i.e. q**n * max|value| <
    2**31, else int64.  For q = 2 they are the Walsh-Hadamard coefficients,
    carrying the implicit 1/q**n normalization.  For q > 2 they are not the
    character values, but the frequencies whose nonzero digits are a set S
    all carry zero exactly when the characters' do, so the support weights
    are exact.
    """

    n: int
    q: int
    coeffs: np.ndarray

    def support_weights(self) -> np.ndarray:
        """Ascending frequency weights that carry a nonzero coefficient.

        Scans blocks of the q**d <= 2**_TILE_BITS frequencies that share their
        high digits, or of one digit, d = 1, when q is larger: a frequency's
        weight is its block's high-digit weight plus the weight of its d low
        digits.  A block is skipped once every weight it could add has been
        found.
        """
        n, q = self.n, self.q
        d = min(n, max(1, _fit(q, 1 << _TILE_BITS)))
        B = q**d
        low = hamming_weights(d, q) if B <= 1 << _TILE_BITS else None
        found = np.zeros(n + 1, dtype=bool)
        for b, high in enumerate(hamming_weights(n - d, q).tolist()):
            if found[high:high + d + 1].all():
                continue
            block = self.coeffs[b * B:(b + 1) * B]
            if low is None:
                # One digit of q values, weight 0 at value 0 and 1 elsewhere.
                found[high] |= block[0] != 0
                found[high + 1] |= block[1:].any()
                continue
            nonzero = block != 0
            if nonzero.any():
                found[high + low[nonzero]] = True
        return np.flatnonzero(found)


@dataclass(frozen=True)
class DegreeReport:
    per_color: tuple[int, ...]

    @property
    def degree(self) -> int:
        return max(self.per_color)


def _products(x: np.ndarray, y: np.ndarray, q: int, lo: int, hi: int):
    """The np.matmul ``(a, b, out)`` calls that take digits lo..hi-1 of the flat float buffer x.

    Built once, on views from x through the scratch y (same size and dtype)
    and back, so that the kernel makes no array view per tile.  Digit 0 goes
    in a group of g digits, q**g <= 32, as (rows, q**g) @ L.T, each group
    above it, q**g <= 16, as L @ (q**g, w) columns, L = L_q**(x)g; a group
    takes one digit at least, and no product exceeds m*n*k = _GEMM.
    Returns the calls and the buffer that holds the result.
    """
    steps = []
    while lo < hi:
        g = min(max(1, _fit(q, 32 if lo == 0 else 16)), hi - lo)
        Q = q**g
        block, transposed = (b[:Q, :Q] for b in _blocks(q, x.dtype.type))
        most = _fit(q, _GEMM // Q**2)
        if lo == 0:
            rows = q ** min(_fit(q, x.size) - g, most)
            steps.append((x.reshape(-1, rows, Q), transposed, y.reshape(-1, rows, Q)))
        else:
            w = q ** min(lo, most)
            a, o = (b.reshape(-1, Q, q**lo // w, w).transpose(0, 2, 1, 3) for b in (x, y))
            steps.append((block, a, o))
        x, y = y, x
        lo += g
    return steps, x


def _tiled_transform(arr: np.ndarray, n: int, q: int, out: np.ndarray, carrier: type) -> None:
    """out = the transform of the flat table arr, by products with L_q**(x)g
    blocks in the float carrier, which must hold every partial sum exactly."""
    tile = min(n, _fit(q, 1 << _TILE_BITS))
    T = q**tile
    group = _fit(q, 1 << _GROUP_BITS)
    x, y = np.empty(T, carrier), np.empty(T, carrier)
    # Each contiguous tile first takes its own digits, then the digits above
    # a tile follow in groups, one pass over the output per group, on
    # (q**g, w) column tiles; each tile is cast into x, multiplied and cast
    # back.
    for a in [0, *range(tile, n, group)]:
        g, src = (tile, arr) if a == 0 else (min(group, n - a), out)
        w = T // q**g
        steps, done = _products(x, y, q, tile - g, tile)
        load, done = x.reshape(q**g, w), done.reshape(q**g, w)
        shape = (-1, q**g, q**a // w, w)
        for tiles, dest in zip(src.reshape(shape), out.reshape(shape)):
            for c in range(dest.shape[1]):
                np.copyto(load, tiles[:, c], casting="unsafe")
                for f, u, o in steps:
                    np.matmul(f, u, out=o)
                np.copyto(dest[:, c], done, casting="unsafe")


def _direct_transform(arr: np.ndarray, n: int, q: int, out: np.ndarray) -> None:
    """out = the transform of the flat table arr, one digit at a time in out's
    integer dtype: the sum along the digit, then cell 0 minus each other cell."""
    np.copyto(out, arr, casting="unsafe")
    for i in range(n):
        v = out.reshape(-1, q, q**i)
        total = v.sum(axis=1, dtype=out.dtype)
        np.subtract(v[:, :1], v[:, 1:], out=v[:, 1:])
        v[:, 0] = total


def character_transform(values, n: int, q: int) -> CharacterSpectrum:
    """Transform of an integer-valued table over H(n, q) in the basis
    L_q (x) ... (x) L_q (see CharacterSpectrum); exact while q**n *
    max|value| <= 2**52."""
    n, q = _index(n, "n"), _index(q, "alphabet size q")
    if q < 2:
        raise OutOfRangeError(f"alphabet size q={q} is below 2")
    N = q**n
    limit = materialize_guard()
    if N > limit:
        raise TooLargeError(f"q**n = {q}**{n} exceeds the guard {limit}")
    arr = np.asarray(values).reshape(-1)
    if arr.dtype.kind not in "biu":
        raise OutOfRangeError(f"values must be integers, got dtype {arr.dtype}")
    if arr.size != N:
        raise OutOfRangeError(f"expected {N} values, got {arr.size}")
    # Every coefficient, and every partial sum on the way, adds +-values of
    # distinct cells, so it is at most N * max|v| in magnitude.  Python ints,
    # as np.abs wraps at the int64 minimum.
    top = max(-int(arr.min()), int(arr.max()))
    if N * top > 2**52:
        raise OutOfRangeError(f"values up to {top} on {q}**{n} cells pass the float64 bound 2**52")
    out = np.empty(N, np.int32 if N * top < 2**31 else np.int64)
    if q >= _DIRECT_Q:
        _direct_transform(arr, n, q, out)
    else:
        _tiled_transform(arr, n, q, out, np.float32 if N * top <= 2**24 else np.float64)
    return CharacterSpectrum(n, q, out)


def degree(values, n: int, q: int) -> int:
    """Largest frequency weight with a nonzero coefficient; 0 for constants."""
    weights = character_transform(values, n, q).support_weights()
    return int(weights.max(initial=0))


def coloring_degree(C: Coloring) -> DegreeReport:
    """Degree of each color's characteristic function."""
    Cm = C.materialize()
    table = Cm.table
    per_color = tuple(degree(table == i, Cm.n, Cm.q) for i in range(Cm.k))
    return DegreeReport(per_color)


def eigen_decomposition_check(C: Coloring, S: QuotientMatrix) -> bool:
    """Spectral mass of every color must sit on eigenvalues of S.

    True iff for every color the transform of its characteristic function is
    supported on weights w with n(q-1) - q*w an eigenvalue of S.  For a
    perfect C with quotient T and indicator matrix F, A F = F T gives
    P_lam F = F Pi_lam(T) for each spectral projector, and F has full column
    rank (every color is attained), so the colors' supports together are exactly spec T: one
    quotient replaces the k transforms, and T = S needs no spectrum.  Any other C takes them.
    S must be a quotient of C's graph H(n, q); another is an OutOfRangeError.
    """
    n, q = C.n, C.q
    if (S.n, S.q) != (n, q):
        raise OutOfRangeError(f"S is a quotient of H({S.n}, {S.q}), not of H({n}, {q})")
    Cm = C.materialize()
    own = compute_quotient(Cm)
    if isinstance(own, QuotientMatrix):
        return own == S or set(quotient_spectrum(own)) <= set(quotient_spectrum(S))
    allowed = set(quotient_spectrum(S))
    table = Cm.table
    for i in range(Cm.k):
        weights = character_transform(table == i, n, q).support_weights()
        if any(graph_eigenvalue(n, q, int(w)) not in allowed for w in weights):
            return False
    return True
