"""Character transforms over Z_q**n, function/coloring degrees, eigenspace checks.

Frequencies are indexed like vertices; the weight-w characters span the
eigenspace of H(n, q) for eigenvalue n(q-1) - q*w, so degree questions reduce
to the support of the transform.  Coefficients are exact: plain integers for
q = 2 (the Walsh-Hadamard spectrum, stored unnormalized, i.e. scaled by q**n)
and integer coordinate vectors in Z[x]/Phi_q(x) otherwise.

For q = 2 one tiled kernel serves the forward and the inverse transform.  It
writes into one new output array, int32 when q**n * max|value| < 2**31
(every color indicator up to 2**30 cells) and int64 otherwise.  Each
contiguous 2**16-cell tile takes all of its own digits, the lowest 7 on the
transposed tile; its first levels run in int16 for as long as no partial sum
can leave int16, then the tile widens and lands in the output.  The digits
above a tile follow in groups of at most 8, one pass over the output per
group, on column tiles that are gathered, transformed and scattered back.
Each pair of levels is one radix-4 step: eight additions or subtractions per
four cells.  The tile buffers are allocated once per call.

For q > 2 one group-ring kernel serves both directions.  In Z[x]/(x**q - 1)
a product with x**m only moves the q coordinates round m places, so a digit
step adds between two (q, q**n) buffers, int32 under the q = 2 bound and
int64 otherwise; the lowest digits, whose runs are short, go rotated to the
top.  x -> zeta is a ring homomorphism onto Z[x]/Phi_q, so one product with
the reduction matrix gives the int64 power-basis coefficients.  The alphabet
is treated as Z_q here even when a coloring was built from GF(q); the
eigenspaces do not depend on that choice.  ``CharacterSpectrum.support_weights``
is the one reader of a spectrum, one block of frequencies at a time;
``degree`` is its maximum.  The eigenspace check of a perfect coloring needs
no transform: its own quotient's spectrum is the union of the colors'
supports.  Past int64 both directions raise OutOfRangeError rather than wrap.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import Coloring, QuotientMatrix, materialize_guard
from .errors import OutOfRangeError, TooLargeError
from .verify import compute_quotient, graph_eigenvalue, quotient_spectrum


def _polydiv_exact(num: list[int], den: list[int]) -> list[int]:
    # den must be monic; remainder must vanish
    num = num[:]
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        out[i - dd] = c
        if c:
            for j in range(dd + 1):
                num[i - dd + j] -= c * den[j]
    if any(num[:dd]):
        raise AssertionError("non-zero remainder in cyclotomic division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(q: int) -> tuple[int, ...]:
    """Ascending integer coefficients of Phi_q."""
    if q < 1:
        raise OutOfRangeError(f"q must be positive, got {q}")
    poly = [-1] + [0] * (q - 1) + [1]
    for d in range(1, q):
        if q % d == 0:
            poly = _polydiv_exact(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


@lru_cache(maxsize=None)
def _reduction_matrix(q: int) -> np.ndarray:
    """(q, D) integer matrix; row j holds the coordinates of x**j in Z[x]/Phi_q."""
    phi = cyclotomic_polynomial(q)
    D = len(phi) - 1
    rows = np.zeros((q, D), dtype=np.int64)
    row = [0] * D
    row[0] = 1
    for j in range(q):
        rows[j] = row
        carry = row[D - 1]
        row = [0] + row[:-1]
        if carry:
            for i in range(D):
                row[i] -= carry * phi[i]
    rows.setflags(write=False)
    return rows


# The q = 2 kernel's tile of 2**_TILE_BITS cells (also the most cells of one
# degree block), the digits of a tile that run transposed, and the most
# higher digits one pass over the output takes; the q > 2 kernel's shortest
# run of contiguous cells in a digit step.
_TILE_BITS = 16
_LOW_BITS = 7
_GROUP_BITS = 8
_RUN = 64
# The odd modulus of the inverse transform's overflow check.
_CHECK_MODULUS = 2**31 - 1


def hamming_weights(n: int, q: int) -> np.ndarray:
    """Number of nonzero base-q digits of every index in [0, q**n)."""
    w = np.zeros(1, dtype=np.uint8)
    for _ in range(n):
        # a new most significant digit: 0 keeps the weight, the q-1 others add one
        w = np.concatenate([w] + [w + 1] * (q - 1))
    w.setflags(write=False)
    return w


@dataclass(frozen=True)
class CharacterSpectrum:
    """Exact transform coefficients, indexed by frequency word.

    For q = 2 ``coeffs`` has shape (q**n,) and dtype int32 when every
    coefficient fits, i.e. q**n * max|value| < 2**31, else int64; otherwise
    shape (q**n, D), int64, holding coordinates in the power basis of
    Z[x]/Phi_q(x).  Values carry the implicit 1/q**n normalization.
    """

    n: int
    q: int
    coeffs: np.ndarray

    def support_weights(self) -> np.ndarray:
        """Ascending frequency weights that carry a nonzero coefficient.

        Scans blocks of the q**d <= 2**_TILE_BITS frequencies that share their
        high digits: a frequency's weight is its block's high-digit weight
        plus the weight of its d low digits.  A block is skipped once every
        weight it could add has been found.
        """
        n, q = self.n, self.q
        d = 0
        while d < n and q ** (d + 1) <= 1 << _TILE_BITS:
            d += 1
        B = q**d
        low = hamming_weights(d, q)
        found = np.zeros(n + 1, dtype=bool)
        for b, high in enumerate(hamming_weights(n - d, q).tolist()):
            if found[high:high + d + 1].all():
                continue
            # Column by column: for q > 2, any(axis=1) over rows of D is slow.
            block = self.coeffs[b * B:(b + 1) * B].reshape(B, -1)
            nonzero = block[:, 0] != 0
            for column in block.T[1:]:
                nonzero |= column != 0
            if nonzero.any():
                found[high + low[nonzero]] = True
        return np.flatnonzero(found)


@dataclass(frozen=True)
class DegreeReport:
    per_color: tuple[int, ...]

    @property
    def degree(self) -> int:
        return max(self.per_color)


def _levels(steps: list, x: np.ndarray, y: np.ndarray, h: int, count: int):
    """Append the calls of `count` Walsh-Hadamard levels of spans h, 2h, ... on x.

    Each call is ``(function, u, v, o)``, built once so that the kernel makes
    no array view per tile.  Each pair of levels is one radix-4 step from x
    through the scratch y (same size and dtype) and back: eight additions or
    subtractions per four cells.  An odd last level goes from x to y.
    Returns the pair with the result first.
    """
    for _ in range(count // 2):
        a, b = x.reshape(-1, 2, 2, h), y.reshape(-1, 2, 2, h)
        steps += [(np.add, a[:, :, 0], a[:, :, 1], b[:, :, 0]),
                  (np.subtract, a[:, :, 0], a[:, :, 1], b[:, :, 1]),
                  (np.add, b[:, 0], b[:, 1], a[:, 0]),
                  (np.subtract, b[:, 0], b[:, 1], a[:, 1])]
        h *= 4
    if count % 2:
        a, b = x.reshape(-1, 2, h), y.reshape(-1, 2, h)
        steps += [(np.add, a[:, 0], a[:, 1], b[:, 0]), (np.subtract, a[:, 0], a[:, 1], b[:, 1])]
        x, y = y, x
    return x, y


def _walsh_hadamard(arr: np.ndarray, dtype, top: int) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform of a flat 2**n-cell array into a new dtype array.

    Exact when every coefficient fits dtype; top bounds |arr|.  Levels run in
    int16 while top * 2**L < 2**15 after L of them, so no partial sum wraps.
    """
    N = arr.size
    n = N.bit_length() - 1
    out = np.empty(N, dtype)
    tile_bits = min(n, _TILE_BITS)
    T = 1 << tile_bits
    low = min(tile_bits, _LOW_BITS)
    cols = T >> low
    front = 0
    while front < tile_bits and top << (front + 1) < 2**15:
        front += 1
    wide = np.empty(T, dtype), np.empty(T, dtype)
    narrow = (np.empty(T, np.int16), np.empty(T, np.int16)) if front else wide
    # One tile: its lowest digits on the transposed tile, where a level's span
    # is a run of contiguous cells, then the rest in natural order.
    steps = []
    x, y = _levels(steps, *narrow, cols, min(low, front))
    if front < low:
        if front:
            steps.append((np.copyto, wide[0], x, "same_kind"))
            x, y = wide
        x, y = _levels(steps, x, y, cols << front, low - front)
    steps.append((np.copyto, y.reshape(cols, 1 << low), x.reshape(1 << low, cols).T,
                  "same_kind"))
    x, y = _levels(steps, y, x, 1 << low, max(0, front - low))
    if x.dtype != out.dtype:
        steps.append((np.copyto, wide[0], x, "same_kind"))
        x, y = wide
    done = max(low, front)
    x, y = _levels(steps, x, y, 1 << done, tile_bits - done)
    load = narrow[0].reshape(1 << low, cols)
    tiles = arr.reshape(-1, cols, 1 << low).transpose(0, 2, 1)
    for i, tile in enumerate(out.reshape(-1, T)):
        np.copyto(load, tiles[i], casting="unsafe")
        for f, u, v, o in steps:
            f(u, v, o)
        np.copyto(tile, x)
    # The digits above a tile: one pass over the output per group of g, on
    # (2**g, w) column tiles that are gathered, transformed and scattered back.
    a = tile_bits
    while a < n:
        g = min(_GROUP_BITS, n - a)
        w = T >> g
        column = wide[0].reshape(1 << g, w)
        steps = []
        x, y = _levels(steps, column, wide[1].reshape(1 << g, w), w, g)
        for block in out.reshape(-1, 1 << g, (1 << a) // w, w):
            for c in range(block.shape[1]):
                view = block[:, c]
                np.copyto(column, view)
                for f, u, v, o in steps:
                    f(u, v, o)
                np.copyto(view, x)
        a += g
    return out


def _group_ring_step(a: np.ndarray, b: np.ndarray, sign: int) -> None:
    """b[:, :, t] = sum over s of x**(sign*s*t) * a[:, :, s], on (q, A, q, B) views."""
    q = a.shape[0]
    for t in range(q):
        o = b[:, :, t]
        np.copyto(o, a[:, :, 0])
        for s in range(1, q):
            m = sign * s * t % q
            np.add(o[m:], a[:q - m, :, s], out=o[m:])
            np.add(o[:m], a[q - m:, :, s], out=o[:m])


def _group_ring_transform(values: np.ndarray, n: int, q: int, sign: int, dtype) -> np.ndarray:
    """Transform of (q**n, D) coordinates in Z[x]/Phi_q (a flat table is coordinate 0).

    Exact when every coordinate in the group ring Z[x]/(x**q - 1) fits dtype;
    x -> zeta maps it onto Z[x]/Phi_q, taking x**j to row j of R.
    """
    N, R = q**n, _reduction_matrix(q)
    D = R.shape[1]
    x, y = np.zeros((q, N), dtype), np.empty((q, N), dtype)
    np.copyto(x[:D] if values.ndim == 2 else x[0], values.T, casting="unsafe")
    # Digits low.. first, then the low ones, whose runs of q**p cells are
    # short, rotated to the top; the second rotation restores the order.
    low = next(d for d in range(n + 1) if d == n or q**d >= _RUN)
    for k in (low, n - low):
        for p in range(k, n):
            _group_ring_step(x.reshape(q, -1, q, q**p), y.reshape(q, -1, q, q**p), sign)
            x, y = y, x
        np.copyto(y.reshape(q, q**k, -1), x.reshape(q, -1, q**k).transpose(0, 2, 1))
        x, y = y, x
    del y  # before the output; the product with R widens one slice at a time
    out = np.empty((N, D), np.int64)
    for i in range(0, N, 1 << _TILE_BITS):
        np.matmul(x[:, i:i + (1 << _TILE_BITS)].T, R, out=out[i:i + (1 << _TILE_BITS)])
    return out


def character_transform(values, n: int, q: int, *, guard: int | None = None) -> CharacterSpectrum:
    """Exact character transform of an integer-valued table over H(n, q)."""
    N = q**n
    limit = materialize_guard(guard)
    if N > limit:
        raise TooLargeError(f"q**n = {N} exceeds the guard {limit}")
    arr = np.asarray(values).reshape(-1)
    if arr.size != N:
        raise OutOfRangeError(f"expected {N} values, got {arr.size}")
    # Every stored coordinate is a sum of N values times entries of R (+-1
    # for q = 2), so it is at most N * max|v| * max|R| in magnitude; int64
    # arithmetic wraps mod 2**64, so a result below 2**63 is exact.  Python
    # ints, as np.abs wraps at the int64 minimum.
    top = max(-int(arr.min()), int(arr.max()))
    if N * top * int(np.abs(_reduction_matrix(q)).max()) >= 2**63:
        raise OutOfRangeError(f"values up to {top} on {N} cells overflow the int64 transform")
    # Either kernel sums +-values of disjoint cells, so int32 is exact below 2**31.
    dtype = np.int32 if N * top < 2**31 else np.int64
    if q == 2:
        return CharacterSpectrum(n, q, _walsh_hadamard(arr, dtype, top))
    return CharacterSpectrum(n, q, _group_ring_transform(arr, n, q, 1, dtype))


def inverse_transform(spectrum: CharacterSpectrum) -> np.ndarray:
    """Exact inverse; recovers the original integer table.

    int64 wraps mod 2**64, and each output N*f(x) is at most sum|c| * max|R|
    <= m * 2**63 with m = coeffs.size * max|R| < 2**31, so the int64 result
    is exact iff it agrees mod the odd P = _CHECK_MODULUS with an exact
    transform of c mod P (Chinese remainders); else OutOfRangeError.
    """
    n, q = spectrum.n, spectrum.q
    N = q**n
    c = spectrum.coeffs
    if c.size * int(np.abs(_reduction_matrix(q)).max()) >= 2**31:
        raise TooLargeError(f"{c.size} coefficients are too many for the exact inverse")

    def transform(values, top):
        if q == 2:
            return _walsh_hadamard(values, np.int64, top).reshape(N, 1)
        return _group_ring_transform(values, n, q, -1, np.int64)

    P = _CHECK_MODULUS
    back = transform(c, max(-int(c.min()), int(c.max())))
    if (back % P != transform(c % P, P - 1) % P).any():
        raise OutOfRangeError("the inverse transform overflows int64")
    if back[:, 1:].any() or (back[:, 0] % N).any():
        raise AssertionError("inverse transform is not integral")
    return back[:, 0] // N


def degree(values, n: int, q: int, *, guard: int | None = None) -> int:
    """Largest frequency weight with a nonzero coefficient; 0 for constants."""
    weights = character_transform(values, n, q, guard=guard).support_weights()
    return int(weights.max(initial=0))


def coloring_degree(C: Coloring, *, guard: int | None = None) -> DegreeReport:
    """Degree of each color's characteristic function."""
    Cm = C.materialize(guard)
    table = Cm.table
    per_color = tuple(degree(table == i, Cm.n, Cm.q, guard=guard)
                      for i in range(Cm.k))
    return DegreeReport(per_color)


def eigen_decomposition_check(C: Coloring, S, *, guard: int | None = None) -> bool:
    """Spectral mass of every color must sit on eigenvalues of S.

    True iff for every color the transform of its characteristic function is
    supported on weights w with n(q-1) - q*w an eigenvalue of S.  For a
    perfect C with quotient T and indicator matrix F, A F = F T gives
    P_lam F = F Pi_lam(T) for each spectral projector, and F has full column
    rank (every color is attained), so the colors' supports together are exactly spec T: one quotient
    replaces the k transforms.  Any other C takes the transforms.
    """
    Cm = C.materialize(guard)
    n, q = Cm.n, Cm.q
    allowed = set(quotient_spectrum(S, n, q))
    own = compute_quotient(Cm, guard=guard)
    if isinstance(own, QuotientMatrix):
        return set(quotient_spectrum(own)) <= allowed
    table = Cm.table
    for i in range(Cm.k):
        weights = character_transform(table == i, n, q, guard=guard).support_weights()
        if any(graph_eigenvalue(n, q, int(w)) not in allowed for w in weights):
            return False
    return True
