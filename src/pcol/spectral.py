"""Character transforms over Z_q**n, function/coloring degrees, eigenspace checks.

Frequencies are indexed like vertices; the weight-w characters span the
eigenspace of H(n, q) for eigenvalue n(q-1) - q*w, so degree questions reduce
to the support of the transform.  For q = 2 it is the exact Walsh-Hadamard
spectrum, unnormalized (scaled by q**n).  For q > 2 each coefficient alpha(u)
in Z[zeta_q] is kept as its residue at zeta -> omega mod p, (p, omega) =
_split_prime(q) (Pollard, Math. Comp. 1971).  While 2 * q**n * max|f| < p the
norm of a nonzero alpha(u) is below p**phi(q), and p splits completely
(Washington, Cyclotomic Fields, Thm 2.13), so not every residue at the j*u,
j a unit mod q, vanishes; j*u has the weight of u: the weights are exact.

For q = 2 the kernel writes into one new output array, int32 when q**n *
max|value| < 2**31 (every color indicator up to 2**30 cells) and int64
otherwise, by products with Sylvester's H_(2**g) = H_2 (x) ... (x) H_2, g <= 5
(Fino & Algazi, IEEE Trans. Comput. 1976).  Each partial sum of a product
adds +-values of disjoint cells, so in any order of summation it is an
integer of magnitude at most q**n * max|value|: the products run in float32
while that is at most 2**24 and in float64 while it is at most 2**52, so no
value is ever rounded; tables past 2**52 are refused (an indicator reaches
only q**n <= the default guard, 2**26).  Each 2**16-cell tile takes its own
digits, then the digits above it follow in groups of up to 8, one pass over
the output per group; each tile is cast into a float buffer, multiplied and
cast back.  No product exceeds 2**18 multiply-adds, so OpenBLAS runs each on
the calling thread.

For q > 2 the kernel transforms in Z[x]/(x**q - 1), where a product with
x**m only moves the q coordinates round m places, so a digit step adds
between two int32 (q, q**n) buffers (every coordinate is below p/2 < 2**30);
the lowest digits, whose runs are short, go rotated to the top.  x -> omega
is a ring homomorphism onto Z/p, so one Horner evaluation of the q
coordinates mod p gives the int64 residues.  The alphabet is treated as Z_q
even when a coloring was built from GF(q); the eigenspaces do not depend on
that choice.  ``CharacterSpectrum.support_weights`` is the one reader of a
spectrum, one block of frequencies at a time; ``degree`` is its maximum.  The
eigenspace check of a perfect coloring needs no transform: its own
quotient's spectrum is the union of the colors' supports.  Tables past these
bounds raise OutOfRangeError rather than wrap, and so do tables that do not
hold integers.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import Coloring, QuotientMatrix, materialize_guard
from .errors import OutOfRangeError, TooLargeError
from .verify import _matrix_rows, compute_quotient, graph_eigenvalue, quotient_spectrum


def _is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin test, exact below 4,759,123,141 (bases 2, 7, 61)."""
    if m < 2 or m in (2, 7, 61):
        return m >= 2
    s = ((m - 1) & (1 - m)).bit_length() - 1  # m - 1 = d * 2**s with d odd
    d = (m - 1) >> s
    return all(pow(b, d, m) == 1 or m - 1 in [pow(b, d << r, m) for r in range(s)]
               for b in (2, 7, 61))


@lru_cache(maxsize=None)
def _split_prime(q: int) -> tuple[int, int]:
    """(p, omega): the largest prime p < 2**31 with p = 1 (mod q), and omega of order q mod p."""
    p = (2**31 - 2) // q * q + 1
    while p > q and not _is_prime(p):
        p -= q
    if p <= q:
        raise OutOfRangeError(f"no prime below 2**31 is 1 mod q = {q}")
    for g in range(2, p):
        # The order of w divides q, and it is no proper divisor q/r of q.
        w = pow(g, (p - 1) // q, p)
        if all(pow(w, q // r, p) != 1 for r in range(2, q + 1) if q % r == 0):
            return p, w


# The q = 2 kernel's tile of 2**_TILE_BITS cells (also the most cells of one
# degree block), the most higher digits one pass over the output takes, and
# the most multiply-adds m*n*k of one matrix product (OpenBLAS keeps a product
# this small on the calling thread); the q > 2 kernel's shortest run of
# contiguous cells in a digit step.
_TILE_BITS = 16
_GROUP_BITS = 8
_GEMM = 2**18
_RUN = 64

# H_32[u, x] = (-1)**popcount(u & x) in both float carriers; H_(2**g) is its
# top-left 2**g square.
_HADAMARD = {t: np.array([[(-1) ** bin(u & x).count("1") for x in range(32)] for u in range(32)], t)
             for t in (np.float32, np.float64)}


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
    """Transform coefficients, indexed by frequency word; shape (q**n,).

    For q = 2 the exact coefficients, int32 when every one fits, i.e. q**n *
    max|value| < 2**31, else int64.  For q > 2 int64 residues in [0, p) at
    zeta -> omega, (p, omega) = _split_prime(q).  A residue can vanish where
    the exact coefficient does not, but the set of support weights is exact.
    Values carry the implicit 1/q**n normalization.
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
            nonzero = self.coeffs[b * B:(b + 1) * B] != 0
            if nonzero.any():
                found[high + low[nonzero]] = True
        return np.flatnonzero(found)


@dataclass(frozen=True)
class DegreeReport:
    per_color: tuple[int, ...]

    @property
    def degree(self) -> int:
        return max(self.per_color)


def _products(x: np.ndarray, y: np.ndarray, lo: int, hi: int):
    """The np.matmul ``(a, b, out)`` calls that take digits lo..hi-1 of the flat float buffer x.

    Built once, on views from x through the scratch y (same size and dtype)
    and back, so that the kernel makes no array view per tile.  Digit 0 goes
    in a group of up to 5 as (rows, 2**g) @ H_(2**g), each group above it, of
    up to 4, as H_(2**g) @ (2**g, w) columns; no product exceeds m*n*k = _GEMM.
    Returns the calls and the buffer that holds the result.
    """
    steps = []
    while lo < hi:
        g = min(5 if lo == 0 else 4, hi - lo)
        h = _HADAMARD[x.dtype.type][:1 << g, :1 << g]
        if lo == 0:
            rows = min(x.size >> g, _GEMM >> 2 * g)
            steps.append((x.reshape(-1, rows, 1 << g), h, y.reshape(-1, rows, 1 << g)))
        else:
            w = min(1 << lo, _GEMM >> 2 * g)
            a, o = (b.reshape(-1, 1 << g, (1 << lo) // w, w).transpose(0, 2, 1, 3) for b in (x, y))
            steps.append((h, a, o))
        x, y = y, x
        lo += g
    return steps, x


def _walsh_hadamard(arr: np.ndarray, top: int) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform of 2**n flat integers, |arr| <= top.

    Into a new int32 array when 2**n * top < 2**31, else int64.  The products
    run in float32 while 2**n * top <= 2**24, else in float64, which is exact
    while 2**n * top <= 2**52; callers refuse tables past that.
    """
    N = arr.size
    n = N.bit_length() - 1
    out = np.empty(N, np.int32 if N * top < 2**31 else np.int64)
    tile_bits = min(n, _TILE_BITS)
    T = 1 << tile_bits
    carrier = np.float32 if N * top <= 2**24 else np.float64
    x, y = np.empty(T, carrier), np.empty(T, carrier)
    # Each contiguous tile first takes its own digits, then the digits above
    # a tile follow in groups of up to _GROUP_BITS, one pass over the output
    # per group, on (2**g, w) column tiles; each tile is cast into x,
    # multiplied and cast back.
    for a in [0, *range(tile_bits, n, _GROUP_BITS)]:
        g, src = (tile_bits, arr) if a == 0 else (min(_GROUP_BITS, n - a), out)
        w = T >> g
        steps, done = _products(x, y, tile_bits - g, tile_bits)
        load, done = x.reshape(1 << g, w), done.reshape(1 << g, w)
        shape = (-1, 1 << g, (1 << a) // w, w)
        for tiles, dest in zip(src.reshape(shape), out.reshape(shape)):
            for c in range(dest.shape[1]):
                np.copyto(load, tiles[:, c], casting="unsafe")
                for f, u, o in steps:
                    np.matmul(f, u, out=o)
                np.copyto(dest[:, c], done, casting="unsafe")
    return out


def _group_ring_step(a: np.ndarray, b: np.ndarray) -> None:
    """b[:, :, t] = sum over s of x**(s*t) * a[:, :, s], on (q, A, q, B) views."""
    q = a.shape[0]
    for t in range(q):
        o = b[:, :, t]
        np.copyto(o, a[:, :, 0])
        for s in range(1, q):
            m = s * t % q
            np.add(o[m:], a[:q - m, :, s], out=o[m:])
            np.add(o[:m], a[q - m:, :, s], out=o[:m])


def _group_ring_transform(values: np.ndarray, n: int, q: int) -> np.ndarray:
    """Residues at x -> omega mod p of a flat table's transform in Z[x]/(x**q - 1),
    (p, omega) = _split_prime(q); the int32 coordinates are exact while
    q**n * max|value| < 2**31."""
    p, w = _split_prime(q)
    x, y = np.zeros((q, q**n), np.int32), np.empty((q, q**n), np.int32)
    np.copyto(x[0], values, casting="unsafe")
    # Digits low.. first, then the low ones, whose runs of q**i cells are
    # short, rotated to the top; the second rotation restores the order.
    low = next(d for d in range(n + 1) if d == n or q**d >= _RUN)
    for k in (low, n - low):
        for i in range(k, n):
            _group_ring_step(x.reshape(q, -1, q, q**i), y.reshape(q, -1, q, q**i))
            x, y = y, x
        np.copyto(y.reshape(q, q**k, -1), x.reshape(q, -1, q**k).transpose(0, 2, 1))
        x, y = y, x
    del y  # before the output
    out = np.remainder(x[q - 1], p, dtype=np.int64)
    for row in x[q - 2::-1]:
        out *= w
        out += row
        out %= p
    return out


def character_transform(values, n: int, q: int) -> CharacterSpectrum:
    """Character transform of an integer-valued table over H(n, q): exact for
    q = 2 while q**n * max|value| <= 2**52, residues mod p for q > 2 while
    2 * q**n * max|value| < p."""
    N = q**n
    limit = materialize_guard()
    if N > limit:
        raise TooLargeError(f"q**n = {q}**{n} exceeds the guard {limit}")
    arr = np.asarray(values).reshape(-1)
    if arr.dtype.kind not in "biu":
        raise OutOfRangeError(f"values must be integers, got dtype {arr.dtype}")
    if arr.size != N:
        raise OutOfRangeError(f"expected {N} values, got {arr.size}")
    # Every coefficient, and for q > 2 every group-ring coordinate, sums
    # +-values of disjoint cells, so it is at most N * max|v| in magnitude.
    # Python ints, as np.abs wraps at the int64 minimum.
    top = max(-int(arr.min()), int(arr.max()))
    if q > 2:
        p = _split_prime(q)[0]
        if 2 * N * top >= p:
            raise OutOfRangeError(f"values up to {top} on {q}**{n} cells reach the prime {p}")
        return CharacterSpectrum(n, q, _group_ring_transform(arr, n, q))
    if N * top > 2**52:
        raise OutOfRangeError(f"values up to {top} on {q}**{n} cells pass the float64 bound 2**52")
    return CharacterSpectrum(n, q, _walsh_hadamard(arr, top))


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


def eigen_decomposition_check(C: Coloring, S) -> bool:
    """Spectral mass of every color must sit on eigenvalues of S.

    True iff for every color the transform of its characteristic function is
    supported on weights w with n(q-1) - q*w an eigenvalue of S.  For a
    perfect C with quotient T and indicator matrix F, A F = F T gives
    P_lam F = F Pi_lam(T) for each spectral projector, and F has full column
    rank (every color is attained), so the colors' supports together are exactly spec T: one
    quotient replaces the k transforms, and T = S needs no spectrum.  Any other C takes them.
    """
    Cm = C.materialize()
    n, q = Cm.n, Cm.q
    own = compute_quotient(Cm)
    if isinstance(own, QuotientMatrix):
        return (own.entries == _matrix_rows(S)
                or set(quotient_spectrum(own)) <= set(quotient_spectrum(S, n, q)))
    allowed = set(quotient_spectrum(S, n, q))
    table = Cm.table
    for i in range(Cm.k):
        weights = character_transform(table == i, n, q).support_weights()
        if any(graph_eigenvalue(n, q, int(w)) not in allowed for w in weights):
            return False
    return True
