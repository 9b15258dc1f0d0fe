"""Exhaustive verification of colorings of H(n, q).

Everything here is a certificate-grade computation: neighbor counting over
all vertices, exact rational densities, and exact integer spectra from one
chain of matrix products.  Neighbor counts pick their kernel by q alone, and
the same pass finds the essential mask, since it changes every digit of every
color indicator:

- q = 2 is bit-sliced.  Color indicators are packed into little-endian
  uint64 words, 64 vertices per word, one block of the table at a time.
  Changing digit p of every vertex is a shift and mask inside each word for
  p < 6 and a swap of word halves for p >= 6; digit p is essential iff some
  indicator differs from itself changed so.  The n flipped bitmaps of a
  color are summed into n.bit_length() bit planes of counts by ripple-carry
  adds (Knuth, TAOCP 4A, 7.1.3).  Working memory is one block and a few
  bitmaps of q**n / 8 bytes each, whatever k is.
- q > 2 loops over the digits p of the vertex index, on the table viewed as
  ``(high digits, digit p, low digits)``, where the adjacency operator of
  H(n, q) is a sum of line sums along digit p; digit p is essential iff some
  indicator has a line sum other than 0 and q.

Both run in one thread; ``verification_report`` accepts ``threads``, which
must be at least 1 but has no effect.  Failure witnesses are the first in
ascending vertex-index order.  Quotient rows are read at the first vertices
from ``core._first_vertices``, the scan that checks every table is onto.
Reports keep ``"provenance": null``; collection manifests record provenance.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod

import numpy as np

from .core import (_MATERIALIZE_BLOCK, Coloring, QuotientMatrix, _collection, _color_counts,
                   _eval_blocks, _first_vertices, _index, _window_block, materialize_guard,
                   neighbors)
from .errors import (DisconnectedError, InconsistentError, OutOfRangeError,
                     SpectrumNotInGraphError, TooLargeError)

DEFAULT_ASSIGNMENT_GUARD = 1 << 24
_SEARCH_CHUNK_CELLS = 1 << 22
# Seed of check_uniform's sampled vertices, fixed so a sampled run repeats.
_SAMPLE_SEED = 0x5EED


@dataclass(frozen=True)
class NonPerfectWitness:
    """Two same-color vertices whose neighborhoods have different color profiles."""

    color: int
    vertex_a: int
    vertex_b: int
    profile_a: tuple[int, ...]
    profile_b: tuple[int, ...]


@dataclass(frozen=True)
class UniformityCheck:
    uniform: bool
    multiplicities: tuple[int, ...] | None
    exhaustive: bool
    witness_vertex: int | None = None
    witness_counts: tuple[int, ...] | None = None
    base_counts: tuple[int, ...] | None = None
    # multiplicities == rho_i * M under the collection's quotient, when known
    matches_density: bool | None = None


@dataclass
class VerificationReport:
    n: int
    q: int
    k: int
    perfect: bool
    quotient: QuotientMatrix | None
    witness: NonPerfectWitness | None
    densities: tuple[Fraction, ...]
    spectrum: dict[int, int] | None
    essential: tuple[bool, ...] | None = None
    degrees: tuple[int, ...] | None = None


def _profile(table: np.ndarray, v: int, n: int, q: int, k: int) -> tuple[int, ...]:
    return tuple(np.bincount(table[neighbors(v, n, q)], minlength=k).tolist())


# The q = 2 kernel works on bitmaps over the vertices: bit v of a packed array
# is bit v % 64 of its little-endian uint64 word v // 64.  _LOW_BITS[p] holds
# the bits of a word whose in-word index has bit p clear.
_LOW_BITS = tuple(np.uint64(sum(1 << i for i in range(64) if not i >> p & 1))
                  for p in range(6))


def _pack(table: np.ndarray, select, out: np.ndarray) -> np.ndarray:
    """Set bit v of out to select(table block)[v], one block of cells at a time."""
    raw = out.view(np.uint8)
    for lo in range(0, table.size, _MATERIALIZE_BLOCK):
        bits = np.packbits(select(table[lo:lo + _MATERIALIZE_BLOCK]), bitorder="little")
        raw[lo // 8:lo // 8 + bits.size] = bits
    return out


def _flip(w: np.ndarray, p: int, out: np.ndarray) -> np.ndarray:
    """Write to out the bitmap w with digit p of every vertex changed."""
    if p < 6:
        # Inside each word: swap the bit pairs 2**p apart.
        s, low = np.uint64(1 << p), _LOW_BITS[p]
        np.bitwise_and(w, low, out=out)
        out <<= s
        out |= (w >> s) & low
    else:
        # Swap the halves of each aligned run of 2**(p-5) words.
        out.reshape(-1, 2, 1 << (p - 6))[:] = w.reshape(-1, 2, 1 << (p - 6))[:, ::-1]
    return out


def _bitsliced_columns(table, n, q, k, first):
    """Columns j < k-1 of the quotient for q = 2, the first vertex whose
    counts differ from its color's first vertex (None if there is none), and
    the essential mask.

    The j-neighbors of every vertex are counted in n.bit_length() bit planes:
    plane i holds bit i of each count, and the n flipped bitmaps of color j
    are added into them with ripple-carry adds.  Working memory is the planes
    and a few bitmaps, whatever k is.  Digit p is essential iff some flipped
    indicator differs from its color's own; the last color's indicator is the
    complement of the others', so colors j < k-1 decide it.
    """
    w, member, seen, buf, spare, bad, *planes = np.zeros(
        (6 + n.bit_length(), -(-table.size // 64)), "<u8")
    f = first.astype(np.uint64)
    columns, essential = [], [False] * n
    for j in range(k - 1):
        _pack(table, lambda blk: blk == j, w)
        for plane in planes:
            plane.fill(0)
        for p in range(n):
            carry, tmp = _flip(w, p, buf), spare
            essential[p] = essential[p] or not np.array_equal(carry, w)
            # After p + 1 adds, a count fits in (p + 1).bit_length() bits.
            for plane in planes[:(p + 1).bit_length()]:
                np.bitwise_and(plane, carry, out=tmp)
                plane ^= carry
                carry, tmp = tmp, carry
        # Row c of the quotient is read at color c's first vertex.
        col = np.zeros(k, np.uint64)
        for i, plane in enumerate(planes):
            col |= (plane[f >> 6] >> (f & 63) & 1) << i
        values = col.tolist()
        columns.append(values)
        # Colors expecting the same count s share one comparison: a vertex
        # mismatches where some plane differs from the matching bit of s.  The
        # class of the last color is every vertex the other classes leave.
        last = values[-1]
        seen.fill(0)
        for s in sorted(set(values) - {last}) + [last]:
            buf.fill(0)
            for i, plane in enumerate(planes):
                buf |= ~plane if s >> i & 1 else plane
            if s == last:
                buf &= ~seen
            else:
                lut = col == s
                cls = w if lut.sum() == 1 and lut[j] else _pack(
                    table, lambda blk: lut[blk], member)
                buf &= cls
                seen |= cls
            bad |= buf
    if table.size < 64:
        bad &= np.uint64((1 << table.size) - 1)
    hit = int(np.argmax(bad != 0))
    word = int(bad[hit])
    return columns, 64 * hit + (word & -word).bit_length() - 1 if word else None, essential


def _digit_axis_columns(table, n, q, k, first):
    """As _bitsliced_columns, for any q, by line sums along each digit."""
    degree = n * (q - 1)
    # Sums wrap in this dtype on the way, but each final count is at most
    # the degree, so it comes out exact.
    count_t = np.min_scalar_type(degree)
    line = np.empty(table.size // q, dtype=count_t)
    columns, essential = [], [False] * n
    bad = np.zeros(table.size, dtype=bool)
    for j in range(k - 1):
        ind = (table == j).astype(count_t)
        cnt = np.zeros(table.size, dtype=count_t)
        for p in range(n):
            # Axis 1 of this view is digit p; the line through v along it
            # holds the q vertices that differ from v in digit p only.
            lines, cnt3 = line.reshape(-1, q**p), cnt.reshape(-1, q, q**p)
            np.einsum("arb->ab", ind.reshape(-1, q, q**p), out=lines)
            cnt3 += lines[:, None, :]
            if not essential[p]:
                # The indicator changes along a line iff its sum is neither
                # 0 nor q.  q wraps to 0 when it is the dtype's size (n = 1),
                # so test 0 < sum < q as sum - 1 < q - 1, wrapping below 0.
                lines -= 1
                essential[p] = bool((lines < q - 1).any())
        # Each line through v holds v itself once per digit.
        cnt -= n * ind
        ref = cnt[first]
        bad |= cnt != ref[table]
        columns.append(ref.tolist())
    return columns, int(np.argmax(bad)) if bad.any() else None, essential


def compute_quotient(C: Coloring) -> QuotientMatrix | NonPerfectWitness:
    """Count neighbor colors at every vertex.

    Returns the quotient matrix if the profile of a vertex depends only on its
    color, otherwise the first witness in vertex-index order.  The table keeps
    the answer and the essential mask that the same count pass finds.
    """
    Cm = C.materialize()
    if Cm.body.quotient is not None:
        return Cm.body.quotient
    n, q, k = Cm.n, Cm.q, Cm.k
    table = Cm.table
    first = _first_vertices(table, k)
    # Every row sums to the degree, so the last color's column follows from
    # the others and a vertex mismatches in it only if it mismatches earlier.
    kernel = _bitsliced_columns if q == 2 else _digit_axis_columns
    columns, v, essential = kernel(table, n, q, k, first)
    if v is not None:
        color = int(table[v])
        a = int(first[color])
        Cm.body.quotient = NonPerfectWitness(color, a, v, _profile(table, a, n, q, k),
                                             _profile(table, v, n, q, k))
    else:
        degree = n * (q - 1)
        rows = [[col[i] for col in columns] for i in range(k)]
        Cm.body.quotient = QuotientMatrix.of([row + [degree - sum(row)] for row in rows], n, q)
    Cm.body.essential = tuple(essential)
    return Cm.body.quotient


def essential_arguments(C: Coloring) -> tuple[bool, ...]:
    """mask[p] is True iff the coloring changes along some line in digit p.

    Read from compute_quotient's count pass, which the table keeps.
    """
    Cm = C.materialize()
    compute_quotient(Cm)
    return Cm.body.essential


def densities_by_count(C: Coloring) -> tuple[Fraction, ...]:
    Cm = C.materialize()
    N = Cm.q**Cm.n
    return tuple(Fraction(int(c), N) for c in _color_counts(Cm.table, Cm.k))


def densities_from_quotient(S: QuotientMatrix) -> tuple[Fraction, ...]:
    """Solve detailed balance rho_i * S[i][j] == rho_j * S[j][i] exactly.

    Ratios are propagated along a spanning tree of the color graph and
    every non-tree edge is checked for consistency.
    """
    rows, k = S.entries, S.k
    sums = {sum(r) for r in rows}
    if len(sums) != 1:
        raise InconsistentError(f"row sums differ: {tuple(sum(r) for r in rows)}")
    for i in range(k):
        for j in range(k):
            if (rows[i][j] > 0) != (rows[j][i] > 0):
                raise InconsistentError(
                    f"S[{i}][{j}]={rows[i][j]} but S[{j}][{i}]={rows[j][i]}")

    ratio: list[Fraction | None] = [None] * k
    ratio[0] = Fraction(1)
    queue = [0]
    while queue:
        i = queue.pop()
        for j in range(k):
            if rows[i][j] > 0 and ratio[j] is None:
                ratio[j] = ratio[i] * Fraction(rows[i][j], rows[j][i])
                queue.append(j)
    if any(r is None for r in ratio):
        missing = [i for i, r in enumerate(ratio) if r is None]
        raise DisconnectedError(f"colors {missing} unreachable in the color graph")
    for i in range(k):
        for j in range(i + 1, k):
            if rows[i][j] > 0 and ratio[i] * rows[i][j] != ratio[j] * rows[j][i]:
                raise InconsistentError(
                    f"detailed balance fails on the edge ({i}, {j})")
    total = sum(ratio)
    return tuple(r / total for r in ratio)


def graph_eigenvalue(n: int, q: int, i: int) -> int:
    return n * (q - 1) - q * i


def quotient_spectrum(S: QuotientMatrix) -> dict[int, int]:
    """Multiplicities of S's eigenvalues among the graph eigenvalues of H(n, q).

    With F_i = S - lambda_i I over the graph eigenvalues lambda_i = n(q-1) -
    q*i, i = 0..n, the product of all F_i is 0 iff S is diagonalizable with
    its spectrum among them; otherwise SpectrumNotInGraphError.  Then the
    product of the F_j, j != i, is prod_{j != i} (lambda_i - lambda_j) times
    the spectral projector of lambda_i, whose trace is the multiplicity.
    One chain of suffix and prefix products gives them all, in int64 while
    the factors' absolute row sums (at least 1 each) multiply to less than
    2**63, which bounds every entry and every row's partial sums, and in
    Python ints otherwise.  Keys descend.
    """
    n, q, k, rows = S.n, S.q, S.k, S.entries
    lams = [graph_eigenvalue(n, q, i) for i in range(n + 1)]
    factors = [[[e - lam * (a == b) for b, e in enumerate(row)] for a, row in enumerate(rows)]
               for lam in lams]
    bound = prod(max([1] + [sum(map(abs, row)) for row in f]) for f in factors)
    carrier = np.int64 if bound < 2**63 else object
    factors = [np.array(f, dtype=carrier).reshape(k, k) for f in factors]
    suffix = [np.eye(k, dtype=carrier)]  # suffix[m]: the product of the last m factors
    for f in reversed(factors):
        suffix.append(f @ suffix[-1])
    if suffix.pop().any():
        raise SpectrumNotInGraphError(
            f"S is not diagonalizable with its spectrum among the eigenvalues of H({n}, {q})")
    spectrum: dict[int, int] = {}
    prefix = suffix[0]  # F_0 ... F_{i-1}
    for i, lam in enumerate(lams):
        # trace(prefix @ suffix[n - i]) by one elementwise product, each row's sum exact
        trace = sum((prefix * suffix[n - i].T).sum(axis=1).tolist())
        mult = trace // prod(lam - mu for mu in lams if mu != lam)
        if mult:
            spectrum[lam] = mult
        prefix = prefix @ factors[i]
    return spectrum


def check_uniform(collection, *, sample: int | None = None) -> UniformityCheck:
    """Is the per-vertex multiset of member colors vertex-independent?

    Exhaustive when the member tables together fit the guard; otherwise request a
    sample size, drawn with a fixed seed and flagged non-exhaustive.  Both modes
    compare each vertex's color counts with vertex 0's, one block of core's eval
    walk (or the one sample block) at a time; for S outer nodes over one E, the
    O(S*M*q**nb) cells of their window tables, each at the first vertex reading it,
    with no node evaluated.  The witness follows the lowest color whose count varies:
    the first vertex, in index or draw order, where that count differs from vertex
    0's.  A collection's quotient matrix, if any, is also checked against rho_i * M
    from detailed balance.
    """
    members, n, q, k = _collection(getattr(collection, "colorings", collection))
    M, N = len(members), q**n
    limit = materialize_guard()
    if sample is None:
        if M * N > limit:
            raise TooLargeError(
                f"{M} tables of {q}**{n} cells exceed the guard {limit}; "
                "pass sample= to spot-check")
        windows = _window_block(members)
        blocks = [windows] if windows else _eval_blocks(members)
    else:
        sample = _index(sample, "sample")
        if sample < 0:
            raise OutOfRangeError(f"sample must be nonnegative, got {sample}")
        rng = np.random.default_rng(_SAMPLE_SEED)
        # Past int64, draw exact Python integers; 64 spare bits keep the bias negligible.
        draws = (rng.integers(0, N, size=sample).tolist() if N <= 2**63 else
                 [int.from_bytes(rng.bytes(N.bit_length() // 8 + 8), "little") % N
                  for _ in range(sample)])
        idx = np.array([0] + draws, dtype=object)
        blocks = [(idx, [c.body.eval(idx) for c in members])]

    def multiset(vals, at):
        return tuple(np.bincount([int(t[at]) for t in vals], minlength=k).tolist())

    base, first_bad = None, {}
    for verts, vals in blocks:
        base = base or multiset(vals, 0)  # every walk starts at vertex 0
        # The counts sum to M, so the last color varies only where a lower one does.
        for i in range(k - 1):
            bad = sum((t == i for t in vals), np.zeros(vals[0].shape, np.min_scalar_type(M))) != base[i]
            if bad.any() and i not in first_bad:
                at = int(np.argmax(bad))
                first_bad[i] = int(verts[at]), multiset(vals, at)
        del vals
    if first_bad:
        return UniformityCheck(False, None, sample is None, *first_bad[min(first_bad)], base)

    matches = None
    quotient = getattr(collection, "quotient", None)
    if quotient is not None:
        rho = densities_from_quotient(quotient)
        matches = all(r * M == m for r, m in zip(rho, base))
    return UniformityCheck(True, base, sample is None, matches_density=matches)


def search_colorings(S: QuotientMatrix, require_all_essential: bool = False) -> list[Coloring]:
    """Brute-force every surjective coloring of H(S.n, S.q) against S.

    Enumerates all k**(q**n) color assignments (DEFAULT_ASSIGNMENT_GUARD at
    most) and keeps those whose neighbor-count profile matches S exactly,
    optionally only those essential in every argument.  Ascending order.
    """
    n, q, k = S.n, S.q, S.k
    N = q**n
    total = k**N
    if total > DEFAULT_ASSIGNMENT_GUARD:
        raise TooLargeError(
            f"{k}**({q}**{n}) assignments exceed the guard {DEFAULT_ASSIGNMENT_GUARD}")

    d = n * (q - 1)
    nbr = np.array([neighbors(v, n, q) for v in range(N)], dtype=np.int64)
    S_arr = np.array(S.entries, dtype=np.int16)

    out: list[Coloring] = []
    chunk = max(1, _SEARCH_CHUNK_CELLS // max(1, N * d))
    for start in range(0, total, chunk):
        ids = np.arange(start, min(start + chunk, total), dtype=np.int64)
        B = ids.size
        tables = np.empty((B, N), dtype=np.uint8)
        tmp = ids.copy()
        for pos in range(N):
            tables[:, pos] = tmp % k
            tmp //= k
        ok = np.ones(B, dtype=bool)
        for j in range(k):
            ok &= (tables == j).any(axis=1)
        nbrcols = tables[:, nbr]
        expected = S_arr[tables.astype(np.int64)]
        for j in range(k):
            cnt = (nbrcols == j).sum(axis=2, dtype=np.int16)
            ok &= (cnt == expected[:, :, j]).all(axis=1)
        if require_all_essential:
            for pos in range(n):
                cols = nbrcols[:, :, pos * (q - 1):(pos + 1) * (q - 1)]
                ok &= (cols != tables[:, :, None]).any(axis=(1, 2))
        for row in tables[ok]:
            out.append(Coloring.from_table(row.copy(), q, k))
    return out


def verification_report(C: Coloring, *, essential: bool = False,
                        threads: int = 1) -> VerificationReport:
    """Bundle quotient, densities, spectrum, and optional essential mask."""
    if threads < 1:
        raise OutOfRangeError(f"threads (--threads) must be at least 1, got {threads}")
    Cm = C.materialize()
    result = compute_quotient(Cm)
    perfect = isinstance(result, QuotientMatrix)
    dens = densities_by_count(Cm)
    spec = quotient_spectrum(result) if perfect else None
    mask = essential_arguments(Cm) if essential else None
    return VerificationReport(
        n=Cm.n, q=Cm.q, k=Cm.k, perfect=perfect,
        quotient=result if perfect else None,
        witness=None if perfect else result,
        densities=dens, spectrum=spec, essential=mask)
