"""Exhaustive verification of colorings of H(n, q).

Everything here is a certificate-grade computation: neighbor counting over
all vertices, exact rational densities, and fraction-free integer spectra.
Neighbor counts and the essential mask work on the table viewed as a
``(q,)*n`` array, where the adjacency operator of H(n, q) is a sum of
line sums over the axes.  ``threads`` splits the axes between threads whose
integer partial results are combined exactly, so no reported value depends
on it.  Failure witnesses are the first in ascending vertex-index order.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import Coloring, QuotientMatrix, _color_counts, materialize_guard, neighbors
from .errors import (DisconnectedError, InconsistentError, NotSurjectiveError,
                     OutOfRangeError, SpectrumNotInGraphError, TooLargeError)

DEFAULT_ASSIGNMENT_GUARD = 1 << 24
_SEARCH_CHUNK_CELLS = 1 << 22


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


@dataclass(frozen=True)
class QuotientDiagnostics:
    row_sums_ok: bool
    expected_row_sum: int
    row_sums: tuple[int, ...]
    balance_ok: bool
    densities: tuple[Fraction, ...] | None
    balance_message: str | None
    spectrum_ok: bool
    spectrum: dict[int, int] | None
    spectrum_message: str | None

    @property
    def ok(self) -> bool:
        return self.row_sums_ok and self.balance_ok and self.spectrum_ok


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


def _axis_groups(n: int, threads: int) -> list[range]:
    """Split the n axes into max(1, min(threads, n)) disjoint groups."""
    if threads < 1:
        raise OutOfRangeError(f"threads (--threads) must be at least 1, got {threads}")
    t = max(1, min(threads, n))
    return [range(g, n, t) for g in range(t)]


def _map_axis_groups(fn, groups: list[range]) -> list:
    """fn(axes) for each group of axes, each group on its own thread.

    Callers combine the per-group results with exact integer or boolean
    operations, so no value depends on the grouping.
    """
    if len(groups) == 1:
        return [fn(groups[0])]
    with ThreadPoolExecutor(max_workers=len(groups)) as ex:
        return list(ex.map(fn, groups))


def _profile(table: np.ndarray, v: int, n: int, q: int, k: int) -> tuple[int, ...]:
    return tuple(np.bincount(table[neighbors(v, n, q)], minlength=k).tolist())


def compute_quotient(C: Coloring, *, threads: int = 1,
                     guard: int | None = None) -> QuotientMatrix | NonPerfectWitness:
    """Count neighbor colors at every vertex.

    Returns the quotient matrix if the profile of a vertex depends only on
    its color, otherwise the first witness in vertex-index order.
    """
    groups = _axis_groups(C.n, threads)
    Cm = C.materialize(guard)
    n, q, k = Cm.n, Cm.q, Cm.k
    table = Cm.table
    # argmax finds the first True; a color that is absent reads vertex 0.
    first_idx = np.array([np.argmax(table == c) for c in range(k)], dtype=np.intp)
    missing = np.flatnonzero(table[first_idx] != np.arange(k))
    if missing.size:
        raise NotSurjectiveError(int(missing[0]))
    cube = table.reshape((q,) * n)
    degree = n * (q - 1)
    count_t = np.int16 if degree < 32768 else np.int32
    # Every row sums to the degree, so the last color's column follows from
    # the others and a vertex mismatches in it only if it mismatches earlier.
    columns = []
    bad = np.zeros(cube.shape, dtype=bool)
    for j in range(k - 1):
        ind = (cube == j).astype(count_t)

        def line_sums(axes):
            acc = np.zeros(cube.shape, dtype=count_t)
            for axis in axes:
                acc += ind.sum(axis=axis, keepdims=True, dtype=count_t)
            return acc

        # Each line through v holds v itself once per axis.
        cnt = sum(_map_axis_groups(line_sums, groups)) - n * ind
        ref = cnt.flat[first_idx]
        bad |= cnt != ref[cube]
        columns.append(ref.tolist())

    if bad.any():
        v = int(np.argmax(bad))
        color = int(table[v])
        a = int(first_idx[color])
        return NonPerfectWitness(color, a, v, _profile(table, a, n, q, k),
                                 _profile(table, v, n, q, k))
    rows = [[col[i] for col in columns] for i in range(k)]
    return QuotientMatrix.of([row + [degree - sum(row)] for row in rows], n, q)


def essential_arguments(C: Coloring, *, threads: int = 1,
                        guard: int | None = None) -> tuple[bool, ...]:
    """mask[i] is True iff the coloring changes along some line in direction i."""
    groups = _axis_groups(C.n, threads)
    Cm = C.materialize(guard)
    n, q = Cm.n, Cm.q
    cube = Cm.table.reshape((q,) * n)

    def varies(axes):
        return {axis: bool((cube != cube.take([0], axis=axis)).any()) for axis in axes}

    by_axis = {}
    for part in _map_axis_groups(varies, groups):
        by_axis.update(part)
    # Axis n-1-i of the (q,)*n view is digit i of the vertex index.
    return tuple(by_axis[n - 1 - i] for i in range(n))


def densities_by_count(C: Coloring, *, guard: int | None = None) -> tuple[Fraction, ...]:
    Cm = C.materialize(guard)
    N = Cm.q**Cm.n
    return tuple(Fraction(int(c), N) for c in _color_counts(Cm.table, Cm.k))


def _matrix_rows(S) -> tuple[tuple[int, ...], ...]:
    if isinstance(S, QuotientMatrix):
        return S.entries
    return tuple(tuple(int(e) for e in row) for row in S)


def densities_from_quotient(S) -> tuple[Fraction, ...]:
    """Solve detailed balance rho_i * S[i][j] == rho_j * S[j][i] exactly.

    Ratios are propagated along a spanning tree of the color graph and
    every non-tree edge is checked for consistency.
    """
    rows = _matrix_rows(S)
    k = len(rows)
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


def _int_rank(rows: list[list[int]]) -> int:
    """Rank over the rationals by fraction-free (Bareiss) elimination."""
    M = [row[:] for row in rows]
    nrows = len(M)
    ncols = len(M[0]) if nrows else 0
    rank = 0
    prev = 1
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if M[i][c] != 0), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        for i in range(r + 1, nrows):
            for j in range(c + 1, ncols):
                M[i][j] = (M[i][j] * M[r][c] - M[i][c] * M[r][j]) // prev
            M[i][c] = 0
        prev = M[r][c]
        r += 1
        rank += 1
        if r == nrows:
            break
    return rank


def graph_eigenvalue(n: int, q: int, i: int) -> int:
    return n * (q - 1) - q * i


def quotient_spectrum(S, n: int | None = None, q: int | None = None) -> dict[int, int]:
    """Multiplicities of S's eigenvalues among the graph eigenvalues of H(n, q).

    The multiplicity of lambda_i = n(q-1) - q*i is k - rank(S - lambda_i I),
    computed exactly.  Raises SpectrumNotInGraphError when the multiplicities
    do not sum to k, i.e. S has an eigenvalue outside the graph spectrum (or
    too small a geometric eigenspace).
    """
    if isinstance(S, QuotientMatrix):
        n = S.n if n is None else n
        q = S.q if q is None else q
    if n is None or q is None:
        raise OutOfRangeError("n and q are required for a raw matrix")
    rows = _matrix_rows(S)
    k = len(rows)
    spectrum: dict[int, int] = {}
    total = 0
    for i in range(n + 1):
        lam = graph_eigenvalue(n, q, i)
        shifted = [[rows[a][b] - (lam if a == b else 0) for b in range(k)]
                   for a in range(k)]
        mult = k - _int_rank(shifted)
        if mult:
            spectrum[lam] = mult
            total += mult
    if total != k:
        raise SpectrumNotInGraphError(
            f"eigenspaces for graph eigenvalues span {total} < {k} dimensions")
    return spectrum


def validate_quotient(S, n: int, q: int) -> QuotientDiagnostics:
    """Structural checks for a candidate quotient matrix; never raises."""
    rows = _matrix_rows(S)
    degree = n * (q - 1)
    row_sums = tuple(sum(r) for r in rows)
    row_sums_ok = all(s == degree for s in row_sums)

    densities = None
    balance_message = None
    try:
        densities = densities_from_quotient(rows)
        balance_ok = True
    except (InconsistentError, DisconnectedError) as exc:
        balance_ok = False
        balance_message = str(exc)

    spectrum = None
    spectrum_message = None
    try:
        spectrum = quotient_spectrum(rows, n, q)
        spectrum_ok = True
    except SpectrumNotInGraphError as exc:
        spectrum_ok = False
        spectrum_message = str(exc)

    return QuotientDiagnostics(row_sums_ok, degree, row_sums, balance_ok,
                               densities, balance_message, spectrum_ok,
                               spectrum, spectrum_message)


def check_uniform(collection, *, guard: int | None = None, sample: int | None = None,
                  seed: int = 0x5EED) -> UniformityCheck:
    """Is the per-vertex multiset of member colors vertex-independent?

    Exhaustive when the member tables together fit the guard; otherwise request a
    pseudo-random sample size, which flags the result as non-exhaustive.
    When the collection carries a common quotient matrix, the multiplicity
    vector is also compared against rho_i * M from detailed balance.
    """
    members = tuple(getattr(collection, "colorings", collection))
    if not members:
        raise OutOfRangeError("empty collection")
    n, q, k = members[0].n, members[0].q, members[0].k
    if any(c.n != n or c.q != q or c.k != k for c in members):
        raise OutOfRangeError("collection members must share (n, q, k)")
    M = len(members)
    N = q**n
    limit = materialize_guard(guard)

    mult = None
    if sample is None:
        if M * N > limit:
            raise TooLargeError(
                f"{M} tables of {N} cells exceed the guard {limit}; "
                "pass sample= to spot-check")
        tables = [c.materialize(guard).table for c in members]
        mult = []
        for i in range(k):
            cnt = np.zeros(N, dtype=np.int32)
            for t in tables:
                cnt += t == i
            bad = cnt != cnt[0]
            if bad.any():
                v = int(np.argmax(bad))
                at_v, at_0 = (tuple(np.bincount([t[u] for t in tables], minlength=k).tolist())
                              for u in (v, 0))
                return UniformityCheck(False, None, True, v, at_v, at_0)
            mult.append(int(cnt[0]))
        mult = tuple(mult)
        exhaustive = True
    else:
        rng = np.random.default_rng(seed)
        verts = [0] + [int(v) for v in rng.integers(0, N, size=sample)]
        for v in verts:
            cnt = [0] * k
            for c in members:
                cnt[c.evaluate(v)] += 1
            cnt = tuple(cnt)
            if mult is None:
                mult = cnt
            elif cnt != mult:
                return UniformityCheck(False, None, False, v, cnt, mult)
        exhaustive = False

    matches = None
    quotient = getattr(collection, "quotient", None)
    if quotient is not None:
        rho = densities_from_quotient(quotient)
        matches = all(r * M == m for r, m in zip(rho, mult))
    return UniformityCheck(True, mult, exhaustive, matches_density=matches)


def search_colorings(n: int, q: int, S, require_all_essential: bool = False, *,
                     assignment_guard: int | None = None) -> list[Coloring]:
    """Brute-force every surjective coloring of H(n, q) against S.

    Enumerates all k**(q**n) color assignments (guarded) and keeps the ones
    whose neighbor-count profile matches S exactly, optionally filtered to
    colorings with every argument essential.  Ascending assignment order.
    """
    rows = _matrix_rows(S)
    k = len(rows)
    N = q**n
    total = k**N
    limit = DEFAULT_ASSIGNMENT_GUARD if assignment_guard is None else assignment_guard
    if total > limit:
        raise TooLargeError(f"{k}**{N} = {total} assignments exceed the guard {limit}")

    d = n * (q - 1)
    nbr = np.array([neighbors(v, n, q) for v in range(N)], dtype=np.int64)
    S_arr = np.array(rows, dtype=np.int16)

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


def verification_report(C: Coloring, *, essential: bool = False, threads: int = 1,
                        guard: int | None = None) -> VerificationReport:
    """Bundle quotient, densities, spectrum, and optional essential mask."""
    Cm = C.materialize(guard)
    result = compute_quotient(Cm, threads=threads, guard=guard)
    perfect = isinstance(result, QuotientMatrix)
    dens = densities_by_count(Cm, guard=guard)
    spec = quotient_spectrum(result) if perfect else None
    mask = essential_arguments(Cm, threads=threads, guard=guard) if essential else None
    return VerificationReport(
        n=Cm.n, q=Cm.q, k=Cm.k, perfect=perfect,
        quotient=result if perfect else None,
        witness=None if perfect else result,
        densities=dens, spectrum=spec, essential=mask)
