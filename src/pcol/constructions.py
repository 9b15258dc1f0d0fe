"""Builders for perfect colorings of H(n, q) and uniform collections.

Covers the generalized Reed-Muller-like partitions, translation collections
and their period reduction, Hamming-coset union colorings, the recursive
lengthening step (which multiplies the word length by q and adds M
positions while keeping every argument essential), and the two parameterized
front ends: an unbalanced 2-coloring from its off-diagonal pair (b, c) and a
low-degree unbalanced Boolean function from its density r/s.  A builder
materializes each coloring it checks once, under the materialization guard;
past it (TooLargeError from that call) the checks are skipped and flagged,
and the coloring is used as given.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import numpy as np

from .core import Coloring, QuotientMatrix, _collection, _shifted_index, color_dtype, digits
from .errors import (BadDensityError, BadOuterColoringError, InconsistentError,
                     NotEssentialError, NotPowerOfTwoError, OutOfRangeError,
                     SizeMismatchError, TooLargeError)
from .gf import FieldTable
from .spectral import DegreeReport, coloring_degree
from .verify import (compute_quotient, densities_by_count,
                     densities_from_quotient, essential_arguments)


@dataclass(frozen=True)
class UniformCollection:
    """Ordered colorings of one H(n, q) whose per-vertex color multiset is constant."""

    colorings: tuple[Coloring, ...]
    provenance: str
    quotient: QuotientMatrix | None = None
    hypotheses_checked: bool = True

    @property
    def size(self) -> int:
        return len(self.colorings)


# -- RM-like partitions (perfect Mq-colorings of H(M, q)) ---------------


class _RMBody:
    """Color of x is the pair (sum x_i, sum x_i * alpha_i) over GF(q)."""

    __slots__ = ("field", "s", "alphas")

    def __init__(self, field: FieldTable, s: int):
        self.field = field
        self.s = s
        self.alphas = tuple(digits(i, s, field.q) for i in range(field.q**s))

    def eval(self, idx):
        q = self.field.q
        add, mul = self.field.add_table, self.field.mul_table
        a = np.zeros(idx.shape, dtype=np.uint8)
        beta = [a] * self.s
        rest = idx
        for alpha in self.alphas:
            d = (rest % q).astype(np.intp)
            rest = rest // q
            a = add[a, d]
            beta = [add[b, mul[d, t]] if t else b for b, t in zip(beta, alpha)]
        rank = sum(b.astype(np.int64) * q**t for t, b in enumerate(beta))
        return q * rank + a


def rm_quotient(M: int, q: int) -> QuotientMatrix:
    """The Mq-by-Mq matrix with entry 1 iff the color indices differ mod q."""
    k = M * q
    rows = tuple(tuple(0 if (i - j) % q == 0 else 1 for j in range(k))
                 for i in range(k))
    return QuotientMatrix(rows, M, q)


def rm_coloring(q: int, s: int) -> Coloring:
    """Perfect Mq-coloring of H(M, q), M = q**s, with quotient rm_quotient(M, q).

    Color encoding: the pair (a, beta) in GF(q) x GF(q)**s becomes
    q * rank(beta) + a, so color mod q recovers the digit-sum component.
    """
    if s < 1:
        raise OutOfRangeError(f"s must be >= 1, got {s}")
    F = FieldTable(q)
    M = q**s
    color_dtype(M * q)  # before _RMBody lists all M alphas
    return Coloring(M, q, M * q, _RMBody(F, s))


# -- translation collections --------------------------------------------


def translations_collection(C: Coloring) -> UniformCollection:
    """The q**n translates C_z(x) = C(x - z) over Z_q**n; member 0 is C.

    The common quotient matrix is attached when C is materializable and
    perfect, left None otherwise.
    """
    members = tuple(Coloring.translation(C, z) for z in range(C.q**C.n))
    quotient = None
    try:
        result = compute_quotient(C)
        if isinstance(result, QuotientMatrix):
            quotient = result
    except TooLargeError:
        pass
    return UniformCollection(members, "translations", quotient)


def coloring_periods(C: Coloring) -> list[int]:
    """All v with C(x + v) == C(x) for every x (a subgroup of Z_q**n), ascending.

    A period v maps vertex s to s + v, so only v with C(s + v) == C(s) for
    s = 0..32 is tried, by a roll of the table viewed with axis a for digit
    n - 1 - a."""
    Cm = C.materialize()
    n, q, tab = Cm.n, Cm.q, Cm.table
    if n == 0:
        return [0]
    cand = np.flatnonzero(tab == tab[0])
    for s in range(1, min(33, q**n)):
        cand = cand[tab[_shifted_index(cand, q, digits(s, n, q), 1)] == tab[s]]
    view = tab.reshape((q,) * n)
    return [v for v in cand.tolist()
            if np.array_equal(np.roll(view, digits(v, n, q)[::-1], tuple(range(n))), view)]


def reduce_by_periods(col: UniformCollection) -> UniformCollection:
    """Keep the lowest translate of each coset of the base coloring's periods, in order."""
    if col.provenance != "translations":
        raise OutOfRangeError("period reduction applies to translation collections")
    base = col.colorings[0]
    n, q = base.n, base.q
    place = q ** np.arange(n, dtype=np.int64)
    # Row i of P is period i's digits; z // place is z's digits plus multiples of q.
    P = np.array(coloring_periods(base), dtype=np.int64)[:, None] // place % q
    covered = np.zeros(q**n, dtype=bool)
    kept = []
    for z in range(q**n):
        if not covered[z]:
            kept.append(col.colorings[z])
            covered[(P + z // place) % q @ place] = True
    return UniformCollection(tuple(kept), "translations", col.quotient)


# -- Hamming cosets and union colorings ----------------------------------


@dataclass(frozen=True)
class HammingCosetPartition:
    """The 2**m cosets of the binary Hamming code of length 2**m - 1.

    Position p of a word contributes column value p + 1, so the coset index
    of a word is its syndrome read as an integer; coset 0 is the code.
    """

    m: int
    coloring: Coloring

    @property
    def size(self) -> int:
        return 1 << self.m


def hamming_cosets(m: int) -> HammingCosetPartition:
    if m < 1:
        raise OutOfRangeError(f"m must be >= 1, got {m}")
    return HammingCosetPartition(m, Coloring.syndrome(m))


def hamming_union_coloring(part: HammingCosetPartition, start: int, count: int) -> Coloring:
    """2-coloring of H(2**m - 1, 2): color 0 is the union of `count` cyclically
    consecutive cosets starting at `start`; quotient [[c-1, b], [c, b-1]]."""
    M = part.size
    if not 1 <= count < M:
        raise OutOfRangeError(f"count must be in [1, {M}), got {count}")
    order = (start + np.arange(M)) % M
    return Coloring.merged(part.coloring, [order[:count], order[count:]])


def union_quotient(M: int, count: int) -> QuotientMatrix:
    b = M - count
    return QuotientMatrix.of([[count - 1, b], [count, b - 1]], M - 1, 2)


def hamming_union_collection(part: HammingCosetPartition, count: int) -> UniformCollection:
    """The M cyclic shifts of the union coloring; uniform because every
    vertex lies in exactly `count` of the unions."""
    members = tuple(hamming_union_coloring(part, i, count) for i in range(part.size))
    return UniformCollection(members, "cyclic-coset-shift",
                             union_quotient(part.size, count))


# -- the recursive construction ------------------------------------------


def predicted_step_quotient(S: QuotientMatrix, M: int) -> QuotientMatrix:
    """S + (q-1)**2 * n * I + (q-1) * M * P, on H(q*n + M, q).

    P's rows are all the density vector of S, so the off-diagonal entries
    grow by (q-1) * M * rho_j; integrality is guaranteed because the
    multiplicities rho_j * M of a uniform collection are whole numbers.
    """
    n, q, k = S.n, S.q, S.k
    rho = densities_from_quotient(S)
    rows = []
    for i in range(k):
        row = []
        for j in range(k):
            val = Fraction(S.entries[i][j]) + (q - 1) * M * rho[j]
            if i == j:
                val += (q - 1) ** 2 * n
            if val.denominator != 1:
                raise InconsistentError(
                    f"(q-1)*M*rho[{j}] = {(q - 1) * M * rho[j]} is not an integer")
            row.append(int(val))
        rows.append(tuple(row))
    return QuotientMatrix(tuple(rows), q * n + M, q)


def recursive_step(col: UniformCollection, E: Coloring) -> UniformCollection:
    """One lengthening step: M colorings of H(q*n + M, q) from M of H(n, q).

    Member s evaluates as F(y, x) = C_{s+i mod M}(x^j) where E(y) = q*i + j;
    the members are the cyclic rotations of the input collection, which keeps
    the output collection uniform.  Requires E to be an Mq-coloring of
    H(M, q) with quotient rm_quotient(M, q) and member 0 of the input to be
    essential in every argument.  Each check is skipped when its coloring
    exceeds the materialization guard, and hypotheses_checked is then False;
    an E past the guard is evaluated as given.
    """
    inner, _, q, _ = _collection(col.colorings)
    M, member0 = len(inner), inner[0]
    if E.n != M or E.q != q:
        raise SizeMismatchError(
            f"outer coloring lives on H({E.n},{E.q}), expected H({M},{q})")
    if E.k != M * q:
        raise SizeMismatchError(f"outer coloring has {E.k} colors, expected {M * q}")

    try:
        tableE = E.materialize()
    except TooLargeError:
        tableE = None
    if tableE is not None and compute_quotient(tableE) != rm_quotient(M, q):
        raise BadOuterColoringError(
            "outer coloring quotient does not have the 0/1 mod-q pattern")
    try:
        table0 = member0.materialize()
    except TooLargeError:
        table0 = None

    S = col.quotient
    if S is None:
        result = compute_quotient(member0 if table0 is None else table0)
        if not isinstance(result, QuotientMatrix):
            raise InconsistentError("collection member 0 is not a perfect coloring")
        S = result

    checked = col.hypotheses_checked and tableE is not None and table0 is not None
    if table0 is not None:
        mask = essential_arguments(table0)
        if not all(mask):
            raise NotEssentialError(
                f"member 0 has inessential arguments at positions "
                f"{[i for i, b in enumerate(mask) if not b]}")

    predicted = predicted_step_quotient(S, M)
    outer = E if tableE is None else tableE
    members = tuple(Coloring.outer(inner[s:] + inner[:s], outer) for s in range(M))
    return UniformCollection(members, "cyclic-permutation-of-collection",
                             predicted, checked)


def closed_form_length(n: int, M: int, q: int, i: int) -> int:
    """Word length after i steps: q**i * n + M * (q**i - 1) / (q - 1)."""
    return q**i * n + M * sum(q**j for j in range(i))


@dataclass(frozen=True)
class RecursionSpec:
    base: UniformCollection
    outer: Coloring
    steps: int


@dataclass(frozen=True)
class RecursionTrace:
    collection: UniformCollection
    lengths: tuple[int, ...]
    quotients: tuple[QuotientMatrix, ...]
    hypotheses_checked: tuple[bool, ...]


def iterate_construction(spec: RecursionSpec) -> RecursionTrace:
    """Apply recursive_step `steps` times, recording lengths and predicted
    quotients per level and checking them against the closed formula."""
    if spec.steps < 0:
        raise OutOfRangeError("steps must be nonnegative")
    col = spec.base
    members, n0, q, _ = _collection(col.colorings)
    M = len(members)
    lengths = [n0]
    quotients = [col.quotient]
    checked = []
    for i in range(1, spec.steps + 1):
        col = recursive_step(col, spec.outer)
        n_i = col.colorings[0].n
        if n_i != closed_form_length(n0, M, q, i):
            raise InconsistentError(
                f"level {i} length {n_i} != closed form {closed_form_length(n0, M, q, i)}")
        lengths.append(n_i)
        quotients.append(col.quotient)
        checked.append(col.hypotheses_checked)
    return RecursionTrace(col, tuple(lengths), tuple(quotients), tuple(checked))


# -- parameterized front ends --------------------------------------------


@dataclass(frozen=True)
class ConstructedColoring:
    coloring: Coloring
    collection: UniformCollection
    predicted_quotient: QuotientMatrix
    trace: RecursionTrace


def construct_bc(b: int, c: int) -> ConstructedColoring:
    """Perfect 2-coloring of H(N, 2) with quotient [[N-b, b], [c, N-c]] and
    no inessential arguments, N = (2M - 1) * 2**(e-1) - M with e = gcd(b, c)
    and M = (b + c) / e; M must be a power of two.

    Color 0 is the coset-union side, with density c / (b + c).
    """
    if b < 1 or c < 1:
        raise OutOfRangeError("b and c must be positive")
    e = gcd(b, c)
    M = (b + c) // e
    if M & (M - 1):
        raise NotPowerOfTwoError(f"(b + c) / gcd(b, c) = {M} is not a power of two")
    m = M.bit_length() - 1
    cprime = c // e
    part = hamming_cosets(m)
    col = hamming_union_collection(part, cprime)
    outer = rm_coloring(2, m)
    trace = iterate_construction(RecursionSpec(col, outer, e - 1))
    N = trace.lengths[-1]
    predicted = QuotientMatrix.of([[N - b, b], [c, N - c]], N, 2)
    if predicted != trace.quotients[-1]:
        raise InconsistentError(
            f"step-by-step quotient {trace.quotients[-1]} != closed form {predicted}")
    return ConstructedColoring(trace.collection.colorings[0], trace.collection,
                               predicted, trace)


@dataclass(frozen=True)
class UnbalancedBoolean:
    coloring: Coloring
    density: Fraction
    expected_degree: int
    predicted_quotient: QuotientMatrix
    degree_report: DegreeReport | None
    essential: tuple[bool, ...] | None
    verified: bool


def construct_unbalanced_boolean(r: int, s: int, e: int) -> UnbalancedBoolean:
    """Boolean function (color 0 = ones) of density r/s and degree e*s/2 in
    n = (2s - 1) * 2**(e-1) - s variables, all essential.

    Requires s a power of two, r odd with 0 < r < s, and e >= 1.  The
    quotient, density, degree, and essentiality are verified exhaustively
    when the result fits the materialization guard.
    """
    if s < 2 or s & (s - 1):
        raise BadDensityError(f"s = {s} must be a power of two >= 2")
    if not 0 < r < s:
        raise BadDensityError(f"r = {r} must satisfy 0 < r < s")
    if r % 2 == 0:
        raise BadDensityError(f"r = {r} must be odd")
    if e < 1:
        raise BadDensityError(f"e = {e} must be >= 1")

    built = construct_bc((s - r) * e, r * e)
    coloring = built.coloring
    density = Fraction(r, s)
    expected_degree = e * s // 2

    try:
        table = coloring.materialize()
    except TooLargeError:
        return UnbalancedBoolean(coloring, density, expected_degree,
                                 built.predicted_quotient, None, None, False)
    if compute_quotient(table) != built.predicted_quotient:
        raise InconsistentError("constructed coloring does not have its predicted quotient")
    dens = densities_by_count(table)
    if dens[0] != density:
        raise InconsistentError(f"measured density {dens[0]} != {density}")
    degree_report = coloring_degree(table)
    if degree_report.degree != expected_degree:
        raise InconsistentError(
            f"measured degree {degree_report.degree} != {expected_degree}")
    essential = essential_arguments(table)
    if not all(essential):
        raise InconsistentError("constructed coloring has an inessential argument")
    return UnbalancedBoolean(coloring, density, expected_degree,
                             built.predicted_quotient, degree_report, essential, True)
