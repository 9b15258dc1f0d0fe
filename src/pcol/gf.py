"""Arithmetic tables for small finite fields GF(p**k).

Field elements are labeled by integers 0..q-1: the element with polynomial
coefficients (c0, ..., c_{k-1}) over GF(p) gets the label sum(c_i * p**i).
Labels 0 and 1 are then automatically the additive and multiplicative
identities.  Tables are built once and frozen, so lookups are O(1) and
instances can be shared across threads.
"""
from __future__ import annotations

import numpy as np

from .errors import NotPrimePowerError, OutOfRangeError, UnsupportedError

MAX_ORDER = 256


def factor_prime_power(q: int) -> tuple[int, int]:
    """Return (p, k) with q == p**k, or raise NotPrimePowerError."""
    if not isinstance(q, int) or q < 2:
        raise NotPrimePowerError(f"field order must be an integer >= 2, got {q!r}")
    p = q
    for d in range(2, q + 1):
        if d * d > q:
            break
        if q % d == 0:
            p = d
            break
    k = 0
    m = q
    while m % p == 0:
        m //= p
        k += 1
    if m != 1:
        raise NotPrimePowerError(f"{q} is not a prime power")
    return p, k


def _poly_trim(a: tuple[int, ...]) -> tuple[int, ...]:
    i = len(a)
    while i > 0 and a[i - 1] == 0:
        i -= 1
    return a[:i]


def _poly_mod(a: tuple[int, ...], m: tuple[int, ...], p: int) -> tuple[int, ...]:
    # m must be monic
    a = list(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm and any(a):
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - dm
            for i in range(dm + 1):
                a[shift + i] = (a[shift + i] - lead * m[i]) % p
        a.pop()
    return _poly_trim(tuple(a))


def _monic_candidates(degree: int, p: int):
    """All monic polynomials of the given degree, lowest label first."""
    for t in range(p**degree):
        coeffs = []
        m = t
        for _ in range(degree):
            coeffs.append(m % p)
            m //= p
        yield tuple(coeffs) + (1,)


def _is_irreducible(poly: tuple[int, ...], p: int) -> bool:
    degree = len(poly) - 1
    for d in range(1, degree // 2 + 1):
        for div in _monic_candidates(d, p):
            if not _poly_mod(poly, div, p):
                return False
    return True


def find_irreducible(p: int, k: int) -> tuple[int, ...]:
    """Lexicographically first monic irreducible of degree k over GF(p)."""
    for cand in _monic_candidates(k, p):
        if _is_irreducible(cand, p):
            return cand
    raise AssertionError(f"no irreducible polynomial of degree {k} over GF({p})")


class FieldTable:
    """Immutable add/mul/inv lookup tables for GF(q), q = p**k <= 256.

    Attributes
    ----------
    q, p, k : int
        Field order, characteristic, extension degree.
    irreducible_poly : tuple[int, ...]
        Ascending coefficients of the defining polynomial (empty for k == 1).
    add_table, sub_table, mul_table : (q, q) uint8 arrays
    neg_table, inv_table : (q,) uint8 arrays (inv_table[0] is unused)
    """

    __slots__ = ("q", "p", "k", "irreducible_poly",
                 "add_table", "sub_table", "mul_table", "neg_table", "inv_table")

    def __init__(self, q: int):
        if isinstance(q, int) and q > MAX_ORDER:
            raise UnsupportedError(f"field order {q} exceeds the supported maximum {MAX_ORDER}")
        p, k = factor_prime_power(q)
        self.q = q
        self.p = p
        self.k = k
        self.irreducible_poly = () if k == 1 else find_irreducible(p, k)
        self._build_tables()
        for name in ("add_table", "sub_table", "mul_table", "neg_table", "inv_table"):
            getattr(self, name).setflags(write=False)

    def _build_tables(self) -> None:
        q, p, k = self.q, self.p, self.k
        labels = np.arange(q, dtype=np.int64)
        # digit matrix: D[a, i] = i-th base-p digit of label a
        digs = np.empty((q, k), dtype=np.int64)
        m = labels.copy()
        for i in range(k):
            digs[:, i] = m % p
            m //= p
        powers = p ** np.arange(k, dtype=np.int64)

        add_digs = (digs[:, None, :] + digs[None, :, :]) % p
        self.add_table = (add_digs @ powers).astype(np.uint8)
        neg_digs = (-digs) % p
        self.neg_table = (neg_digs @ powers).astype(np.uint8)
        self.sub_table = self.add_table[:, self.neg_table].astype(np.uint8)

        if k == 1:
            self.mul_table = ((labels[:, None] * labels[None, :]) % p).astype(np.uint8)
        else:
            # x**m mod irreducible, as digit rows, for m = 0 .. 2k-2
            red = np.zeros((2 * k - 1, k), dtype=np.int64)
            row = [1] + [0] * (k - 1)
            for m_deg in range(2 * k - 1):
                red[m_deg] = row
                carry = row[k - 1]
                row = [0] + row[:-1]
                if carry:
                    for i in range(k):
                        row[i] = (row[i] - carry * self.irreducible_poly[i]) % p
            # convolution tensor: conv[a, b, t] = sum_{i+j=t} D[a,i] * D[b,j]  (mod p)
            conv = np.zeros((q, q, 2 * k - 1), dtype=np.int64)
            for i in range(k):
                for j in range(k):
                    conv[:, :, i + j] += digs[:, None, i] * digs[None, :, j]
            prod_digs = (conv.reshape(q * q, 2 * k - 1) @ red) % p
            self.mul_table = (prod_digs @ powers).reshape(q, q).astype(np.uint8)

        inv = np.zeros(q, dtype=np.uint8)
        for a in range(1, q):
            hits = np.nonzero(self.mul_table[a] == 1)[0]
            if hits.size != 1:
                raise AssertionError(f"element {a} of GF({q}) lacks a unique inverse")
            inv[a] = hits[0]
        self.inv_table = inv

    def _check(self, *labels: int) -> None:
        for a in labels:
            if not 0 <= a < self.q:
                raise OutOfRangeError(f"label {a} not in [0, {self.q})")

    def add(self, a: int, b: int) -> int:
        self._check(a, b)
        return int(self.add_table[a, b])

    def sub(self, a: int, b: int) -> int:
        self._check(a, b)
        return int(self.sub_table[a, b])

    def mul(self, a: int, b: int) -> int:
        self._check(a, b)
        return int(self.mul_table[a, b])

    def neg(self, a: int) -> int:
        self._check(a)
        return int(self.neg_table[a])

    def inv(self, a: int) -> int:
        self._check(a)
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return int(self.inv_table[a])

    def pow(self, a: int, e: int) -> int:
        self._check(a)
        if e < 0:
            a, e = self.inv(a), -e
        acc, base = 1, a
        while e:
            if e & 1:
                acc = int(self.mul_table[acc, base])
            base = int(self.mul_table[base, base])
            e >>= 1
        return acc

    def __repr__(self) -> str:
        return f"FieldTable(q={self.q}, p={self.p}, k={self.k}, poly={self.irreducible_poly})"


def check_axioms(F: FieldTable) -> list[str]:
    """Exhaustively verify the field axioms; returns the list of failures."""
    q = F.q
    A = F.add_table.astype(np.int64)
    M = F.mul_table.astype(np.int64)
    fails = []
    ident = np.arange(q)

    if not np.array_equal(A, A.T):
        fails.append("additive commutativity")
    if not np.array_equal(M, M.T):
        fails.append("multiplicative commutativity")
    if not np.array_equal(A[0], ident):
        fails.append("additive identity")
    if not np.array_equal(M[1], ident):
        fails.append("multiplicative identity")
    # A[A[a,b], c] vs A[a, A[b,c]]
    if not np.array_equal(A[A][:, :, :], A[:, A]):
        fails.append("additive associativity")
    if not np.array_equal(M[M][:, :, :], M[:, M]):
        fails.append("multiplicative associativity")
    # a*(b+c) == a*b + a*c
    lhs = M[:, A]
    rhs = np.empty_like(lhs)
    for a in range(q):
        rhs[a] = A[M[a][:, None], M[a][None, :]]
    if not np.array_equal(lhs, rhs):
        fails.append("distributivity")
    if not np.array_equal(A[ident, F.neg_table.astype(np.int64)], np.zeros(q, dtype=np.int64)):
        fails.append("additive inverses")
    inv_ok = all(M[a, F.inv_table[a]] == 1 for a in range(1, q))
    if not inv_ok:
        fails.append("multiplicative inverses")
    if not np.array_equal(F.sub_table.astype(np.int64), A[:, F.neg_table.astype(np.int64)]):
        fails.append("subtraction table")
    return fails


def frobenius_fixed(F: FieldTable) -> bool:
    """True iff a**q == a for every label a (exhaustive)."""
    return all(F.pow(a, F.q) == a for a in range(F.q))
