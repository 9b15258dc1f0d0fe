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
        labels = np.arange(q, dtype=np.int64)
        powers = p ** np.arange(k, dtype=np.int64)
        # digs[a, i] is coefficient i of label a
        digs = labels[:, None] // powers % p
        add = ((digs[:, None, :] + digs[None, :, :]) % p) @ powers
        neg = (-digs % p) @ powers
        # scale[c, b] = c * b for c in GF(p)
        scale = (np.arange(p)[:, None, None] * digs % p) @ powers
        shifted = np.concatenate([np.zeros((q, 1), dtype=np.int64), digs[:, :-1]], axis=1)
        # GF(p)[x]/(m) is a field iff m is irreducible, and a finite ring is a
        # field iff it has no zero divisors: the first monic m = x**k + low(t),
        # t = 0, 1, ..., whose product table has none is the lowest-label
        # irreducible.  For k = 1, m = x and t = 0 is the only map needed.
        for t in range(q):
            # times_x[b] = x * b mod m: shift b up one place, subtract top * m
            times_x = ((shifted - digs[:, -1:] * digs[t]) % p) @ powers
            # a * b = sum_i a_i * (x**i * b), one add per coefficient of a
            xb = labels
            mul = scale[digs[:, :1], xb]
            for i in range(1, k):
                xb = times_x[xb]
                mul = add[mul, scale[digs[:, i:i + 1], xb]]
            if mul[1:, 1:].all():
                break
        self.irreducible_poly = () if k == 1 else (*map(int, digs[t]), 1)
        self.add_table = add.astype(np.uint8)
        self.neg_table = neg.astype(np.uint8)
        self.sub_table = self.add_table[:, neg]
        self.mul_table = mul.astype(np.uint8)
        self.inv_table = np.argmax(mul == 1, axis=1).astype(np.uint8)
        for name in ("add_table", "sub_table", "mul_table", "neg_table", "inv_table"):
            getattr(self, name).setflags(write=False)

    def _check(self, *labels: int) -> None:
        for a in labels:
            if not 0 <= a < self.q:
                raise OutOfRangeError(f"label {a} not in [0, {self.q})")

    def add(self, a: int, b: int) -> int:
        self._check(a, b)
        return int(self.add_table[a, b])

    def mul(self, a: int, b: int) -> int:
        self._check(a, b)
        return int(self.mul_table[a, b])

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
