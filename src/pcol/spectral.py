"""Character transforms over Z_q**n, function/coloring degrees, eigenspace checks.

Frequencies are indexed like vertices; the weight-w characters span the
eigenspace of H(n, q) for eigenvalue n(q-1) - q*w, so degree questions reduce
to the support of the transform.  Coefficients are exact: plain integers for
q = 2 (the Walsh-Hadamard spectrum, stored unnormalized, i.e. scaled by q**n)
and integer coordinate vectors in Z[x]/Phi_q(x) otherwise.  The alphabet is
treated as Z_q here even when a coloring was built from GF(q); the
eigenspaces do not depend on that choice.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import Coloring, materialize_guard
from .errors import OutOfRangeError, TooLargeError
from .verify import graph_eigenvalue, quotient_spectrum


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
    """(q, D) integer matrix sending group-ring coefficients to Z[x]/Phi_q."""
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


# Each entry is up to q**n bytes, 64 MiB at the default guard.
@lru_cache(maxsize=4)
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

    For q = 2 ``coeffs`` has shape (q**n,); otherwise shape (q**n, D) holding
    coordinates in the power basis of Z[x]/Phi_q(x).  Values carry the
    implicit 1/q**n normalization.
    """

    n: int
    q: int
    coeffs: np.ndarray

    def nonzero_mask(self) -> np.ndarray:
        if self.q == 2:
            return self.coeffs != 0
        return (self.coeffs != 0).any(axis=1)

    def support_weights(self) -> np.ndarray:
        return np.unique(hamming_weights(self.n, self.q)[self.nonzero_mask()])


@dataclass(frozen=True)
class DegreeReport:
    per_color: tuple[int, ...]

    @property
    def degree(self) -> int:
        return max(self.per_color)


def _fwht(values: np.ndarray) -> np.ndarray:
    a = values.astype(np.int64).copy()
    size = a.size
    h = 1
    while h < size:
        b = a.reshape(-1, 2 * h)
        low = b[:, :h].copy()
        b[:, :h] = low + b[:, h:]
        b[:, h:] = low - b[:, h:]
        h *= 2
    return a


def _groupring_transform(table: np.ndarray, n: int, q: int, sign: int) -> np.ndarray:
    """Factorized transform with values in Z[x]/(x**q - 1); table is (N, q)."""
    vals = table
    for axis in range(n):
        v = vals.reshape(q ** (n - axis - 1), q, q**axis, q)
        new = np.zeros_like(v)
        for t in range(q):
            acc = new[:, t]
            for s in range(q):
                shift = (sign * s * t) % q
                acc += np.roll(v[:, s], shift, axis=-1)
        vals = new.reshape(q**n, q)
    return vals


def character_transform(values, n: int, q: int, *, guard: int | None = None) -> CharacterSpectrum:
    """Exact character transform of an integer-valued table over H(n, q)."""
    N = q**n
    limit = materialize_guard(guard)
    if N > limit:
        raise TooLargeError(f"q**n = {N} exceeds the guard {limit}")
    arr = np.asarray(values).reshape(-1).astype(np.int64)
    if arr.size != N:
        raise OutOfRangeError(f"expected {N} values, got {arr.size}")
    if q == 2:
        return CharacterSpectrum(n, q, _fwht(arr))
    ring = np.zeros((N, q), dtype=np.int64)
    ring[:, 0] = arr
    raw = _groupring_transform(ring, n, q, sign=1)
    reduced = raw @ _reduction_matrix(q)
    return CharacterSpectrum(n, q, reduced)


def inverse_transform(spectrum: CharacterSpectrum) -> np.ndarray:
    """Exact inverse; recovers the original integer table."""
    n, q = spectrum.n, spectrum.q
    N = q**n
    if q == 2:
        back = _fwht(spectrum.coeffs)
        if (back % N).any():
            raise AssertionError("inverse transform is not integral")
        return back // N
    D = spectrum.coeffs.shape[1]
    ring = np.zeros((N, q), dtype=np.int64)
    ring[:, :D] = spectrum.coeffs
    raw = _groupring_transform(ring, n, q, sign=-1)
    reduced = raw @ _reduction_matrix(q)
    if reduced[:, 1:].any() or (reduced[:, 0] % N).any():
        raise AssertionError("inverse transform is not integral")
    return reduced[:, 0] // N


def degree(values, n: int, q: int, *, guard: int | None = None) -> int:
    """Largest frequency weight with a nonzero coefficient; 0 for constants."""
    spec = character_transform(values, n, q, guard=guard)
    mask = spec.nonzero_mask()
    if not mask.any():
        return 0
    return int(hamming_weights(n, q)[mask].max())


def coloring_degree(C: Coloring, *, guard: int | None = None) -> DegreeReport:
    """Degree of each color's characteristic function."""
    Cm = C.materialize(guard)
    table = Cm.table
    per_color = tuple(
        degree((table == i).astype(np.int64), Cm.n, Cm.q, guard=guard)
        for i in range(Cm.k))
    return DegreeReport(per_color)


def eigen_decomposition_check(C: Coloring, S, *, guard: int | None = None) -> bool:
    """Spectral mass of every color must sit on eigenvalues of S.

    True iff for every color the transform of its characteristic function is
    supported on weights w with n(q-1) - q*w an eigenvalue of S.
    """
    Cm = C.materialize(guard)
    n, q = Cm.n, Cm.q
    allowed = set(quotient_spectrum(S, n, q))
    table = Cm.table
    for i in range(Cm.k):
        spec = character_transform((table == i).astype(np.int64), n, q, guard=guard)
        for w in spec.support_weights():
            if graph_eigenvalue(n, q, int(w)) not in allowed:
                return False
    return True
