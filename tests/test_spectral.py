from math import gcd

import numpy as np
import pytest

from pcol.core import Coloring, digits
from pcol.spectral import (CharacterSpectrum, character_transform,
                           coloring_degree, cyclotomic_polynomial, degree,
                           eigen_decomposition_check, hamming_weights,
                           inverse_transform)
from pcol.verify import compute_quotient


def parity(n):
    return Coloring.from_table([bin(v).count("1") % 2 for v in range(2**n)], q=2)


def dft_oracle(values, n, q):
    """Slow complex-valued transform: hat f(z) = sum_x w**<x,z> f(x)."""
    N = q**n
    w = np.exp(2j * np.pi / q)
    out = np.zeros(N, dtype=complex)
    for z in range(N):
        zd = digits(z, n, q)
        for x in range(N):
            xd = digits(x, n, q)
            dot = sum(a * b for a, b in zip(xd, zd)) % q
            out[z] += values[x] * w**dot
    return out


def spectrum_as_complex(spec: CharacterSpectrum) -> np.ndarray:
    if spec.q == 2:
        return spec.coeffs.astype(complex)
    w = np.exp(2j * np.pi / spec.q)
    powers = w ** np.arange(spec.coeffs.shape[1])
    return spec.coeffs @ powers


def mobius(m):
    out, d = 1, 2
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            out = -out
        d += 1
    if m > 1:
        out = -out
    return out


def ramanujan(q, t):
    g = gcd(t % q, q) or q
    return sum(mobius(q // d) * d for d in range(1, g + 1) if g % d == 0)


def test_all_ones_transform():
    spec = character_transform([1] * 8, 3, 2)
    assert spec.coeffs[0] == 8
    assert not spec.coeffs[1:].any()


def test_two_point_support():
    f = [1 if v in (0, 7) else 0 for v in range(8)]
    spec = character_transform(f, 3, 2)
    assert sorted(np.nonzero(spec.nonzero_mask())[0].tolist()) == [0, 3, 5, 6]
    assert degree(f, 3, 2) == 2


def test_double_transform_is_scaling():
    rng = np.random.default_rng(11)
    f = rng.integers(-5, 6, size=16)
    twice = character_transform(character_transform(f, 4, 2).coeffs, 4, 2)
    assert np.array_equal(twice.coeffs, 16 * f)


@pytest.mark.parametrize("n,q", [(6, 2), (4, 3), (3, 4), (3, 5), (2, 6)])
def test_matches_slow_dft(n, q):
    rng = np.random.default_rng(100 + q)
    f = rng.integers(-3, 4, size=q**n)
    spec = character_transform(f, n, q)
    assert np.allclose(spectrum_as_complex(spec), dft_oracle(f, n, q), atol=1e-8)


@pytest.mark.parametrize("n,q", [(8, 2), (5, 3), (4, 4), (3, 5)])
def test_inverse_roundtrip(n, q):
    rng = np.random.default_rng(200 + q)
    f = rng.integers(-9, 10, size=q**n)
    spec = character_transform(f, n, q)
    assert np.array_equal(inverse_transform(spec), f)


def test_parseval_exact_q2():
    rng = np.random.default_rng(5)
    f = rng.integers(-4, 5, size=32)
    spec = character_transform(f, 5, 2)
    assert (spec.coeffs.astype(object) ** 2).sum() == 32 * (f.astype(object) ** 2).sum()


@pytest.mark.parametrize("n,q", [(3, 3), (2, 4), (2, 5)])
def test_parseval_trace_form(n, q):
    # sum_z Tr(v conj(v)) == phi(q) * q**n * sum_x f(x)**2, all in exact integers
    rng = np.random.default_rng(300 + q)
    N = q**n
    f = rng.integers(-3, 4, size=N)
    spec = character_transform(f, n, q)
    D = spec.coeffs.shape[1]
    euler_phi = sum(1 for a in range(1, q + 1) if gcd(a, q) == 1)
    c = np.array([ramanujan(q, t) for t in range(q)], dtype=object)
    total = 0
    for row in spec.coeffs:
        v = np.zeros(q, dtype=object)
        v[:D] = row.astype(object)
        prod = np.zeros(q, dtype=object)
        for a in range(q):
            if v[a]:
                for b in range(q):
                    if v[b]:
                        prod[(a - b) % q] += v[a] * v[b]
        total += int((prod * c).sum())
    assert total == euler_phi * N * int((f.astype(object) ** 2).sum())


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_degree_examples():
    for n in (2, 3, 5):
        p = parity(n)
        assert degree(p.table.astype(int), n, 2) == n
    assert degree([3] * 16, 4, 2) == 0
    assert degree([0] * 27, 3, 3) == 0
    # x0 * x1 has algebraic degree 2
    assert degree([0, 0, 0, 1], 2, 2) == 2


@pytest.mark.parametrize("n,q", [(4, 2), (3, 3), (2, 5)])
def test_degree_translation_invariant(n, q):
    rng = np.random.default_rng(400 + q)
    f = rng.integers(0, 3, size=q**n)
    base = degree(f, n, q)
    for _ in range(5):
        z = [int(t) for t in rng.integers(0, q, size=n)]
        shifted = np.empty_like(f)
        for v in range(q**n):
            w = digits(v, n, q)
            u = sum(((w[i] - z[i]) % q) * q**i for i in range(n))
            shifted[v] = f[u]
        assert degree(shifted, n, q) == base


def test_coloring_degree_singletons():
    C = Coloring.from_table([0, 1, 3, 2], q=2)
    rep = coloring_degree(C)
    assert rep.per_color == (2, 2, 2, 2)
    assert rep.degree == 2


def test_hamming_code_weights_and_degree():
    code = Coloring.merged(Coloring.syndrome(3), [[0], list(range(1, 8))])
    Cm = code.materialize()
    spec = character_transform((Cm.table == 0).astype(int), 7, 2)
    assert spec.support_weights().tolist() == [0, 4]
    assert coloring_degree(code).per_color == (4, 4)


def test_union_coloring_degree():
    union = Coloring.merged(Coloring.syndrome(3), [[0, 1, 2], [3, 4, 5, 6, 7]])
    assert coloring_degree(union).per_color == (4, 4)


def test_eigen_decomposition_check():
    p = parity(3)
    S = compute_quotient(p)
    assert eigen_decomposition_check(p, S)

    code = Coloring.merged(Coloring.syndrome(3), [[0], list(range(1, 8))])
    assert eigen_decomposition_check(code, compute_quotient(code))

    # recolor one vertex: the quotient no longer matches and the spectral
    # mass spreads outside the allowed weights
    corrupted = p.table.copy()
    corrupted[0] = 1 - corrupted[0]
    bad = Coloring.from_table(corrupted, q=2)
    assert not eigen_decomposition_check(bad, S)


def test_merge_two_colors_of_two_eigenvalue_coloring():
    from pcol.core import QuotientMatrix
    from pcol.verify import quotient_spectrum

    syn = Coloring.syndrome(3)
    assert quotient_spectrum(compute_quotient(syn)) == {7: 1, -1: 7}
    for pair in [(0, 1), (2, 5), (0, 7)]:
        rest = [[c] for c in range(8) if c not in pair]
        merged = Coloring.merged(syn, [list(pair)] + rest)
        S = compute_quotient(merged)
        assert isinstance(S, QuotientMatrix)
        assert set(quotient_spectrum(S)) == {7, -1}


def test_hamming_weights_table():
    w = hamming_weights(3, 3)
    assert w[0] == 0
    assert w[13] == sum(1 for d in digits(13, 3, 3) if d)
    for n, q in [(0, 2), (1, 7), (5, 2), (3, 4), (2, 5)]:
        w = hamming_weights(n, q)
        assert w.dtype == np.uint8 and not w.flags.writeable
        assert w.tolist() == [sum(1 for d in digits(v, n, q) if d) for v in range(q**n)]


def test_two_coloring_degree_matches_second_eigenvalue_index():
    # for a perfect 2-coloring with eigenvalues {n(q-1), n(q-1) - q*d},
    # both colors have degree exactly d
    from pcol.constructions import (construct_bc, hamming_cosets,
                                    hamming_union_coloring)
    from pcol.verify import quotient_spectrum

    colorings = [hamming_union_coloring(hamming_cosets(m), 0, c)
                 for m in (2, 3) for c in range(1, 2**m, 2)]
    colorings.append(construct_bc(3, 1).coloring)
    colorings.append(construct_bc(5, 3).coloring)
    for C in colorings:
        S = compute_quotient(C)
        lams = quotient_spectrum(S)
        n = C.n
        d = max((n - lam) // 2 for lam in lams)
        assert coloring_degree(C).per_color == (d, d)


def test_rm_coloring_degrees_equal_m():
    # every color class of the RM-like partition is a coset of a code whose
    # spectral support reaches full weight M
    from pcol.constructions import rm_coloring

    assert coloring_degree(rm_coloring(3, 1)).per_color == (3,) * 9
    assert coloring_degree(rm_coloring(2, 2)).per_color == (4,) * 8
