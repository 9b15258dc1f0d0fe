import tracemalloc
from math import gcd

import numpy as np
import pytest

from pcol import spectral
from pcol.core import GUARD_ENV_VAR, Coloring, QuotientMatrix, digits
from pcol.errors import OutOfRangeError, TooLargeError
from pcol.spectral import (_DIRECT_Q, _GROUP_BITS, _TILE_BITS, _products, character_transform,
                           coloring_degree, degree, eigen_decomposition_check,
                           hamming_weights)
from pcol.verify import compute_quotient, graph_eigenvalue, quotient_spectrum
from scalar_oracle import eigenbasis_transform


def parity(n):
    return Coloring.from_table([bin(v).count("1") % 2 for v in range(2**n)], q=2)


def dft_oracle(values, n, q):
    """Complex-valued transform: hat f(z) = sum_x w**<x,z> f(x), one N x N matrix."""
    N = q**n
    word = np.array([digits(v, n, q) for v in range(N)], dtype=np.int64).reshape(N, n)
    return np.exp(2j * np.pi * (word @ word.T % q) / q) @ np.asarray(values, dtype=complex)


def dft_support_weights(values, n, q):
    """Weights of the frequencies where the complex transform is nonzero."""
    nonzero = np.abs(dft_oracle(values, n, q)) > 1e-6
    return np.unique(hamming_weights(n, q)[nonzero]).tolist()


def test_all_ones_transform():
    spec = character_transform([1] * 8, 3, 2)
    assert spec.coeffs[0] == 8
    assert not spec.coeffs[1:].any()


def test_two_point_support():
    f = [1 if v in (0, 7) else 0 for v in range(8)]
    spec = character_transform(f, 3, 2)
    assert np.flatnonzero(spec.coeffs != 0).tolist() == [0, 3, 5, 6]
    assert degree(f, 3, 2) == 2


def test_double_transform_is_scaling():
    rng = np.random.default_rng(11)
    f = rng.integers(-5, 6, size=16)
    twice = character_transform(character_transform(f, 4, 2).coeffs, 4, 2)
    assert np.array_equal(twice.coeffs, 16 * f)


@pytest.mark.parametrize("n,q", [(6, 2), (4, 3), (3, 4), (3, 5), (2, 6), (0, 3), (1, 2),
                                 (3, 7), (2, 8), (2, 9), (2, 10), (8, 2), (9, 2)])
def test_matches_slow_dft(n, q):
    # int32 coefficients for these values; q = 2: the complex ones, q > 2:
    # the eigenbasis oracle's; every q: the complex ones' support weights.
    rng = np.random.default_rng(100 + q)
    f = rng.integers(-3, 4, size=q**n)
    spec = character_transform(f, n, q)
    assert spec.coeffs.dtype == np.int32
    if q == 2:
        assert np.allclose(spec.coeffs, dft_oracle(f, n, q), atol=1e-8)
    else:
        assert np.array_equal(spec.coeffs, eigenbasis_transform(f, n, q))
    assert spec.support_weights().tolist() == dft_support_weights(f, n, q)


@pytest.mark.parametrize("n,q", [(5, 2), (3, 3), (2, 6)])
def test_transforms_leave_their_arguments_unchanged(n, q):
    rng = np.random.default_rng(500 + q)
    f = rng.integers(-9, 10, size=q**n)
    f_before = f.copy()
    character_transform(f, n, q)
    assert np.array_equal(f, f_before)


def level_loop_oracle(values):
    """The plain q = 2 transform: one in-place int64 pass per digit."""
    a = np.array(values, dtype=np.int64).reshape(-1)
    h = 1
    while h < a.size:
        b = a.reshape(-1, 2, h)
        lo, hi = b[:, 0], b[:, 1]
        lo += hi
        hi *= -2
        hi += lo
        h *= 2
    return a


def q2_inputs(rng, n):
    N = 2**n
    yield rng.integers(0, 2, size=N).astype(bool)
    yield rng.integers(-128, 128, size=N).astype(np.int8)
    yield rng.integers(-9, 1, size=N)
    yield rng.integers(-2**(52 - n), 2**(52 - n), size=N, dtype=np.int64)


# The kernel's tiles hold 2**16 cells and take their digits in matrix
# products of up to 5 digits at digit 0 and 4 above it; the digits above a
# tile go in groups of up to 8: n = 5, 9 and 13 fill the first three
# products, 15 is a partial tile, 16 exactly one, whose last product splits
# its columns, 17 and 18 add one short group, 20 a group of 4, 21 one of 5,
# 23 one of 7.
@pytest.mark.parametrize("n", list(range(15)) + [15, 16, 17, 18, 20, 21, 23])
def test_q2_transform_matches_level_loop(n):
    rng = np.random.default_rng(600 + n)
    for f in q2_inputs(rng, n):
        coeffs = character_transform(f, n, 2).coeffs
        assert np.array_equal(coeffs, level_loop_oracle(f)), f.dtype
        big = max(-int(f.min()), int(f.max())) << n >= 2**31
        assert coeffs.dtype == (np.int64 if big else np.int32)


def test_q2_transform_takes_a_full_group_above_the_tile():
    # n = 24: one full group of 8 digits above the tile, on an indicator.
    f = np.random.default_rng(624).integers(0, 2, size=2**24).astype(bool)
    assert np.array_equal(character_transform(f, 24, 2).coeffs, level_loop_oracle(f))


@pytest.mark.parametrize("n,top,dtype", [
    (0, 2**31 - 1, np.int32), (0, -(2**31 - 1), np.int32), (0, -2**31, np.int64),
    (1, 2**30, np.int64), (4, 2**27 - 1, np.int32), (4, -2**27, np.int64),
    (4, 2**27, np.int64), (12, 2**19 - 1, np.int32), (12, 2**19, np.int64)])
def test_q2_accumulator_dtype_at_the_bound(n, top, dtype):
    # N * max|v| below 2**31 accumulates in int32, from 2**31 on in int64;
    # all-equal values reach the bound in coefficient 0.
    for f in (np.full(2**n, top, dtype=np.int64),
              np.where(np.arange(2**n) % 3 == 0, top, -top // 2)):
        spec = character_transform(f, n, 2)
        assert spec.coeffs.dtype == dtype
        assert np.array_equal(spec.coeffs, level_loop_oracle(f))
        assert spec.coeffs.astype(object).sum() == 2**n * int(f[0])


@pytest.mark.parametrize("n,e", [(n, e) for n in (3, 8, 12, 16) for e in (14, 15, 16, 24)]
                         + [(20, 28), (20, 30), (0, 24), (12, 52), (3, 52), (0, 52)])
def test_q2_int16_front_at_the_bound(n, e):
    # N * top at, just below or just above 2**e: sums leave int16 past 2**15,
    # and products run in float32 while N * top <= 2**24 and in float64 while
    # it is <= 2**52; past that the table is refused.  Coefficient 0
    # (all-equal values, or all but one cell one less, an odd sum) or 1
    # (alternating signs) reaches about N * top.
    N = 2**n
    for top in ((2**e >> n) - 1, 2**e >> n, (2**e >> n) + 1):
        odd = np.full(N, top)
        odd[0] -= 1
        for f in (np.full(N, top), odd, np.where(np.arange(N) % 2 == 0, top, -top)):
            if N * max(-int(f.min()), int(f.max())) > 2**52:
                with pytest.raises(OutOfRangeError, match="float64 bound"):
                    character_transform(f, n, 2)
                continue
            spec = character_transform(f, n, 2)
            assert spec.coeffs.dtype == (np.int32 if N * top < 2**31 else np.int64)
            assert np.array_equal(spec.coeffs, level_loop_oracle(f))


def check_products_stay_small(q):
    """Every product the kernel builds for q, for each tile size and each
    group above a full tile, takes at most m*n*k = 2**18 multiply-adds
    (OpenBLAS runs such a product on the calling thread) on rows of
    contiguous cells, and each group's block is L_q**(x)g."""
    top = 0
    while q ** (top + 1) <= 2**_TILE_BITS:
        top += 1
    group = 0
    while q ** (group + 1) <= 2**_GROUP_BITS:
        group += 1
    configs = [(t, 0, t) for t in range(top + 1)]
    configs += [(top, top - g, top) for g in range(1, group + 1)]
    # Column j of L_q**(x)g is the oracle's transform of the unit table e_j.
    blocks = {q**g: np.array([eigenbasis_transform(e, g, q) for e in np.eye(q**g, dtype=int)]).T
              for g in range(6) if g <= 1 or q**g <= 32}
    for digits, lo, hi in configs:
        for carrier in (np.float32, np.float64):
            x, y = np.empty(q**digits, carrier), np.empty(q**digits, carrier)
            steps, done = _products(x, y, q, lo, hi)
            assert done is (x if len(steps) % 2 == 0 else y)
            for a, b, o in steps:
                (m, k), n = a.shape[-2:], b.shape[-1]
                assert b.shape[-2] == k and o.shape[-2:] == (m, n)
                assert m * n * k <= 2**18, (digits, lo, hi)
                assert all(v.strides[-1] == v.itemsize for v in (a, b, o))
                block = a if a.ndim == 2 else b.T
                assert np.array_equal(block, blocks[len(block)])


def test_q2_matrix_products_stay_small():
    check_products_stay_small(2)


@pytest.mark.parametrize("q", [3, 4, 5, 7, 16, 17, _DIRECT_Q - 1])
def test_matrix_products_stay_small_for_q_above_2(q):
    check_products_stay_small(q)


def test_q2_transform_holds_one_output_and_tile_buffers():
    # A 2**20-cell indicator: the 4 MiB int32 output plus two 2**16-cell
    # float32 tile buffers, allocated once per call.
    f = np.arange(2**20) % 3 == 0
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        spec = character_transform(f, 20, 2)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert spec.coeffs.nbytes == 4 * 2**20
    assert peak <= 5 * 2**20


# The grid of the kernel that this one replaced, kept with its test ids:
# q = 3..10 and n from 0 to 2 * d + 1, d the least with q**d >= 64.  It holds
# tiles of every width up to one tile, a short and a full group above a tile
# for q = 7 and a short one for q = 10.
@pytest.mark.parametrize("n,q", [(n, q) for q, d in zip(range(3, 11), (4, 3, 3, 3, 3, 2, 2, 2))
                                 for n in range(2 * d + 2)])
def test_group_ring_kernel_matches_matrix_step_oracle(n, q):
    rng = np.random.default_rng(700 + 10 * q + n)
    N = q**n
    # Random values, an indicator, and values at the int32 bound N * top <
    # 2**31 (a float64 carrier from N * top > 2**24) and at the float64 bound.
    inputs = [rng.integers(-9, 10, size=N), rng.integers(0, 2, size=N).astype(bool),
              rng.choice([-1, 1], size=N) * ((2**31 - 1) // N),
              rng.choice([-1, 1], size=N) * (2**52 // N)]
    for f in inputs:
        spec = character_transform(f, n, q)
        big = N * max(-int(f.min()), int(f.max())) >= 2**31
        assert spec.coeffs.dtype == (np.int64 if big else np.int32) and spec.coeffs.shape == (N,)
        assert np.array_equal(spec.coeffs, eigenbasis_transform(f, n, q)), f.dtype


# The kernel's tiles and groups at production size: a tile and one short
# group above it (q = 3, 5, 13), two one-digit groups (q = 17), 40 x 40
# blocks in and above a tile on the last q that takes products, and the sum
# and differences from _DIRECT_Q on.
@pytest.mark.parametrize("n,q", [(11, 3), (8, 5), (5, 13), (5, 17),
                                 (3, _DIRECT_Q - 1), (4, _DIRECT_Q - 1),
                                 (0, _DIRECT_Q), (1, _DIRECT_Q), (3, _DIRECT_Q), (2, 64)])
def test_transform_across_tiles_groups_and_the_direct_step(n, q):
    rng = np.random.default_rng(750 + q + n)
    N = q**n
    for f in (rng.integers(0, 2, size=N).astype(bool), rng.integers(-9, 10, size=N),
              rng.choice([-1, 1], size=N) * (2**52 // N)):
        assert np.array_equal(character_transform(f, n, q).coeffs,
                              eigenbasis_transform(f, n, q, np.int64)), f.dtype


@pytest.mark.parametrize("n", [0, 5, 12])
def test_q3_transform_bound(n):
    # q = 3 has q = 2's bounds: N * max|v| up to 2**24 runs in a float32
    # carrier and on up to 2**52 in float64, past which the table is refused.
    # All-equal values put N * top in coefficient 0.
    N = 3**n
    carriers = []
    real = spectral._tiled_transform

    def spy(arr, n, q, out, carrier):
        carriers.append(carrier)
        real(arr, n, q, out, carrier)

    for bound, carrier in ((2**24, np.float32), (2**52, np.float64)):
        top = bound // N
        for t in (top, -top):
            for f in (np.full(N, t, dtype=np.int64), np.where(np.arange(N) % 4 == 0, t, -t // 2)):
                with pytest.MonkeyPatch.context() as m:
                    m.setattr(spectral, "_tiled_transform", spy)
                    spec = character_transform(f, n, 3)
                assert carriers.pop() is carrier
                assert np.array_equal(spec.coeffs, eigenbasis_transform(f, n, 3, np.int64))
                assert spec.coeffs[0] == sum(f.tolist())
    # One more than 2**24 // N takes float64, one more than 2**52 // N is refused.
    with pytest.MonkeyPatch.context() as m:
        m.setattr(spectral, "_tiled_transform", spy)
        character_transform(np.full(N, 2**24 // N + 1), n, 3)
    assert carriers == [np.float64]
    for t in (2**52 // N + 1, -(2**52 // N + 1)):
        with pytest.raises(OutOfRangeError, match="float64 bound"):
            character_transform(np.full(N, t), n, 3)


@pytest.mark.parametrize("n,top,dtype", [
    (0, 2**31 - 1, np.int32), (0, 2**31, np.int64), (0, -(2**31 - 1), np.int32),
    (0, -2**31, np.int64), (5, (2**31 - 1) // 3**5, np.int32),
    (5, (2**31 - 1) // 3**5 + 1, np.int64), (12, (2**31 - 1) // 3**12, np.int32),
    (12, -((2**31 - 1) // 3**12 + 1), np.int64)])
def test_q3_accumulator_dtype_at_the_bound(n, top, dtype):
    # N * max|v| below 2**31 accumulates in int32, from 2**31 on in int64,
    # as for q = 2; all-equal values reach the bound in coefficient 0.
    N = 3**n
    for f in (np.full(N, top, dtype=np.int64), np.where(np.arange(N) % 4 == 0, top, -top // 2)):
        spec = character_transform(f, n, 3)
        assert spec.coeffs.dtype == dtype
        assert np.array_equal(spec.coeffs, eigenbasis_transform(f, n, 3, np.int64))
        assert spec.coeffs[0] == sum(f.tolist())


@pytest.mark.parametrize("n,q", [(12, 3), (10, 4), (7, 7), (2, 256), (1, 1024)])
def test_transform_peak_per_cell(n, q):
    # The int32 output and two tile buffers of at most 2**16 float32 cells,
    # or with the direct step, one digit's sums; the indicator exists before
    # the call.
    f = np.arange(q**n) % 5 == 0
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        spec = character_transform(f, n, q)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert np.array_equal(spec.coeffs, eigenbasis_transform(f, n, q, np.int64))
    assert peak <= 6 * q**n


def test_one_digit_past_a_tile():
    # q = 2**16 + 1: a tile holds no whole digit, so the transform takes the
    # direct step and support_weights one block of the digit's q values.
    # On one digit, L_q f is (sum f, f[0] - f[1], ..., f[0] - f[q-1]).
    q = 2**16 + 1
    one_hot = np.arange(q) == 12345
    for f, weights in [(one_hot, [0, 1]), (np.ones(q, dtype=np.int8), [0]),
                       (np.zeros(q, dtype=np.int8), []), (np.arange(q) == 0, [0, 1])]:
        spec = character_transform(f, 1, q)
        values = f.astype(np.int64)
        assert spec.coeffs[0] == values.sum()
        assert np.array_equal(spec.coeffs[1:], values[0] - values[1:])
        assert spec.support_weights().tolist() == weights
    assert degree(one_hot, 1, q) == 1
    assert degree(np.arange(q**0) == 0, 0, q) == 0


def test_transform_rejects_int64_overflow():
    # q = 2: coefficient 0 would be 2**63, which wraps to -2**63 in int64,
    # or just below it, which float64 would round.  q = 3: likewise.
    for values, n, q in [([2**62, 2**62, 0, 0], 2, 2),
                         ([2**61 - 1, -(2**61 - 1), 0, 2**61 - 1], 2, 2),
                         ([2**62, 2**62, 0], 1, 3)]:
        with pytest.raises(OutOfRangeError):
            character_transform(np.array(values), n, q)
    # q = 2 takes N * max|v| up to 2**52, where float64 holds every partial
    # sum, and refuses 2**52 + 1.
    for f in ([2**52], [-2**52], [2**51, 2**51 - 1], [2**50 - 1, -2**50, 2**50, 1]):
        f = np.array(f)
        spec = character_transform(f, f.size.bit_length() - 1, 2)
        assert np.array_equal(spec.coeffs, level_loop_oracle(f))
    for f in ([2**52 + 1], [-(2**52 + 1)], [2**51 + 1, 2**51]):
        with pytest.raises(OutOfRangeError, match="float64 bound"):
            character_transform(np.array(f), len(f).bit_length() - 1, 2)


def test_parseval_exact_q2():
    rng = np.random.default_rng(5)
    f = rng.integers(-4, 5, size=32)
    spec = character_transform(f, 5, 2)
    assert (spec.coeffs.astype(object) ** 2).sum() == 32 * (f.astype(object) ** 2).sum()


@pytest.mark.parametrize("n,q", [(3, 3), (2, 4), (2, 5), (2, 6), (2, 10)])
def test_parseval_mod_p(n, q):
    # Parseval in the eigenbasis, exactly: on one digit a constant c maps to
    # row 0 = q*c, and a sum-zero z to y = Lz with |z|**2 = (q|y|**2 -
    # (sum y)**2) / q, so N * sum f**2 = c . (Q (x) ... (x) Q) c with Q =
    # diag(1, q*I - J) on the q - 1 rows s >= 1.  For q = 2 it is Parseval.
    rng = np.random.default_rng(300 + q)
    N = q**n
    f = rng.integers(-3, 4, size=N)
    c = character_transform(f, n, q).coeffs
    assert np.array_equal(c, eigenbasis_transform(f, n, q))
    Q = np.zeros((q, q), dtype=object)
    Q[0, 0] = 1
    Q[1:, 1:] = q * np.eye(q - 1, dtype=int) - 1
    weighted = np.array(c.tolist(), dtype=object)
    for i in range(n):
        weighted = np.matmul(Q, weighted.reshape(-1, q, q**i)).reshape(-1)
    assert sum(int(a) * b for a, b in zip(c, weighted)) == N * sum(int(v) ** 2 for v in f)


def test_degree_examples():
    for n in (2, 3, 5):
        p = parity(n)
        assert degree(p.table.astype(int), n, 2) == n
    assert degree([3] * 16, 4, 2) == 0
    assert degree([0] * 27, 3, 3) == 0
    # x0 * x1 has algebraic degree 2
    assert degree([0, 0, 0, 1], 2, 2) == 2


def whole_table_weights(values, n, q):
    """The support weights from a whole-table nonzero mask and weight table."""
    nonzero = character_transform(values, n, q).coeffs != 0
    return np.unique(hamming_weights(n, q)[nonzero]).tolist()


def weight_oracle_degree(values, n, q):
    """The degree from a whole-table nonzero mask and weight table."""
    return max(whole_table_weights(values, n, q), default=0)


def test_degree_matches_whole_table_weights():
    from pcol.constructions import rm_coloring

    # q = 2, n = 18: four blocks of 2**16 frequencies.  Tables with a few
    # random frequencies (inverse transforms of sparse spectra), so the
    # degree can sit in any block.
    rng = np.random.default_rng(900)
    n = 18
    cases = [np.zeros(2**n, dtype=np.int64)]
    for count in (1, 2, 5, 40):
        spectrum = np.zeros(2**n, dtype=np.int64)
        spectrum[rng.integers(0, 2**n, size=count)] = rng.integers(1, 4, size=count)
        cases.append(level_loop_oracle(spectrum))
    # All weight in block 0; then weight 17 in block 1 and 18 in block 3,
    # one more than the best before it.
    for support in ([3, 2**16 - 1], [2**17 - 1, 2**18 - 1]):
        spectrum = np.zeros(2**n, dtype=np.int64)
        spectrum[support] = 1
        cases.append(level_loop_oracle(spectrum))
    # Every weight up to 16 in block 0 and weight 17 only in block 1: block 1
    # (weights 1..17) must be scanned, block 2 may be skipped.
    spectrum = np.zeros(2**n, dtype=np.int64)
    spectrum[:2**16] = rng.integers(1, 4, size=2**16)
    spectrum[2**17 - 1] = 1
    cases.append(level_loop_oracle(spectrum))
    degrees = set()
    for f in cases:
        d = degree(f, n, 2)
        assert d == weight_oracle_degree(f, n, 2)
        weights = character_transform(f, n, 2).support_weights().tolist()
        assert weights == whole_table_weights(f, n, 2)
        degrees.add(d)
    assert len(degrees) >= 4
    # q > 2: every color of rm(3, 1) and rm(3, 2), and two of rm(5, 1) on
    # digits 2..6 of H(7, 5), five blocks of 5**6 frequencies, whose block
    # index is digit 6.
    wide = Coloring.cylinder(rm_coloring(5, 1), 7, 2)
    for C, colors in [(rm_coloring(3, 1), range(9)), (rm_coloring(3, 2), range(27)),
                      (wide, (0, 24))]:
        table = C.materialize().table
        for i in colors:
            assert degree(table == i, C.n, C.q) == weight_oracle_degree(table == i, C.n, C.q)
            spec = character_transform(table == i, C.n, C.q)
            assert spec.support_weights().tolist() == whole_table_weights(table == i, C.n, C.q)


def support_cases(rng, n, q):
    """Seeded random, one-point, digit-class and all-ones-with-holes tables."""
    N = q**n
    word = np.array([digits(v, n, q) for v in range(N)], dtype=np.int64).reshape(N, n)
    yield rng.integers(-3, 4, size=N)
    yield np.arange(N) == rng.integers(0, N)
    for m in range(1, n + 1):
        # The sum of the first m digits in one class mod q: weights 0 and m.
        yield word[:, :m].sum(axis=1) % q == rng.integers(0, q)
    holes = np.ones(N, dtype=np.int64)
    holes[rng.choice(N, size=min(3, N), replace=False)] = 0
    yield holes


@pytest.mark.parametrize("q", range(3, 13))
def test_support_weights_match_complex_dft(q):
    rng = np.random.default_rng(1000 + q)
    for n in range(4):
        if q**n > 1024:
            break
        for f in support_cases(rng, n, q):
            assert character_transform(f, n, q).support_weights().tolist() \
                == dft_support_weights(f, n, q), (n, f)


def test_support_weights_scan_blocks():
    # H(20, 2), sixteen blocks of 2**16 frequencies: every weight from 2 to
    # 16 in block 0, weight 17 in block 1, and weight 1 only at the first
    # frequency of block 4, which must still be scanned.  No 2**20-cell
    # nonzero mask or weight table is built.
    spectrum = np.zeros(2**20, dtype=np.int64)
    spectrum[:2**16] = hamming_weights(16, 2) >= 2
    spectrum[[2**17 - 1, 2**18]] = 1
    f = level_loop_oracle(spectrum)
    spec = character_transform(f, 20, 2)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        weights = spec.support_weights()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert weights.tolist() == whole_table_weights(f, 20, 2) == list(range(1, 18))
    assert peak < 0.5 * 2**20
    assert character_transform(np.zeros(8, np.int64), 3, 2).support_weights().size == 0


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


def test_character_transform_checks_guard_and_length(monkeypatch):
    with pytest.raises(OutOfRangeError, match="expected 16 values, got 8"):
        character_transform([0] * 8, 4, 2)
    for q in (1, 0):
        with pytest.raises(OutOfRangeError, match=f"q={q} is below 2"):
            character_transform([0], 3, q)
    monkeypatch.setenv(GUARD_ENV_VAR, "8")
    with pytest.raises(TooLargeError):
        character_transform([0] * 16, 4, 2)


@pytest.mark.parametrize("q", [2, 3])
def test_transforms_refuse_non_integer_values(q):
    # The float table used to be truncated to the transform of [0, 0, 1, 0].
    f = np.array([0.5, 0.5, 1.9, -0.7] + [0.0] * (q * q - 4))
    with pytest.raises(OutOfRangeError, match="must be integers, got dtype float64"):
        character_transform(f, 2, q)
    with pytest.raises(OutOfRangeError, match="must be integers"):
        character_transform(f.astype(complex), 2, q)


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


def test_eigen_check_of_own_quotient_takes_no_spectrum(monkeypatch):
    # spec T is a subset of spec T: no rank is computed when S is C's own
    # quotient, given as a QuotientMatrix or as plain rows.
    from pcol import spectral
    from pcol.constructions import construct_bc, rm_coloring

    def no_spectrum(*args):
        raise AssertionError("quotient_spectrum called")

    colorings = [parity(3), rm_coloring(3, 2), rm_coloring(5, 1), construct_bc(5, 3).coloring]
    quotients = [compute_quotient(C) for C in colorings]
    monkeypatch.setattr(spectral, "quotient_spectrum", no_spectrum)
    for C, S in zip(colorings, quotients):
        assert eigen_decomposition_check(C, S)
        assert eigen_decomposition_check(C, [list(row) for row in S.entries])
    with pytest.raises(AssertionError, match="quotient_spectrum called"):
        eigen_decomposition_check(colorings[0], [[1, 2], [2, 1]])


@pytest.mark.parametrize("kernel", ["_bitsliced_columns", "_digit_axis_columns"])
def test_eigen_check_after_report_counts_no_quotient(monkeypatch, kernel):
    # The table's body keeps compute_quotient's answer, perfect or not, so
    # the eigen check after a report on the same table counts nothing.
    from pcol import verify
    from pcol.constructions import construct_bc, rm_coloring

    symbolic = construct_bc(5, 3).coloring if kernel == "_bitsliced_columns" else rm_coloring(3, 2)
    S = compute_quotient(symbolic)
    table = symbolic.materialize().table.copy()
    table[0] = (table[0] + 1) % symbolic.k
    calls = []
    count = getattr(verify, kernel)
    monkeypatch.setattr(verify, kernel, lambda *args: calls.append(1) or count(*args))
    for C, perfect in ((symbolic.materialize(), True), (Coloring.from_table(table, symbolic.q), False)):
        calls.clear()
        rep = verify.verification_report(C)
        assert rep.perfect is perfect
        assert eigen_decomposition_check(C, rep.quotient or S) is perfect
        assert calls == [1]


def transform_eigen_check(C, S):
    """The eigenspace check by k character transforms, one per color."""
    Cm = C.materialize()
    n, q = Cm.n, Cm.q
    allowed = set(quotient_spectrum(S, n, q))
    for i in range(Cm.k):
        weights = whole_table_weights(Cm.table == i, n, q)
        if any(graph_eigenvalue(n, q, w) not in allowed for w in weights):
            return False
    return True


def _relabeled(values, q):
    _, table = np.unique(np.asarray(values).reshape(-1), return_inverse=True)
    return Coloring.from_table(table, q=q)


def _linear_coloring(rng, n, q, w):
    """x -> sum of w nonzero multiples of digits mod q, moved by a random
    automorphism of H(n, q); perfect with spectrum {n(q-1), n(q-1) - q*w}
    when the coefficients are units."""
    coeffs = np.zeros(n, dtype=np.int64)
    units = [a for a in range(1, q) if gcd(a, q) == 1]
    coeffs[rng.choice(n, size=w, replace=False)] = rng.choice(units, size=w)
    digit = np.arange(q**n) // q ** np.arange(n)[:, None] % q
    cube = (coeffs @ digit % q).reshape((q,) * n)
    for axis in range(n):
        cube = np.take(cube, rng.permutation(q), axis=axis)
    return _relabeled(cube.transpose(rng.permutation(n)), q)


def _eigen_pool(rng, q):
    """Perfect colorings of one H(n, q) with several spectra."""
    from pcol.constructions import (construct_bc, hamming_cosets,
                                    hamming_union_coloring, rm_coloring)

    if q == 2:
        n = 7
        pool = [Coloring.syndrome(3), hamming_union_coloring(hamming_cosets(3), 2, 3),
                construct_bc(5, 3).coloring, Coloring.cylinder(construct_bc(2, 2).coloring, n, 2),
                Coloring.cylinder(rm_coloring(2, 2), n, 1)]
    else:
        n = {3: 4, 4: 4, 5: 5}[q]
        rm = rm_coloring(q, 1)
        # rm's colors mod q give the digit sum
        digit_sum = Coloring.merged(rm, [list(range(a, rm.k, q)) for a in range(q)])
        pool = [Coloring.cylinder(rm, n, n - rm.n), Coloring.cylinder(digit_sum, n, 0)]
    pool += [_linear_coloring(rng, n, q, w) for w in range(1, n + 1)]
    merges = []
    for C in pool:
        if C.k >= 3:
            groups = rng.integers(0, rng.integers(2, C.k), size=C.k)
            merges.append(Coloring.merged(C, [np.flatnonzero(groups == j).tolist()
                                              for j in np.unique(groups)]))
    return pool + merges


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_eigen_check_matches_transform_route(q):
    rng = np.random.default_rng(800 + q)
    pool = [C.materialize() for C in _eigen_pool(rng, q)]
    quotients = [S for S in map(compute_quotient, pool) if isinstance(S, QuotientMatrix)]
    assert len({frozenset(quotient_spectrum(S)) for S in quotients}) >= 3
    cases = []
    for C in pool:
        cases += [(C, S) for S in quotients]
        if C.k > 1:
            perturbed = np.array(C.table)
            v = int(rng.integers(0, perturbed.size))
            perturbed[v] = (perturbed[v] + rng.integers(1, C.k)) % C.k
            cases += [(_relabeled(perturbed, q), S) for S in quotients]
    seen = set()
    for C, S in cases:
        expected = transform_eigen_check(C, S)
        assert eigen_decomposition_check(C, S) == expected
        seen.add((isinstance(compute_quotient(C), QuotientMatrix), expected))
    assert seen == {(p, e) for p in (False, True) for e in (False, True)}


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
    for n, q in [(0, 2), (1, 7), (5, 2), (3, 4), (2, 5), (1, 60000), (10, 3)]:
        w = hamming_weights(n, q)
        assert w.dtype == np.uint8 and not w.flags.writeable
        assert w.tolist() == [sum(1 for d in digits(v, n, q) if d) for v in range(q**n)]


def test_coloring_degree_keeps_no_table():
    # H(21, 2) is transformed by no other test, so nothing of its size is
    # cached before the call; after it, nothing of its size may stay.
    n = 21
    idx = np.arange(2**n)
    table = np.zeros(2**n, dtype=np.int64)
    for p in range(n):
        table ^= (idx >> p) & 1
    C = Coloring.from_table(table, q=2)
    del idx, table
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        assert coloring_degree(C).per_color == (n, n)
        kept = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert kept < 2**19


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
