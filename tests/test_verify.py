from fractions import Fraction

import numpy as np
import pytest

from pcol.core import GUARD_ENV_VAR, Coloring, QuotientMatrix, neighbors
from pcol.errors import (DisconnectedError, InconsistentError,
                         NotSurjectiveError, OutOfRangeError,
                         SpectrumNotInGraphError, TooLargeError)
from pcol.verify import (NonPerfectWitness, check_uniform, compute_quotient,
                         densities_by_count, densities_from_quotient,
                         essential_arguments, quotient_spectrum,
                         search_colorings, verification_report)
from scalar_oracle import int_rank, rank_spectrum


def parity(n):
    return Coloring.from_table([bin(v).count("1") % 2 for v in range(2**n)], q=2)


def hamming_code_characteristic():
    # color 0 = the Hamming code of length 7 (syndrome 0), color 1 = the rest
    return Coloring.merged(Coloring.syndrome(3), [[0], list(range(1, 8))])


def brute_quotient(C):
    """Independent oracle: per-vertex neighbor profiles via plain loops.

    Returns the quotient rows, or the first witness in vertex-index order.
    """
    Cm = C.materialize()
    first = {}
    profiles = {}
    for v in range(Cm.q**Cm.n):
        cnt = [0] * Cm.k
        for u in neighbors(v, Cm.n, Cm.q):
            cnt[int(Cm.table[u])] += 1
        cv = int(Cm.table[v])
        if cv in profiles and profiles[cv] != tuple(cnt):
            return NonPerfectWitness(cv, first[cv], v, profiles[cv], tuple(cnt))
        first.setdefault(cv, v)
        profiles[cv] = tuple(cnt)
    return [list(profiles[i]) for i in range(Cm.k)]


def brute_essential(C):
    """Independent oracle: position i is essential iff some edge in direction i
    joins two colors; neighbors() lists the q-1 neighbors per position in order."""
    Cm = C.materialize()
    n, q = Cm.n, Cm.q
    mask = [False] * n
    for v in range(q**n):
        nbrs = neighbors(v, n, q)
        for i in range(n):
            if any(Cm.table[u] != Cm.table[v] for u in nbrs[i * (q - 1):(i + 1) * (q - 1)]):
                mask[i] = True
    return tuple(mask)


def _relabeled(values, q):
    _, table = np.unique(np.asarray(values), return_inverse=True)
    return Coloring.from_table(table, q=q)


def random_colorings(rng):
    """Random, perfect and perturbed-perfect colorings for q = 2..5, n from 0.

    Perfect ones are Z_q-linear maps to Z_q**m (zero columns give dummy
    positions; m = 2 gives q = 2 up to four colors) moved by a random
    automorphism of H(n, q): an axis permutation and an alphabet permutation
    per axis.  q = 2 runs to n = 9, so the bit-sliced kernel sees partial
    words (n < 6), digit swaps inside a word and swaps of whole words.
    """
    for q, n_max, k_max in ((2, 9, 5), (3, 4, 4), (4, 3, 4), (5, 3, 4)):
        for n in range(n_max + 1):
            N = q**n
            k = int(rng.integers(min(N, 2), min(N, k_max) + 1))
            yield _relabeled(rng.permutation(np.arange(N) % k), q)

            m = 1 if q > 2 else int(rng.integers(1, 3))
            coeffs = rng.integers(0, q, size=(m, n))
            digit = np.arange(N) // q ** np.arange(n)[:, None] % q  # (n, N)
            cube = (q ** np.arange(m) @ (coeffs @ digit % q)).reshape((q,) * n)
            for axis in range(n):
                cube = np.take(cube, rng.permutation(q), axis=axis)
            cube = cube.transpose(rng.permutation(n))
            labels = rng.permutation(q**m)
            perfect = _relabeled(labels[cube], q)
            yield perfect

            perturbed = np.array(perfect.table)
            perturbed[rng.integers(0, N)] = rng.integers(0, perfect.k)
            yield _relabeled(perturbed, q)


def test_kernels_match_scalar_oracle_on_random_colorings():
    rng = np.random.default_rng(20241204)
    seen = set()
    binary = set()
    for _ in range(2):
        for C in random_colorings(rng):
            expected = brute_quotient(C)
            mask = brute_essential(C)
            witness = isinstance(expected, NonPerfectWitness)
            seen.add((C.q, witness))
            if C.q == 2:
                binary.add((C.k, C.n > 6, witness))
            S = compute_quotient(C)
            got = S.as_lists() if isinstance(S, QuotientMatrix) else S
            assert got == expected, C.table.tolist()
            assert essential_arguments(C) == mask
    assert seen == {(q, w) for q in (2, 3, 4, 5) for w in (False, True)}
    # q = 2 reaches five colors, and tables of several words give both outcomes
    # with more than two colors.
    assert max(k for k, _, _ in binary) == 5
    assert {(True, w) for w in (False, True)} <= {(big, w) for k, big, w in binary if k > 2}


def scalar_first_witness(table, n, rows, perturbed):
    """First witness after one vertex of a perfect 2-coloring with quotient rows
    changed color.  Only that vertex and its neighbors can have a profile other
    than rows[color], so only theirs are counted, with core.neighbors."""
    def profile(v):
        prof = [0] * len(rows)
        for u in neighbors(v, n, 2):
            prof[int(table[u])] += 1
        return tuple(prof)

    affected = {perturbed, *neighbors(perturbed, n, 2)}
    first = {}
    for v, color in enumerate(table.tolist()):
        prof = profile(v) if v in affected else tuple(rows[color])
        if color not in first:
            first[color] = (v, prof)
        elif prof != first[color][1]:
            a = first[color][0]
            return NonPerfectWitness(color, a, v, profile(a), profile(v))
    return None


def test_full_size_witness_matches_scalar_oracle():
    from pcol.constructions import construct_bc

    built = construct_bc(10, 6)
    table = built.coloring.materialize().table
    rows = built.predicted_quotient.as_lists()
    # A vertex in word 0, the last vertex, and vertex 2**11, the first of
    # the word halves that a change of digit 11 swaps.
    for v in (5, table.size - 1, 2**11):
        recolored = table.copy()
        recolored[v] ^= 1
        witness = compute_quotient(Coloring.from_table(recolored, q=2))
        assert isinstance(witness, NonPerfectWitness)
        assert witness == scalar_first_witness(recolored, 22, rows, v)


def test_kernels_edge_cases():
    # k = 1 for every n; n = 0 is H(0, q), one vertex and no edges
    for q in (2, 3, 5):
        for n in (0, 1, 3):
            const = Coloring.from_table([0] * q**n, q=q)
            assert (const.n, const.k) == (n, 1)
            assert compute_quotient(const).as_lists() == [[n * (q - 1)]]
            assert essential_arguments(const) == (False,) * n
    # n = 1 at q = 256 and 65536: the uint8 and uint16 count dtypes wrap q to
    # 0, so a full line sum reads 0.
    for q in (256, 65536):
        const = Coloring.from_table(np.zeros(q, np.uint8), q=q)
        assert compute_quotient(const).as_lists() == [[q - 1]]
        assert essential_arguments(const) == (False,)
        halves = Coloring.from_table(np.arange(q) >= q // 2, q=q)
        assert compute_quotient(halves).as_lists() == [[q // 2 - 1, q // 2], [q // 2, q // 2 - 1]]
        assert essential_arguments(halves) == (True,)
    # Degrees past uint8 and uint16 use the wider count dtypes.
    for n, q, rows in ((2, 300, [[498, 100], [200, 398]]),
                       (1, 65537, [[43691, 21845], [43692, 21844]])):
        values = (np.arange(q**n) % q < q // 3).astype(np.uint8)
        assert compute_quotient(Coloring.from_table(values, q=q)).as_lists() == rows
        values[5] ^= 1
        flipped = Coloring.from_table(values, q=q)
        got = compute_quotient(flipped)
        if n == 2:
            # brute_quotient stops at the first witness, vertex 100
            assert got == brute_quotient(flipped)
        else:
            # every 2-coloring of H(1, q) = K_q is perfect; the rows are the
            # profiles of the first vertex of colors 0 and 1, vertices 5 and 0
            assert got.as_lists() == [
                np.bincount(values[neighbors(v, n, q)], minlength=2).tolist()
                for v in (5, 0)]


def test_library_rejects_nonpositive_threads():
    # k = 1 runs no count loop, so the check must not depend on one
    for C in (parity(3), Coloring.from_table([0] * 8, q=2)):
        for threads in (0, -2):
            with pytest.raises(OutOfRangeError):
                verification_report(C, threads=threads)


def test_quotient_reports_first_missing_color():
    # absent colors, with vertex 0 holding color 0 or not: no table that
    # misses one is ever built, so no quotient can be asked of it
    for values, k, missing in (([1, 1, 3, 1], 4, 0), ([0, 0, 0, 2], 3, 1),
                               ([0, 1, 1, 0, 1, 0, 0, 1], 4, 2)):
        with pytest.raises(NotSurjectiveError) as ei:
            Coloring.from_table(values, q=2, k=k)
        assert ei.value.missing_color == missing


def test_parity_quotient():
    S = compute_quotient(parity(3))
    assert isinstance(S, QuotientMatrix)
    assert S.as_lists() == [[0, 3], [3, 0]]


def test_hamming_code_quotient():
    S = compute_quotient(hamming_code_characteristic())
    assert S.as_lists() == [[0, 7], [1, 6]]


def test_quotient_matches_brute_force_oracle():
    for C in (parity(3), hamming_code_characteristic(),
              Coloring.from_table([0, 1, 2, 0, 1, 2, 0, 1, 2], q=3)):
        S = compute_quotient(C)
        oracle = brute_quotient(C)
        if isinstance(S, QuotientMatrix):
            assert S.as_lists() == oracle
        else:
            assert S == oracle


def test_and_gate_witness():
    C = Coloring.from_table([0, 0, 0, 1], q=2)
    w = compute_quotient(C)
    assert isinstance(w, NonPerfectWitness)
    assert (w.vertex_a, w.vertex_b) == (0, 1)
    assert w.profile_a == (2, 0)
    assert w.profile_b == (1, 1)
    assert w.color == 0


def test_essential_single_variable():
    C = Coloring.from_table([v & 1 for v in range(8)], q=2)
    assert essential_arguments(C) == (True, False, False)


def test_essential_dummy_coordinate():
    C = parity(2)
    D = Coloring.cylinder(C, n=3, offset=0)
    assert essential_arguments(D) == (True, True, False)


def test_essential_all_for_union_coloring():
    inside = [[0, 1, 2], [3, 4, 5, 6, 7]]
    C = Coloring.merged(Coloring.syndrome(3), inside)
    assert essential_arguments(C) == (True,) * 7


def test_one_coloring_all_inessential():
    C = Coloring.merged(parity(2), [[0, 1]])
    assert essential_arguments(C) == (False, False)


def test_densities_by_count():
    assert densities_by_count(parity(3)) == (Fraction(1, 2), Fraction(1, 2))
    assert densities_by_count(hamming_code_characteristic()) == \
        (Fraction(1, 8), Fraction(7, 8))


def test_densities_from_quotient():
    assert densities_from_quotient([[0, 3], [1, 2]]) == (Fraction(1, 4), Fraction(3, 4))
    assert densities_from_quotient([[2, 5], [3, 4]]) == (Fraction(3, 8), Fraction(5, 8))
    assert densities_from_quotient([[1, 23], [9, 15]]) == (Fraction(9, 32), Fraction(23, 32))
    assert densities_from_quotient([[1, 2], [2, 1]]) == (Fraction(1, 2), Fraction(1, 2))
    assert densities_from_quotient([[0, 8, 8], [8, 0, 8], [8, 8, 0]]) == (Fraction(1, 3),) * 3


def test_densities_row_sum_mismatch():
    with pytest.raises(InconsistentError):
        densities_from_quotient([[0, 2], [1, 2]])
    for rows in ([[1, 2], [2, 1], [0, 3]], [[1, 2], [2]]):
        with pytest.raises(OutOfRangeError, match="quotient matrix must be square"):
            densities_from_quotient(rows)


def test_densities_cycle_inconsistency():
    with pytest.raises(InconsistentError):
        densities_from_quotient([[0, 2, 2], [1, 0, 3], [3, 1, 0]])
    # Row sums and sign pattern are fine, but the ratios around the triangle
    # 0 -> 1 -> 2 -> 0 multiply to 8, not 1.
    with pytest.raises(InconsistentError, match="detailed balance fails"):
        densities_from_quotient([[0, 2, 1], [1, 0, 2], [2, 1, 0]])


def test_densities_disconnected():
    with pytest.raises(DisconnectedError):
        densities_from_quotient([[2, 0], [0, 2]])


def test_densities_zero_pattern_asymmetric():
    with pytest.raises(InconsistentError):
        densities_from_quotient([[2, 1, 0], [1, 0, 2], [1, 1, 1]])


def test_quotient_spectrum_examples():
    assert quotient_spectrum([[0, 3], [1, 2]], 3, 2) == {3: 1, -1: 1}
    assert quotient_spectrum([[12, 10], [6, 16]], 22, 2) == {22: 1, 6: 1}
    assert quotient_spectrum([[0, 1], [1, 0]], 1, 2) == {1: 1, -1: 1}
    assert quotient_spectrum([[1, 23], [9, 15]], 24, 2) == {24: 1, -8: 1}
    assert quotient_spectrum([[1, 2], [2, 1]], 3, 2) == {3: 1, -1: 1}
    with pytest.raises(OutOfRangeError, match="n and q are required for a raw matrix"):
        quotient_spectrum([[0, 1], [1, 0]])
    # Row sums of 16 are the degree of H(8, 3), not of H(4, 3), whose
    # spectrum 8 - 3i holds neither 16 nor -8.
    rows = [[0, 8, 8], [8, 0, 8], [8, 8, 0]]
    assert quotient_spectrum(rows, 8, 3) == {16: 1, -8: 2}
    with pytest.raises(SpectrumNotInGraphError):
        quotient_spectrum(rows, 4, 3)
    # Ragged and rectangular matrices, before any spectrum is sought.
    for rows in ([[2, 1], [1]], [[1, 2, 3], [4, 5, 6]], [[1, 2], [2, 1], [0, 3]]):
        with pytest.raises(OutOfRangeError, match="quotient matrix must be square"):
            quotient_spectrum(rows, 3, 2)
        with pytest.raises(OutOfRangeError, match="quotient matrix must be square"):
            search_colorings(2, 2, rows)


def _chain_bound(rows, n, q):
    """The product of the factors' absolute row sums, at least 1 each, that
    decides quotient_spectrum's carrier: int64 below 2**63."""
    bound = 1
    for i in range(n + 1):
        lam = n * (q - 1) - q * i
        bound *= max([1] + [sum(abs(e - lam * (a == b)) for b, e in enumerate(row))
                            for a, row in enumerate(rows)])
    return bound


def test_quotient_spectrum_matches_rank_oracle():
    from pcol.constructions import construct_bc, rm_quotient

    cases = [(rm_quotient(q**s, q).as_lists(), q**s, q)
             for q, s in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1), (5, 1), (7, 1), (8, 1))]
    # rho = 1/4 with e = 1..6: bc(3e, e) on H(7 * 2**(e-1) - 4, 2), up to n = 220.
    for e in range(1, 7):
        S = construct_bc(3 * e, e).predicted_quotient
        cases.append((S.as_lists(), S.n, 2))
    for n in range(7):
        S = compute_quotient(Coloring.from_table(np.arange(2**n), q=2))
        cases.append((S.as_lists(), n, 2))
    rng = np.random.default_rng(20241204)
    for C in random_colorings(rng):
        S = compute_quotient(C)
        if isinstance(S, QuotientMatrix):
            cases.append((S.as_lists(), C.n, C.q))
    # Both carriers: the bc quotients from e = 3 (H(24, 2)) on pass the int64
    # bound, and every other case stays below it.
    sides = {_chain_bound(rows, n, q) < 2**63 for rows, n, q in cases}
    assert sides == {True, False}
    for rows, n, q in cases:
        assert list(quotient_spectrum(rows, n, q).items()) == list(rank_spectrum(rows, n, q).items())

    # A Jordan block on a graph eigenvalue, and eigenvalues +-2 outside
    # H(3, 2)'s 3, 1, -1, -3, on both sides of the bound.
    must_raise = [([[1, 1], [0, 1]], 3, 2), ([[0, 2], [2, 0]], 3, 2),
                  ([[2, 1], [0, 2]], 40, 2), ([[1, 39], [38, 2]], 40, 2)]
    assert {_chain_bound(*case) < 2**63 for case in must_raise} == {True, False}
    for rows, n, q in must_raise:
        with pytest.raises(ValueError):
            rank_spectrum(rows, n, q)
        with pytest.raises(SpectrumNotInGraphError):
            quotient_spectrum(rows, n, q)


def test_quotient_spectrum_float_oracle():
    rng = np.random.default_rng(7)
    cases = [([[0, 3], [1, 2]], 3, 2), ([[12, 10], [6, 16]], 22, 2),
             ([[1, 23], [9, 15]], 24, 2), ([[2, 5], [3, 4]], 7, 2)]
    for rows, n, q in cases:
        exact = quotient_spectrum(rows, n, q)
        approx = sorted(np.linalg.eigvals(np.array(rows, dtype=float)).real)
        expanded = sorted(lam for lam, m in exact.items() for _ in range(m))
        assert np.allclose(approx, expanded, atol=1e-9)
    del rng


def test_quotient_spectrum_not_in_graph():
    with pytest.raises(SpectrumNotInGraphError):
        quotient_spectrum([[0, 2], [2, 0]], 3, 2)


def test_quotient_spectrum_from_object():
    S = compute_quotient(parity(3))
    assert quotient_spectrum(S) == {3: 1, -3: 1}


def test_check_uniform_translations_of_parity():
    C = parity(2)
    members = [Coloring.translation(C, z) for z in range(4)]
    res = check_uniform(members)
    assert res.uniform and res.exhaustive
    assert res.multiplicities == (2, 2)


def test_check_uniform_rejects_repeated_nonconstant():
    C = Coloring.from_table([0, 1, 1, 1], q=2)
    res = check_uniform([C, C])
    assert not res.uniform
    assert res.witness_vertex is not None


def test_check_uniform_guard_and_sampling(monkeypatch):
    members = [Coloring.translation(parity(3), z) for z in range(8)]
    monkeypatch.setenv(GUARD_ENV_VAR, "16")
    with pytest.raises(TooLargeError):
        check_uniform(members)
    res = check_uniform(members, sample=20)
    assert res.uniform and not res.exhaustive
    assert res.multiplicities == (4, 4)


def test_search_colorings_four_cycle():
    found = search_colorings(2, 2, [[0, 2], [2, 0]], require_all_essential=True)
    tables = [c.table.tolist() for c in found]
    assert [0, 1, 1, 0] in tables
    assert all(t in ([0, 1, 1, 0], [1, 0, 0, 1]) for t in tables)


def test_search_colorings_remark():
    essential_only = search_colorings(3, 2, [[1, 2], [2, 1]], require_all_essential=True)
    assert essential_only == []
    unrestricted = search_colorings(3, 2, [[1, 2], [2, 1]])
    assert unrestricted
    # each hit really does have a dummy argument and the right matrix
    for c in unrestricted[:3]:
        assert compute_quotient(c).as_lists() == [[1, 2], [2, 1]]
        assert not all(essential_arguments(c))


def test_search_colorings_guard(monkeypatch):
    # H(3, 2) with two colors has 2**(2**3) = 256 assignments.
    from pcol import verify

    monkeypatch.setattr(verify, "DEFAULT_ASSIGNMENT_GUARD", 255)
    with pytest.raises(TooLargeError, match="exceed the guard 255"):
        search_colorings(3, 2, [[1, 2], [2, 1]])
    monkeypatch.setattr(verify, "DEFAULT_ASSIGNMENT_GUARD", 256)
    assert search_colorings(3, 2, [[1, 2], [2, 1]])


def test_search_deterministic_order():
    a = search_colorings(2, 2, [[0, 2], [2, 0]])
    b = search_colorings(2, 2, [[0, 2], [2, 0]])
    assert [c.table.tolist() for c in a] == [c.table.tolist() for c in b]


def test_verification_report_round():
    rep = verification_report(parity(3), essential=True)
    assert rep.perfect
    assert rep.quotient.as_lists() == [[0, 3], [3, 0]]
    assert rep.densities == (Fraction(1, 2), Fraction(1, 2))
    assert rep.spectrum == {3: 1, -3: 1}
    assert rep.essential == (True, True, True)

    bad = Coloring.from_table([0, 0, 0, 1], q=2)
    rep = verification_report(bad)
    assert not rep.perfect
    assert rep.witness is not None
    assert rep.spectrum is None


def test_essential_mask_comes_from_the_count_pass(monkeypatch):
    from pcol import verify

    for values, q, kernel in (([0, 1, 1, 0, 1, 1, 1, 0], 2, "_bitsliced_columns"),
                              ([0, 1, 2, 0, 1, 2, 0, 1, 2], 3, "_digit_axis_columns")):
        calls = []
        counted = getattr(verify, kernel)
        monkeypatch.setattr(verify, kernel, lambda *args: calls.append(args) or counted(*args))
        C = Coloring.from_table(values, q=q)
        assert verification_report(C, essential=True).essential == brute_essential(C)
        assert essential_arguments(C) == brute_essential(C)
        assert len(calls) == 1


def test_densities_match_detailed_balance():
    for C in (parity(3), hamming_code_characteristic()):
        S = compute_quotient(C)
        assert densities_by_count(C) == densities_from_quotient(S)


def test_int_rank_against_float_oracle():
    rng = np.random.default_rng(99)
    for _ in range(200):
        rows = int(rng.integers(1, 6))
        cols = int(rng.integers(1, 6))
        M = rng.integers(-4, 5, size=(rows, cols))
        if rng.random() < 0.4 and rows > 1:
            M[rows - 1] = M[0] * int(rng.integers(-2, 3))  # force dependence
        exact = int_rank(M.tolist())
        assert exact == np.linalg.matrix_rank(M.astype(float))


def test_search_chunking_agrees(monkeypatch):
    import pcol.verify as verify_mod

    full = [c.table.tolist()
            for c in search_colorings(3, 2, [[1, 2], [2, 1]])]
    monkeypatch.setattr(verify_mod, "_SEARCH_CHUNK_CELLS", 64)
    chunked = [c.table.tolist()
               for c in search_colorings(3, 2, [[1, 2], [2, 1]])]
    assert full == chunked


def test_check_uniform_shape_mismatch():
    from pcol.errors import OutOfRangeError

    a = parity(2)
    b = parity(3)
    with pytest.raises(OutOfRangeError):
        check_uniform([a, b])
    with pytest.raises(OutOfRangeError, match="empty collection"):
        check_uniform([])


def test_check_uniform_density_cross_check():
    from pcol.constructions import hamming_cosets, hamming_union_collection

    col = hamming_union_collection(hamming_cosets(3), 3)
    res = check_uniform(col)
    assert res.matches_density is True
    # a bare list has no attached quotient to compare against
    res = check_uniform(list(col.colorings))
    assert res.matches_density is None


def test_check_uniform_sampled_witness(monkeypatch):
    # two copies of a non-constant coloring: some sampled vertex must expose
    # a multiset differing from vertex 0's
    C = Coloring.from_table([0, 1, 1, 1, 1, 1, 1, 1], q=2)
    monkeypatch.setenv(GUARD_ENV_VAR, "4")
    res = check_uniform([C, C], sample=50)
    assert not res.uniform
    assert not res.exhaustive
    assert res.witness_vertex is not None
    with pytest.raises(OutOfRangeError):
        check_uniform([C, C], sample=-1)
    assert res.witness_counts != res.base_counts


def test_check_uniform_witness_is_the_lowest_varying_color():
    # Vertex 1 already differs from vertex 0 in colors 1 and 2, but the
    # witness follows color 0, whose count first differs at vertex 2; the
    # sampled check applies the same rule in draw order.
    A = Coloring.from_table([0, 0, 1, 2], q=2)
    B = Coloring.from_table([1, 2, 1, 0], q=2)
    for sample in (None, 10):
        res = check_uniform([A, B], sample=sample)
        assert (res.uniform, res.exhaustive) == (False, sample is None)
        assert res.witness_vertex == 2
        assert (res.witness_counts, res.base_counts) == ((0, 2, 0), (1, 1, 0))


def _uniform_witness_oracle(members, verts):
    """By per-vertex evaluate calls: the witness (the first vertex of verts where
    the lowest varying color's count differs from vertex 0's, its counts and
    vertex 0's), or None, and the first vertex where any count differs."""
    k = members[0].k
    counts = [np.bincount([c.evaluate(v) for c in members], minlength=k) for v in verts]
    base = np.bincount([c.evaluate(0) for c in members], minlength=k)
    varies = [v for v, cnt in zip(verts, counts) if (cnt != base).any()]
    for i in range(k):
        for v, cnt in zip(verts, counts):
            if cnt[i] != base[i]:
                return (v, tuple(cnt.tolist()), tuple(base.tolist())), varies[0]
    return None, None


def test_check_uniform_matches_oracle_across_blocks(monkeypatch):
    # Color-shifted copies of a random coloring are uniform; changing a few
    # cells makes colors vary in different blocks, so the witness is not
    # always the first vertex where some count differs.
    from pcol import core, verify

    # The exhaustive mode walks core._eval_blocks, which reads the block size there.
    monkeypatch.setattr(core, "_MATERIALIZE_BLOCK", 8)
    rng = np.random.default_rng(0xC0DE)
    outcomes = set()
    for q, n, k in ((2, 6, 3), (3, 4, 4), (2, 5, 5), (2, 7, 2)):
        N = q**n
        for _ in range(12):
            base = rng.integers(0, k, N)
            tables = [(base + j) % k for j in range(k)]
            for _ in range(rng.integers(0, 5)):
                tables[rng.integers(k)][rng.integers(1, N)] = rng.integers(k)
            members = [Coloring.from_table(t, q, k) for t in tables]
            assert len(list(core._eval_blocks(members))) == -(-N // 8)
            draws = np.random.default_rng(verify._SAMPLE_SEED).integers(0, N, size=100).tolist()
            for sample, verts in ((None, range(N)), (100, [0] + draws)):
                expect, first_varying = _uniform_witness_oracle(members, verts)
                res = check_uniform(members, sample=sample)
                got = (res.witness_vertex, res.witness_counts, res.base_counts)
                assert res.uniform == (expect is None)
                assert got == (expect or (None, None, None))
                if expect is None:
                    assert res.multiplicities == (1,) * k
                outcomes.add((sample, expect is None, got[0] == first_varying))
    assert {(s, False, False) for s in (None, 100)} <= outcomes
    assert {(s, u, True) for s in (None, 100) for u in (False, True)} <= outcomes

    # Outer nodes over one E read the same columns, and the exhaustive check
    # counts colors on their window tables, evaluating no node (the spy
    # records every outer node's eval): rotations of a uniform inner
    # collection are uniform, random tuples give witnesses.  A member over
    # another E takes the eval walk, whose blocks the walk counts.
    from pcol.constructions import (construct_bc, recursive_step, rm_coloring,
                                    translations_collection)

    outer_eval = core._OuterBody.eval
    evaluated = []

    def spy(self, idx):
        evaluated.append(self)
        return outer_eval(self, idx)

    monkeypatch.setattr(core._OuterBody, "eval", spy)
    outer_outcomes = set()

    def check_outer(members):
        N = members[0].q ** members[0].n
        windows = verify._window_block(members) is not None
        expect, _ = _uniform_witness_oracle(members, range(N))
        evaluated.clear()
        res = check_uniform(members)
        assert res.uniform == (expect is None)
        assert (res.witness_vertex, res.witness_counts, res.base_counts) == (
            expect or (None, None, None))
        assert res.exhaustive
        if windows:
            assert evaluated == []
        else:
            assert {id(c.body) for c in members} <= {id(b) for b in evaluated}
            assert len(list(core._eval_blocks(members))) == -(-N // 8)
        outer_outcomes.add((windows, expect is None))
        return windows, expect is None

    for q, s, nb, k in ((2, 1, 2, 2), (2, 2, 1, 2), (3, 1, 1, 3), (2, 2, 2, 4)):
        E = rm_coloring(q, s).materialize()
        M = E.n
        for t in range(8):
            inner = []
            for _ in range(M):
                table = rng.integers(0, k, q**nb)
                table[rng.choice(q**nb, k, replace=False)] = np.arange(k)
                inner.append(Coloring.from_table(table, q, k))
            if t >= 6:
                # Color-shifted copies of one table: a uniform inner collection.
                inner = [Coloring.from_table((inner[0].table + z) % k, q, k) for z in range(M)]
            tuples = ([inner[i:] + inner[:i] for i in range(M)] if t % 3 == 0 or t >= 6 else
                      [[inner[z] for z in rng.integers(0, M, M)] for _ in range(rng.integers(2, 5))])
            outers = [E] * len(tuples)
            if t == 5:
                outers[-1] = Coloring.translation(E, (1,) + (0,) * (M - 1))
            members = [Coloring.outer(m, e) for m, e in zip(tuples, outers)]
            windows, uniform = check_outer(members)
            assert windows == (t != 5) and (uniform or t < 6)
    # Two collections the step builds, and each with member 1 replaced by member 0.
    line3 = Coloring.from_table([0, 1, 2], q=3)
    for col in (construct_bc(6, 2).collection,
                recursive_step(translations_collection(line3), rm_coloring(3, 1))):
        members = list(col.colorings)
        assert check_outer(members) == (True, True) and check_uniform(col).matches_density
        members[1] = members[0]
        assert check_outer(members) == (True, False)
    assert {(True, True), (True, False)} < outer_outcomes
