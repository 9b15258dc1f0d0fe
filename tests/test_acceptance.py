"""Acceptance suite: one test per criterion, each printing a PASS line
with its timing (through the capture, so it shows in any pytest run)."""
import json
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from pcol.cli import report_json
from pcol.constructions import (RecursionSpec, construct_bc,
                                construct_unbalanced_boolean, hamming_cosets,
                                hamming_union_collection, hamming_union_coloring,
                                iterate_construction, recursive_step,
                                rm_coloring, rm_quotient,
                                translations_collection)
from pcol.core import GUARD_ENV_VAR, Coloring, QuotientMatrix
from pcol.errors import NotPrimePowerError
from pcol.gf import FieldTable, check_axioms
from pcol.spectral import coloring_degree, eigen_decomposition_check
from pcol.verify import (check_uniform, compute_quotient, densities_by_count,
                         densities_from_quotient, quotient_spectrum,
                         search_colorings, verification_report)


def report(capsys, num, desc, elapsed=None):
    suffix = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    with capsys.disabled():
        print(f"ACCEPTANCE {num} PASS: {desc}{suffix}")


@pytest.fixture(scope="module")
def flagship():
    built = construct_bc(10, 6)
    return built, built.coloring.materialize()


def parity(n):
    return Coloring.from_table([bin(v).count("1") % 2 for v in range(2**n)], q=2)


RM_SWEEP = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1), (5, 1)]


def test_criterion_1_rm_sweep(capsys):
    t0 = time.perf_counter()
    for q, s in RM_SWEEP:
        C = rm_coloring(q, s)
        S = compute_quotient(C)
        assert isinstance(S, QuotientMatrix), (q, s)
        assert S == rm_quotient(q**s, q), (q, s)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(capsys, 1, f"RM-like sweep over {RM_SWEEP} exhaustively verified", elapsed)


def test_criterion_2_flagship(flagship, capsys):
    built, explicit = flagship
    t0 = time.perf_counter()
    fresh = construct_bc(10, 6)
    assert fresh.coloring.n == 22 and fresh.coloring.q == 2
    assert (2 * 8 - 1) * 2 - 8 == 22
    rep1 = verification_report(fresh.coloring.materialize(), essential=True, threads=1)
    single = time.perf_counter() - t0
    assert single < 180.0

    assert rep1.perfect
    assert rep1.quotient.as_lists() == [[12, 10], [6, 16]]
    assert rep1.quotient.as_lists() == [[22 - 10, 10], [6, 22 - 6]]
    assert rep1.essential == (True,) * 22
    assert rep1.densities == (Fraction(3, 8), Fraction(5, 8))
    assert rep1.spectrum == {22: 1, 6: 1}  # lambda_0 and lambda_8

    t1 = time.perf_counter()
    rep8 = verification_report(explicit, essential=True, threads=8)
    eight = time.perf_counter() - t1
    assert eight < 45.0

    bytes1 = json.dumps(report_json(rep1), sort_keys=True).encode()
    bytes8 = json.dumps(report_json(rep8), sort_keys=True).encode()
    assert bytes1 == bytes8
    report(capsys, 2, f"H(22,2) flagship verified (single {single:.1f}s, 8 threads "
              f"{eight:.1f}s, byte-identical reports)")


def test_criterion_3_boolean_instances(capsys):
    t0 = time.perf_counter()
    cases = [
        ((1, 4, 1), 3, Fraction(1, 4), 2),
        ((1, 2, 2), 4, Fraction(1, 2), 2),
        ((1, 2, 3), 10, Fraction(1, 2), 3),
    ]
    for (r, s, e), n, rho, deg in cases:
        res = construct_unbalanced_boolean(r, s, e)
        assert res.coloring.n == n
        assert res.verified
        assert densities_by_count(res.coloring)[0] == rho
        assert res.degree_report.per_color == (deg, deg)
        assert res.degree_report.degree == e * s // 2 == deg
        assert res.essential == (True,) * n
    report(capsys, 3, "Boolean builder instances (1,4,1), (1,2,2), (1,2,3) verified",
           time.perf_counter() - t0)


def test_criterion_4_flagship_degree(flagship, capsys):
    _, explicit = flagship
    t0 = time.perf_counter()
    rep = coloring_degree(explicit)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    assert rep.per_color == (8, 8)
    assert rep.degree == 8 == 2 * 8 // 2
    report(capsys, 4, "flagship degree 8 = es/2 via Walsh-Hadamard over 2**22 points",
           elapsed)


def test_criterion_5_remark_reproduction(capsys):
    t0 = time.perf_counter()
    essential_only = search_colorings(QuotientMatrix.of([[1, 2], [2, 1]], 3, 2),
                                      require_all_essential=True)
    assert essential_only == []
    unrestricted = search_colorings(QuotientMatrix.of([[1, 2], [2, 1]], 3, 2))
    assert unrestricted
    four_cycle = search_colorings(QuotientMatrix.of([[0, 2], [2, 0]], 2, 2),
                                  require_all_essential=True)
    assert [0, 1, 1, 0] in [c.table.tolist() for c in four_cycle]
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(capsys, 5, "quotient [[1,2],[2,1]] exists on H(3,2) only with a dummy "
              "argument; the 4-cycle coloring found on H(2,2)", elapsed)


def _random_bases():
    rng = np.random.default_rng(0xC010471)
    bases = [
        parity(2), parity(4), parity(6), parity(12),
        rm_coloring(2, 2).materialize(),
        Coloring.syndrome(2).materialize(),
        Coloring.syndrome(3).materialize(),
        hamming_union_coloring(hamming_cosets(3), 0, 3).materialize(),
        Coloring.merged(Coloring.syndrome(2), [[0, 1], [2, 3]]).materialize(),
    ]
    params = [(3, 2, 2), (4, 2, 3), (5, 2, 2), (6, 2, 4), (2, 3, 3),
              (3, 3, 2), (4, 3, 5), (2, 4, 4), (3, 4, 2), (2, 5, 3), (5, 3, 6)]
    for n, q, k in params:
        N = q**n
        table = rng.integers(0, k, size=N)
        # plant every color so the table is surjective
        spots = rng.choice(N, size=k, replace=False)
        table[spots] = np.arange(k)
        bases.append(Coloring.from_table(table, q=q, k=k))
    return bases


def test_criterion_6_uniformity_suite(flagship, capsys):
    t0 = time.perf_counter()
    bases = _random_bases()
    assert len(bases) == 20
    for C in bases:
        col = translations_collection(C)
        res = check_uniform(col)
        assert res.uniform, C
        counts = tuple(int(x) for x in np.bincount(C.table, minlength=C.k))
        assert res.multiplicities == counts, C  # rho_i * q**n

    union_col = hamming_union_collection(hamming_cosets(3), 3)
    res = check_uniform(union_col)
    assert res.uniform
    assert res.multiplicities == (3, 5)  # union side has multiplicity c' = 3
    assert res.matches_density is True

    small = recursive_step(hamming_union_collection(hamming_cosets(1), 1),
                           rm_coloring(2, 1))
    assert check_uniform(small).uniform
    two_step = iterate_construction(
        RecursionSpec(hamming_union_collection(hamming_cosets(1), 1),
                      rm_coloring(2, 1), 2))
    assert check_uniform(two_step.collection).uniform
    built, _ = flagship
    tracemalloc.start()
    try:
        flag = check_uniform(built.collection)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert flag.uniform and flag.matches_density is True
    # Colors are counted on the members' rows, 16 cells per 256 vertices,
    # and never on the 8 member tables side by side (44 MiB): 0.8 MiB traced.
    assert peak < 6 * 2**20
    report(capsys, 6, "translation, coset-union, and recursion collections all uniform "
              "with counting multiplicities", time.perf_counter() - t0)


def _constructed_perfect_colorings(flagship_pair):
    built, explicit = flagship_pair
    out = [rm_coloring(q, s) for q, s in RM_SWEEP]
    for m in (1, 2, 3, 4):
        M = 1 << m
        part = hamming_cosets(m)
        out.extend(hamming_union_coloring(part, 0, c) for c in range(1, M, 2))
        out.append(part.coloring)
    small = recursive_step(hamming_union_collection(hamming_cosets(1), 1),
                           rm_coloring(2, 1))
    out.append(small.colorings[0])
    out.append(construct_unbalanced_boolean(1, 2, 3).coloring)
    out.append(explicit)
    return out


def test_criterion_7_consistency_triangle(flagship, capsys):
    t0 = time.perf_counter()
    for C in _constructed_perfect_colorings(flagship):
        S = compute_quotient(C)
        assert isinstance(S, QuotientMatrix), C
        assert densities_by_count(C) == densities_from_quotient(S), C
        spec = quotient_spectrum(S)
        assert sum(spec.values()) == S.k, C
        assert eigen_decomposition_check(C, S), C
    report(capsys, 7, "density/spectrum/eigenspace consistency for every constructed "
              "perfect coloring", time.perf_counter() - t0)


def test_criterion_8_closed_form_beyond_desk_scale(capsys, monkeypatch):
    t0 = time.perf_counter()
    col = hamming_union_collection(hamming_cosets(3), 3)
    # A guard of one cell keeps every step symbolic: pure integer bookkeeping
    monkeypatch.setenv(GUARD_ENV_VAR, "1")
    trace = iterate_construction(RecursionSpec(col, rm_coloring(2, 3), 10))
    assert trace.lengths == tuple(15 * 2**i - 8 for i in range(11))
    rho = densities_from_quotient(col.quotient)
    assert rho == (Fraction(3, 8), Fraction(5, 8))
    for i, S in enumerate(trace.quotients):
        n_i = trace.lengths[i]
        # off-diagonal entries grow linearly in i
        assert S.entries[0][1] == 5 * (i + 1)
        assert S.entries[1][0] == 3 * (i + 1)
        # diagonal entries grow with n_i (row sums are n_i)
        assert S.entries[0][0] == n_i - 5 * (i + 1)
        assert S.entries[1][1] == n_i - 3 * (i + 1)
        if i:
            prev = trace.quotients[i - 1]
            dn = n_i - trace.lengths[i - 1]
            assert S.entries[0][1] - prev.entries[0][1] == 8 * rho[1] == 5
            assert S.entries[1][0] - prev.entries[1][0] == 8 * rho[0] == 3
            assert S.entries[0][0] - prev.entries[0][0] == (dn - 8) + 8 * rho[0]
    assert not any(trace.hypotheses_checked)
    report(capsys, 8, "lengths 15*2**i - 8 and quotient growth verified for i <= 10 "
              "without materialization", time.perf_counter() - t0)


def test_criterion_9_field_layer(capsys):
    t0 = time.perf_counter()
    for q in (2, 3, 4, 5, 7, 8, 9, 16):
        assert check_axioms(FieldTable(q)) == [], q
    with pytest.raises(NotPrimePowerError):
        FieldTable(6)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(capsys, 9, "field axioms exhaustive for q in {2,3,4,5,7,8,9,16}; q=6 rejected",
           elapsed)
