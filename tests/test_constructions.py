import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from pcol.constructions import (RecursionSpec, closed_form_length, coloring_periods,
                                construct_bc, construct_unbalanced_boolean,
                                hamming_cosets, hamming_union_coloring,
                                hamming_union_collection, iterate_construction,
                                predicted_step_quotient, recursive_step,
                                reduce_by_periods, rm_coloring, rm_quotient,
                                translations_collection, union_quotient)
from pcol.core import Coloring, QuotientMatrix
from pcol.errors import (BadDensityError, BadOuterColoringError,
                         NotEssentialError, NotPowerOfTwoError,
                         NotPrimePowerError, OutOfRangeError,
                         SizeMismatchError)
from pcol.spectral import coloring_degree, eigen_decomposition_check
from pcol.verify import (check_uniform, compute_quotient, densities_by_count,
                         essential_arguments)
from scalar_oracle import BODY_KINDS, body_kinds, scalar_color


def parity(n):
    return Coloring.from_table([bin(v).count("1") % 2 for v in range(2**n)], q=2)


def test_rm_21_table():
    C = rm_coloring(2, 1).materialize()
    assert C.table.tolist() == [0, 1, 3, 2]
    assert C.k == 4
    assert np.bincount(C.table).tolist() == [1, 1, 1, 1]


def test_rm_rejects_non_prime_power():
    with pytest.raises(NotPrimePowerError):
        rm_coloring(6, 1)


@pytest.mark.parametrize("q,s", [(2, 1), (2, 2), (3, 1), (4, 1)])
def test_rm_quotient_verified(q, s):
    C = rm_coloring(q, s)
    S = compute_quotient(C)
    assert S == rm_quotient(q**s, q)


def test_rm_22_density():
    C = rm_coloring(2, 2)
    assert densities_by_count(C) == tuple([Fraction(1, 8)] * 8)


def test_rm_merge_same_residue_colors_is_perfect():
    # colors with equal residues mod q have identical rows and columns in the
    # quotient, so unifying them preserves perfectness
    C = rm_coloring(2, 2)
    merged = Coloring.merged(C, [[0, 2], [1], [3], [4], [5], [6], [7]])
    assert isinstance(compute_quotient(merged), QuotientMatrix)


def test_translations_collection_basics():
    col = translations_collection(parity(2))
    assert col.size == 4
    assert col.provenance == "translations"
    assert col.quotient.as_lists() == [[0, 2], [2, 0]]
    assert col.colorings[0].materialize().table.tolist() == parity(2).table.tolist()
    res = check_uniform(col)
    assert res.uniform and res.multiplicities == (2, 2)


def test_translations_of_hamming_code():
    code = Coloring.merged(Coloring.syndrome(3), [[0], list(range(1, 8))])
    col = translations_collection(code)
    assert col.size == 128
    res = check_uniform(col)
    assert res.uniform
    assert res.multiplicities == (16, 112)


def test_translations_of_non_perfect_base():
    C = Coloring.from_table([0, 0, 0, 1], q=2)
    col = translations_collection(C)
    assert col.quotient is None
    res = check_uniform(col)
    assert res.uniform and res.multiplicities == (3, 1)


def test_periods_and_reduction():
    col = translations_collection(parity(2))
    assert coloring_periods(parity(2)) == [0, 3]
    reduced = reduce_by_periods(col)
    assert reduced.size == 2
    assert check_uniform(reduced).uniform
    # trivial period group leaves the collection unchanged
    C = Coloring.from_table([0, 1, 1, 1], q=2)
    col2 = translations_collection(C)
    assert reduce_by_periods(col2).size == 4


def test_reduced_collections_stay_uniform():
    for C in (parity(3), Coloring.merged(Coloring.syndrome(2), [[0, 1], [2, 3]])):
        reduced = reduce_by_periods(translations_collection(C))
        res = check_uniform(reduced)
        assert res.uniform
        counts = densities_by_count(C)
        assert res.multiplicities == tuple(int(c * reduced.size) for c in counts)


def test_hamming_cosets_code_is_coset_zero():
    part = hamming_cosets(3)
    tab = part.coloring.materialize().table
    code = np.nonzero(tab == 0)[0]
    assert len(code) == 16
    weights = np.bincount([bin(v).count("1") for v in code], minlength=8)
    assert weights.tolist() == [1, 0, 0, 7, 7, 0, 0, 1]
    # the M-coloring by syndrome is perfect with quotient J - I
    S = compute_quotient(part.coloring)
    assert all(S.entries[i][j] == (0 if i == j else 1) for i in range(8) for j in range(8))


def test_parity_check_matrix_columns():
    H = hamming_cosets(3).parity_check_matrix()
    assert H.shape == (3, 7)
    cols = [int(sum(H[r, p] << r for r in range(3))) for p in range(7)]
    assert cols == [1, 2, 3, 4, 5, 6, 7]


def test_union_coloring_h7():
    part = hamming_cosets(3)
    C = hamming_union_coloring(part, 0, 3)
    S = compute_quotient(C)
    assert S.as_lists() == [[2, 5], [3, 4]]
    assert essential_arguments(C) == (True,) * 7
    assert densities_by_count(C) == (Fraction(3, 8), Fraction(5, 8))


def test_union_degenerate_m1():
    part = hamming_cosets(1)
    C = hamming_union_coloring(part, 0, 1)
    assert C.materialize().table.tolist() == [0, 1]
    assert compute_quotient(C).as_lists() == [[0, 1], [1, 0]]


def test_union_count_range():
    part = hamming_cosets(3)
    with pytest.raises(OutOfRangeError):
        hamming_union_coloring(part, 0, 0)
    with pytest.raises(OutOfRangeError):
        hamming_union_coloring(part, 0, 8)


def test_union_collection_uniform():
    col = hamming_union_collection(hamming_cosets(3), 3)
    assert col.size == 8
    assert col.quotient == union_quotient(8, 3)
    res = check_uniform(col)
    assert res.uniform
    assert res.multiplicities == (3, 5)


def test_predicted_step_quotient():
    S = union_quotient(8, 3)  # [[2,5],[3,4]] on H(7,2)
    S1 = predicted_step_quotient(S, 8)
    assert S1.as_lists() == [[12, 10], [6, 16]]
    assert (S1.n, S1.q) == (22, 2)


def test_recursive_step_small():
    part = hamming_cosets(1)
    col = hamming_union_collection(part, 1)
    out = recursive_step(col, rm_coloring(2, 1))
    assert out.size == 2
    assert out.quotient.as_lists() == [[2, 2], [2, 2]]
    member = out.colorings[0]
    assert (member.n, member.q, member.k) == (4, 2, 2)
    S = compute_quotient(member)
    assert S.as_lists() == [[2, 2], [2, 2]]
    assert essential_arguments(member) == (True,) * 4
    assert check_uniform(out).uniform


def test_recursive_step_errors():
    part = hamming_cosets(1)
    col = hamming_union_collection(part, 1)
    with pytest.raises(SizeMismatchError):
        recursive_step(col, rm_coloring(2, 2))
    # an outer coloring with the right shape but the wrong quotient
    bad_outer = Coloring.from_table([0, 1, 2, 3], q=2)
    with pytest.raises(BadOuterColoringError):
        recursive_step(col, bad_outer)
    # member 0 with a dummy argument violates the hypothesis
    dummy = tuple(Coloring.cylinder(c, n=2, offset=0) for c in col.colorings)
    from pcol.constructions import UniformCollection
    padded = UniformCollection(dummy, "translations",
                               QuotientMatrix.of([[1, 1], [1, 1]], 2, 2))
    with pytest.raises(NotEssentialError):
        recursive_step(padded, rm_coloring(2, 1))


def test_closed_form_lengths():
    assert closed_form_length(1, 2, 2, 1) == 4
    assert closed_form_length(7, 8, 2, 1) == 22
    for i in range(5):
        assert closed_form_length(7, 8, 2, i) == 15 * 2**i - 8


def test_iterate_construction_zero_steps():
    col = hamming_union_collection(hamming_cosets(2), 1)
    trace = iterate_construction(RecursionSpec(col, rm_coloring(2, 2), 0))
    assert trace.collection is col
    assert trace.lengths == (3,)


def test_iterate_construction_two_steps():
    col = hamming_union_collection(hamming_cosets(1), 1)
    trace = iterate_construction(RecursionSpec(col, rm_coloring(2, 1), 2))
    assert trace.lengths == (1, 4, 10)
    assert trace.quotients[-1].as_lists() == [[7, 3], [3, 7]]
    member = trace.collection.colorings[0]
    assert compute_quotient(member).as_lists() == [[7, 3], [3, 7]]
    assert essential_arguments(member) == (True,) * 10


def test_construct_bc_e1():
    built = construct_bc(5, 3)
    assert built.coloring.n == 7
    assert built.predicted_quotient.as_lists() == [[2, 5], [3, 4]]
    assert compute_quotient(built.coloring) == built.predicted_quotient


def test_construct_bc_rejects_non_power():
    with pytest.raises(NotPowerOfTwoError):
        construct_bc(2, 1)


def test_construct_bc_flagship_prediction():
    built = construct_bc(10, 6)
    assert built.coloring.n == 22
    assert built.predicted_quotient.as_lists() == [[12, 10], [6, 16]]
    assert built.trace.lengths == (7, 22)


def test_construct_boolean_instances():
    res = construct_unbalanced_boolean(1, 4, 1)
    assert res.coloring.n == 3
    assert res.density == Fraction(1, 4)
    assert res.verified
    assert res.degree_report.degree == 2
    assert res.essential == (True, True, True)
    # the support is a coset of the length-3 Hamming code
    tab = res.coloring.materialize().table
    assert sorted(np.nonzero(tab == 0)[0].tolist()) in ([0, 7], [1, 6], [2, 5], [3, 4])

    res = construct_unbalanced_boolean(1, 2, 2)
    assert res.coloring.n == 4
    assert res.density == Fraction(1, 2)
    assert res.degree_report.degree == 2
    assert res.essential == (True,) * 4


def test_construct_boolean_rejects_bad_params():
    with pytest.raises(BadDensityError):
        construct_unbalanced_boolean(2, 4, 1)
    with pytest.raises(BadDensityError):
        construct_unbalanced_boolean(1, 3, 1)
    with pytest.raises(BadDensityError):
        construct_unbalanced_boolean(5, 4, 1)
    with pytest.raises(BadDensityError):
        construct_unbalanced_boolean(1, 2, 0)


def test_constructed_coloring_symbolic_evaluate_agrees():
    built = construct_bc(3, 1)  # e=1, M=4: plain union coloring on H(3,2)
    expect = [scalar_color(built.coloring, v) for v in range(8)]
    assert built.coloring.materialize().table.tolist() == expect
    assert [built.coloring.evaluate(v) for v in range(8)] == expect


def _two_step_member():
    two_step = iterate_construction(
        RecursionSpec(hamming_union_collection(hamming_cosets(1), 1),
                      rm_coloring(2, 1), 2))
    return two_step.collection.colorings[1]


def test_symbolic_members_evaluate_like_their_tables():
    # outer-node colorings agree with the scalar oracle, whole and sampled
    rng = np.random.default_rng(0xFEED)
    C = _two_step_member()
    N = 2**C.n
    assert C.materialize().table.tolist() == [scalar_color(C, v) for v in range(N)]
    for v in rng.integers(0, N, size=10_000):
        assert C.evaluate(int(v)) == scalar_color(C, int(v))


def test_flagship_symbolic_evaluate_sampled():
    built = construct_bc(10, 6)
    C = built.coloring
    tab = C.materialize().table
    rng = np.random.default_rng(0xF1A6)
    for v in rng.integers(0, 2**22, size=2_000):
        assert C.evaluate(int(v)) == tab[int(v)] == scalar_color(C, int(v))


def _oracle_instances():
    """One small coloring per body node type, n = 0 cases and q > 2 included."""
    point2 = Coloring.from_table([0], q=2)
    point3 = Coloring.from_table([0], q=3)
    digit0 = Coloring.from_table([v % 3 for v in range(9)], q=3)
    union = hamming_union_coloring(hamming_cosets(2), 2, 3)
    line3 = Coloring.from_table([0, 1, 2], q=3)
    return {
        "table": parity(3),
        "table_n0": point3,
        "translation": Coloring.translation(digit0, (2, 1)),
        "translation_n0": Coloring.translation(point2, ()),
        "cylinder": Coloring.cylinder(digit0, n=4, offset=1),
        "cylinder_of_n0": Coloring.cylinder(point3, n=2, offset=1),
        "merge": Coloring.merged(rm_coloring(3, 1), [[0, 3, 6], [1, 4, 7], [2, 5, 8]]),
        "merge_n0": Coloring.merged(point2, [[0]]),
        "syndrome": Coloring.syndrome(3),
        "rm_2_2": rm_coloring(2, 2),
        "rm_3_1": rm_coloring(3, 1),
        "rm_4_1": rm_coloring(4, 1),
        "outer_q2": Coloring.outer(
            [Coloring.translation(union, z) for z in (0, 1, 5, 7)], rm_coloring(2, 2)),
        "outer_q3": Coloring.outer(
            [line3, Coloring.translation(line3, (1,)), Coloring.merged(line3, [[2], [0], [1]])],
            rm_coloring(3, 1)),
        "outer_of_n0": Coloring.outer([point2, point2], rm_coloring(2, 1)),
        "two_step": _two_step_member(),
        "bc_3_1": construct_bc(3, 1).coloring,
    }


def test_oracle_instances_cover_every_body_node():
    covered = set().union(*(body_kinds(C) for C in _oracle_instances().values()))
    assert covered == set(BODY_KINDS)


@pytest.mark.parametrize("name", sorted(_oracle_instances()))
def test_every_body_node_matches_scalar_oracle(name):
    C = _oracle_instances()[name]
    N = C.q**C.n
    expect = [scalar_color(C, v) for v in range(N)]
    assert C.materialize().table.tolist() == expect
    assert [C.evaluate(v) for v in range(N)] == expect
    assert C.body.eval(np.arange(N, dtype=np.int64)).tolist() == expect
    if type(C.body).__name__ == "_OuterBody":
        # Below M * q**nb indices eval recurses into the members; at or
        # above it, it tabulates them.
        M, nb = len(C.body.members), C.body.members[0].n
        cut = M * C.q**nb
        assert 1 < cut <= N
        rng = np.random.default_rng(len(name))
        for size in (cut - 1, cut):
            idx = rng.integers(0, N, size=size)
            assert C.body.eval(idx).tolist() == [expect[v] for v in idx]


def test_deep_symbolic_members_evaluate_exactly_past_int64():
    # The flagship's collection lengthened twice more lives on H(112, 2);
    # guard=1 keeps every step symbolic.
    trace = iterate_construction(
        RecursionSpec(hamming_union_collection(hamming_cosets(3), 3),
                      rm_coloring(2, 3), 3), guard=1)
    rng = np.random.default_rng(0xB16)
    wide = Coloring.cylinder(rm_coloring(3, 2), n=70, offset=31)
    shift = tuple(int(z) for z in rng.integers(0, 3, size=70))
    cases = list(trace.collection.colorings[:3]) + [
        wide, Coloring.translation(wide, shift)]
    for C in cases:
        N = C.q**C.n
        assert N > 2**63
        verts = [0, 2**63, N - 1] + [int.from_bytes(rng.bytes(16), "little") % N
                                     for _ in range(40)]
        for v in verts:
            assert C.evaluate(v) == scalar_color(C, v)


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_flagship_materialize_memory_is_blocked():
    # The 4 MiB table plus one block of index temporaries, not int64 per cell.
    assert _traced_peak(construct_bc(10, 6).coloring.materialize) < 96 * 2**20


def test_flagship_spectral_and_density_memory():
    # One 32 MiB int64 transform buffer per color at a time; colors counted
    # in blocks, not with the table cast to np.intp.
    built = construct_bc(10, 6)
    C = built.coloring.materialize()
    S = built.predicted_quotient
    assert _traced_peak(lambda: coloring_degree(C)) < 64 * 2**20
    assert _traced_peak(lambda: eigen_decomposition_check(C, S)) < 64 * 2**20
    assert _traced_peak(lambda: densities_by_count(C)) < 16 * 2**20


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_union_sweep_matches_predicted_quotient(m):
    part = hamming_cosets(m)
    M = part.size
    for count in range(1, M, 2):
        C = hamming_union_coloring(part, 0, count)
        assert compute_quotient(C) == union_quotient(M, count)
        assert essential_arguments(C) == (True,) * (M - 1)


def test_recursive_instances_match_predictions():
    cases = [
        (hamming_union_collection(hamming_cosets(1), 1), rm_coloring(2, 1), 1),
        (hamming_union_collection(hamming_cosets(1), 1), rm_coloring(2, 1), 2),
        (hamming_union_collection(hamming_cosets(2), 1), rm_coloring(2, 2), 1),
        (hamming_union_collection(hamming_cosets(2), 3), rm_coloring(2, 2), 1),
    ]
    for base, outer, steps in cases:
        trace = iterate_construction(RecursionSpec(base, outer, steps))
        for member in trace.collection.colorings:
            assert compute_quotient(member) == trace.quotients[-1]


def test_boolean_parameterization_matches_bc_at_scale():
    # rho = 3/8 with e = 2 is the (b, c) = (10, 6) instance on H(22, 2)
    res = construct_unbalanced_boolean(3, 8, 2)
    assert res.coloring.n == 22
    assert res.verified
    assert res.density == Fraction(3, 8)
    assert res.degree_report.per_color == (8, 8)
    assert res.essential == (True,) * 22
    assert res.predicted_quotient.as_lists() == [[12, 10], [6, 16]]


def test_period_search_with_candidate_set():
    C = parity(2)
    # restricted candidate pool still finds the period and closes the subgroup
    assert coloring_periods(C, candidates=[3]) == [0, 3]
    assert coloring_periods(C, candidates=[1, 2]) == [0]
    col = translations_collection(C)
    reduced = reduce_by_periods(col, candidates=[3])
    assert reduced.size == 2


def test_union_start_offset_keeps_quotient():
    part = hamming_cosets(3)
    for start in (1, 5, 7):
        C = hamming_union_coloring(part, start, 3)
        assert compute_quotient(C) == union_quotient(8, 3)
    # wrap-around picks cosets {7, 0, 1}
    wrap = hamming_union_coloring(part, 7, 3).materialize()
    syn = part.coloring.materialize().table
    inside = {7, 0, 1}
    assert all((wrap.table[v] == 0) == (int(syn[v]) in inside)
               for v in range(128))
