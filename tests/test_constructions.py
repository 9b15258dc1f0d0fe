import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from pcol.constructions import (RecursionSpec, UniformCollection, closed_form_length,
                                coloring_periods, construct_bc,
                                construct_unbalanced_boolean, hamming_cosets,
                                hamming_union_coloring, hamming_union_collection,
                                iterate_construction, predicted_step_quotient,
                                recursive_step, reduce_by_periods, rm_coloring,
                                rm_quotient, translations_collection,
                                union_quotient)
from pcol import core
from pcol.core import GUARD_ENV_VAR, Coloring, QuotientMatrix
from pcol.errors import (BadDensityError, BadOuterColoringError,
                         InconsistentError, NotEssentialError,
                         NotPowerOfTwoError, NotPrimePowerError,
                         OutOfRangeError, SizeMismatchError, UnsupportedError)
from pcol.pcolfile import read_pcol, write_pcol
from pcol.spectral import coloring_degree, eigen_decomposition_check
from pcol.verify import (check_uniform, compute_quotient, densities_by_count,
                         essential_arguments)
from scalar_oracle import (BODY_KINDS, body_kinds, quadratic_periods,
                           quadratic_reduction, scalar_color)


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


def period_cases():
    rng = np.random.default_rng(0x9E1)
    yield "n0", Coloring.from_table([0], q=3)
    for q, n in ((2, 4), (3, 3), (4, 2), (5, 2)):
        yield f"random-q{q}n{n}", Coloring.from_table(rng.integers(0, 3, q**n), q, 3)
        # Colors by a linear form mod q: its kernel is a large period group.
        tab = sum(x * (i + 1) for i, x in enumerate(
            np.indices((q,) * n).reshape(n, -1)[::-1])) % q
        yield f"linear-q{q}n{n}", Coloring.from_table(tab, q)
    yield "random2-q2n8", Coloring.from_table(rng.integers(0, 2, 2**8), 2)
    # A cylinder's periods are every shift of the digits its window skips:
    # 2**3 of them on H(5,2) and 3**3 on H(4,3).
    yield "cylinder-q2n5", Coloring.cylinder(Coloring.from_table([0, 1, 1, 2], 2), 5, 1)
    yield "cylinder-q3n4", Coloring.cylinder(Coloring.from_table(list(range(3)), 3), 4, 2)
    yield "rm31", rm_coloring(3, 1)
    yield "rm51", rm_coloring(5, 1)


@pytest.mark.parametrize("C", [pytest.param(C, id=name) for name, C in period_cases()])
def test_period_search_matches_quadratic_oracle(C):
    assert coloring_periods(C) == quadratic_periods(C)
    col = translations_collection(C)
    kept = reduce_by_periods(col).colorings
    expect = quadratic_reduction(col.colorings)
    assert len(kept) == len(expect) == C.q**C.n // len(quadratic_periods(C))
    assert all(a is b for a, b in zip(kept, expect))


def test_period_search_sieves_before_rolling():
    # Half the vertices of a random 2-coloring share C(0), but it has one
    # period: the sieve against C(1), ..., C(32) leaves a few to roll.
    C = Coloring.from_table(np.random.default_rng(0x9E1).integers(0, 2, 2**12), 2)
    t0 = time.perf_counter()
    assert coloring_periods(C) == [0]
    assert time.perf_counter() - t0 < 0.25


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
    # Without a quotient on the collection, member 0's is computed.
    from pcol.constructions import UniformCollection
    bare = recursive_step(UniformCollection(col.colorings, "cyclic-coset-shift"),
                          rm_coloring(2, 1))
    assert bare.quotient == out.quotient and bare.hypotheses_checked


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
    # no quotient given, and member 0 is not perfect: nothing to predict from
    skew = UniformCollection(tuple(Coloring.from_table(t, q=2)
                                   for t in ([0, 0, 0, 1], [1, 1, 1, 0])), "skew")
    with pytest.raises(InconsistentError, match="not a perfect coloring"):
        recursive_step(skew, rm_coloring(2, 1))


def test_skipped_outer_coloring_check_is_flagged(monkeypatch):
    # E on H(8, 2) with colors 0 and 1 swapped: its quotient is not
    # rm_quotient(8, 2).  Member 0 has 128 cells and E 256, so a guard of 128
    # checks member 0 but skips E, and the step must not report E as checked.
    col = hamming_union_collection(hamming_cosets(3), 3)
    good = rm_coloring(2, 3)
    swapped = Coloring.merged(good, [[1], [0]] + [[c] for c in range(2, 16)])
    explicit = swapped.materialize()
    for E in (swapped, explicit):
        with pytest.raises(BadOuterColoringError):
            recursive_step(col, E)
    assert recursive_step(col, good).hypotheses_checked
    monkeypatch.setenv(GUARD_ENV_VAR, "128")
    for E in (swapped, explicit, good):
        assert not recursive_step(col, E).hypotheses_checked


def test_symbolic_steps_materialize_nothing(monkeypatch):
    # Criterion 8's ten steps under a guard of one cell: every check is
    # skipped, and Coloring.outer reads E through its body, so no symbolic
    # coloring is ever materialized.
    built = []
    materialize = Coloring.materialize

    def counting(self):
        out = materialize(self)
        if not self.is_explicit:
            built.append(self.n)
        return out

    monkeypatch.setattr(Coloring, "materialize", counting)
    monkeypatch.setenv(GUARD_ENV_VAR, "1")
    trace = iterate_construction(RecursionSpec(
        hamming_union_collection(hamming_cosets(3), 3), rm_coloring(2, 3), 10))
    assert built == []
    assert not any(trace.hypotheses_checked)
    assert not trace.collection.colorings[0].body.outer.is_explicit


def test_union_complement_matches_the_membership_scan():
    # Oracle: the complement by membership scan; merged ignores order in a group.
    for m in range(1, 5):
        part = hamming_cosets(m)
        M = part.size
        for start in range(-M, 2 * M):
            for count in range(1, M):
                inside = [(start + t) % M for t in range(count)]
                rest = [c for c in range(M) if c not in inside]
                old = Coloring.merged(part.coloring, [inside, rest]).body.mapping
                new = hamming_union_coloring(part, start, count).body.mapping
                assert new.tolist() == old.tolist()


def test_rm_coloring_refuses_too_many_colors_before_building():
    # 2 * 2**16 colors: refused before the 2**16 alphas are listed.
    with pytest.raises(UnsupportedError):
        rm_coloring(2, 16)
    assert rm_coloring(2, 15).k == 65536


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


def test_construct_boolean_instances(monkeypatch):
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

    # Past the guard the coloring is built but left unverified.
    monkeypatch.setenv(GUARD_ENV_VAR, "4")
    res = construct_unbalanced_boolean(1, 4, 1)
    assert res.coloring.n == 3 and not res.coloring.is_explicit
    assert (res.verified, res.degree_report, res.essential) == (False, None, None)


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
    members = built.collection.colorings
    assert len(members) == 8
    rng = np.random.default_rng(0xF1A6)
    for C in members:
        tab = C.materialize().table
        for v in rng.integers(0, 2**22, size=500):
            assert C.evaluate(int(v)) == tab[int(v)] == scalar_color(C, int(v))


def _oracle_instances():
    """One small coloring per body node type, n = 0 cases and q > 2 included."""
    point2 = Coloring.from_table([0], q=2)
    point3 = Coloring.from_table([0], q=3)
    digit0 = Coloring.from_table([v % 3 for v in range(9)], q=3)
    union = hamming_union_coloring(hamming_cosets(2), 2, 3)
    line3 = Coloring.from_table([0, 1, 2], q=3)
    line2 = Coloring.from_table([0, 1], q=2)
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
            [Coloring.translation(union, z) for z in (0, 1, 5, 7)], rm_coloring(2, 2).materialize()),
        "outer_q3": Coloring.outer(
            [line3, Coloring.translation(line3, (1,)), Coloring.merged(line3, [[2], [0], [1]])],
            rm_coloring(3, 1).materialize()),
        "outer_of_n0": Coloring.outer([point2, point2], rm_coloring(2, 1).materialize()),
        "outer_symbolic_e": Coloring.outer(
            [Coloring.translation(union, z) for z in (0, 2, 3, 6)],
            Coloring.translation(rm_coloring(2, 2), (1, 0, 0, 1))),
        "two_step": _two_step_member(),
        "bc_3_1": construct_bc(3, 1).coloring,
        # nb = 1, M = 16: q**(nb + M) = 2**17 window-table cells, more than one small block.
        "outer_wide": Coloring.outer(
            [Coloring.translation(line2, (z % 3 % 2,)) for z in range(16)],
            rm_coloring(2, 4).materialize()),
    }


def test_oracle_instances_cover_every_body_node():
    covered = set().union(*(body_kinds(C) for C in _oracle_instances().values()))
    assert covered == set(BODY_KINDS)


@pytest.mark.parametrize("name", sorted(_oracle_instances()))
def test_every_body_node_matches_scalar_oracle(name, monkeypatch):
    C = _oracle_instances()[name]
    # An outer node reads its outer coloring through eval, never materializing it.
    outer = getattr(C.body, "outer", None)
    materialize = Coloring.materialize

    def refusing(self):
        assert self is not outer, "the outer coloring was materialized"
        return materialize(self)

    monkeypatch.setattr(Coloring, "materialize", refusing)
    N = C.q**C.n
    expect = [scalar_color(C, v) for v in range(N)]
    assert C.materialize().table.tolist() == expect
    # Every vertex, or 4096 spread over a larger table.
    assert [C.evaluate(v) for v in range(0, N, max(1, N >> 12))] == expect[::max(1, N >> 12)]
    assert C.body.eval(np.arange(N, dtype=np.int64)).tolist() == expect
    # materialize writes an outer node as broadcast sums of its window tables,
    # whatever the block size, and never calls the node's own eval; other
    # nodes evaluate every block.  The A_j of all q**M values of y take U
    # cells: blocks from one cell (A_j one y wide) to past U (all y at once).
    # The wide node's A_j exceed a 4096-cell block, which bounds its peak.
    outer_eval = core._OuterBody.eval
    wide = N > 4096
    if hasattr(C.body, "members"):
        W, Q = C.q**C.body.members[0].n, C.q ** len(C.body.members)
        U = max((C.q + 1) * W, W ** (C.q - 1)) * Q
    else:
        U = 4

    def eval_not_of_c(self, idx):
        assert self is not C.body, "materialize evaluated the outer node cell by cell"
        return outer_eval(self, idx)

    monkeypatch.setattr(core._OuterBody, "eval", eval_not_of_c)
    blocks = {4096, U // 4, U - 1} if wide else {1, max(1, U // 3), U - 1, U, U + 1, 2 * U, 3 * U}
    for block in sorted(blocks):
        monkeypatch.setattr(core, "_MATERIALIZE_BLOCK", block)
        assert C.materialize().table.tolist() == expect, block
    if wide:
        # The table and one block: the A_j, the y-slice's int64 indices and the
        # surjectivity scan's intp counts take about eight blocks' bytes.
        monkeypatch.setattr(core, "_MATERIALIZE_BLOCK", 4096)
        assert _traced_peak(C.materialize) < N + 16 * 4096
    monkeypatch.setattr(core._OuterBody, "eval", outer_eval)
    if type(C.body).__name__ == "_OuterBody":
        # eval serves scattered indices by recursing into the members.  The
        # cases straddle M * q**nb indices, the size of the member tables.
        M, nb = len(C.body.members), C.body.members[0].n
        tabled, Q = M * C.q**nb, C.q**M
        assert 1 < tabled <= N
        size = -(-tabled // Q) * Q
        assert size <= N
        rng = np.random.default_rng(len(name))
        base = np.arange(size)
        swapped = base.copy()
        swapped[[1, 2]] = swapped[[2, 1]]
        duplicate = base.copy()
        duplicate[1] = duplicate[0]
        # Random indices either side of that size; aligned ranges at the first,
        # second and last row; then arrays that are no range of whole rows: a
        # start off the row, a partial last row, reversed, shuffled, two
        # indices swapped, one duplicated, one skipped.  All again as object
        # dtype.
        cases = [rng.integers(0, N, size=s) for s in (tabled - 1, tabled)]
        cases += [lo + base for lo in sorted({0, Q, N - size}) if lo + size <= N]
        cases += [1 + np.arange(min(tabled, N - 1)), np.arange(min(size + 1, N - 1)),
                  base[::-1], rng.permutation(base), swapped, duplicate]
        if size < N:
            cases.append(base + (base >= Q - 1))
        cases += [idx.astype(object) for idx in cases]
        for idx in cases:
            assert C.body.eval(idx).tolist() == [expect[v] for v in idx], idx


def test_deep_symbolic_members_evaluate_exactly_past_int64(monkeypatch):
    # The flagship's collection lengthened twice more lives on H(112, 2);
    # a guard of one cell keeps every step symbolic.
    monkeypatch.setenv(GUARD_ENV_VAR, "1")
    trace = iterate_construction(
        RecursionSpec(hamming_union_collection(hamming_cosets(3), 3),
                      rm_coloring(2, 3), 3))
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


def test_sampled_uniformity_past_int64():
    # Three steps from the flagship's base collection give H(112, 2), where
    # sampling is the only check; draws are exact Python integers.
    col = iterate_construction(
        RecursionSpec(hamming_union_collection(hamming_cosets(3), 3),
                      rm_coloring(2, 3), 3)).collection
    assert col.colorings[0].n == 112
    res = check_uniform(col, sample=20)
    assert (res.uniform, res.exhaustive) == (True, False)
    assert res.multiplicities == (3, 5) and res.matches_density is True
    members = list(col.colorings)
    members[1] = members[0]
    res = check_uniform(members, sample=20)
    assert not res.uniform and res.witness_vertex > 2**63
    assert res.witness_counts == tuple(np.bincount(
        [c.evaluate(res.witness_vertex) for c in members], minlength=2).tolist())
    # Either side of 2**63 vertices, where the draws switch to Python integers.
    base = Coloring.from_table([0, 1, 1, 0], q=2)
    for n in (63, 64):
        members = [Coloring.translation(Coloring.cylinder(base, n, 0), z) for z in range(4)]
        res = check_uniform(members, sample=20)
        assert (res.uniform, res.multiplicities) == (True, (2, 2))


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_flagship_materialize_memory_is_blocked():
    # The 4 MiB table and one 64 KiB block of rows (4.2 MiB traced): an outer
    # node writes a block into the table by one column take of its rows, with
    # no index array, no per-cell temporaries and no block-sized copy.
    assert _traced_peak(construct_bc(10, 6).coloring.materialize) < 4.5 * 2**20


def test_guard_edge_materialize_memory_is_blocked():
    # bc(9, 3) on H(24, 2): the 16 MiB table plus one block of indices.
    assert _traced_peak(construct_bc(9, 3).coloring.materialize) < 32 * 2**20


def test_flagship_spectral_and_density_memory():
    # One 16 MiB int32 transform output per color at a time, next to the
    # 4 MiB indicator and two 256 KiB float32 tile buffers; the degree is read
    # one block of coefficients at a time: 20.5 MiB traced.  Two colors are
    # counted by one compare per 1 MiB block (1.0 MiB traced), not with the
    # table cast to np.intp.  Neighbor counts hold eleven packed bitmaps
    # of 512 KiB (five of them count planes) and a few of their temporaries:
    # 8.0 MiB traced.  The essential mask holds two bitmaps and one block of
    # color bits: 3.1 MiB.  The eigenspace check of a perfect coloring reads
    # the quotient its table already holds.
    built = construct_bc(10, 6)
    C = built.coloring.materialize()
    S = built.predicted_quotient
    assert _traced_peak(lambda: compute_quotient(C)) < 9 * 2**20
    assert _traced_peak(lambda: essential_arguments(C)) < 3.5 * 2**20
    assert _traced_peak(lambda: coloring_degree(C)) < 24 * 2**20
    assert _traced_peak(lambda: eigen_decomposition_check(C, S)) < 26 * 2**20
    assert _traced_peak(lambda: densities_by_count(C)) < 2 * 2**20


def test_guard_edge_quotient_memory():
    # bc(9, 3) on H(24, 2): neighbor counts on 2 MiB bitmaps (24.0 MiB
    # traced), within twice the 16 MiB table.
    C = construct_bc(9, 3).coloring.materialize()
    assert _traced_peak(lambda: compute_quotient(C)) < 2 * C.table.nbytes


def test_guard_edge_coloring_degree_memory():
    # bc(9, 3) on H(24, 2): the 64 MiB int32 transform output, the 16 MiB
    # indicator, two 256 KiB float32 tile buffers and a degree block (80.5
    # MiB traced); no whole-table nonzero mask or weight table.
    C = construct_bc(9, 3).coloring.materialize()
    assert _traced_peak(lambda: coloring_degree(C)) < 84.5 * 2**20


def test_guard_edge_non_perfect_eigen_check_memory():
    # bc(9, 3) on H(24, 2) with one vertex recolored takes the transforms:
    # per color the indicator and its int32 transform, whose support is
    # scanned one block at a time (80.5 MiB traced), with no whole-table
    # nonzero mask or weight table.
    built = construct_bc(9, 3)
    table = np.array(built.coloring.materialize().table)
    table[12345] ^= 1
    C = Coloring.from_table(table, q=2)
    del table
    S = built.predicted_quotient
    assert not eigen_decomposition_check(C, S)
    assert _traced_peak(lambda: eigen_decomposition_check(C, S)) <= 88 * 2**20


def test_flagship_text_io_memory(tmp_path):
    # The writer holds one block of 2**18 two-byte records and its intp
    # indices (2.5 MiB traced).  The reader holds the file's 8 MiB, the 4 MiB
    # table and two 1 MiB block buffers (14.0 MiB traced).
    C = construct_bc(10, 6).coloring.materialize()
    path = tmp_path / "bc.pcol"
    assert _traced_peak(lambda: write_pcol(path, C)) < 4 * 2**20
    assert _traced_peak(lambda: read_pcol(path)) < 16 * 2**20


def test_flagship_binary_read_memory(tmp_path):
    # The file's bytes are the table: no payload slice, no dtype copy, only
    # the blocked surjectivity count on top.
    C = construct_bc(10, 6).coloring.materialize()
    path = tmp_path / "bc.pcolb"
    # The writer writes the table's own buffer.
    assert _traced_peak(lambda: write_pcol(path, C, binary=True)) < 2**20
    assert _traced_peak(lambda: read_pcol(path)) < 15 * 2**20
    assert read_pcol(path).table.tobytes() == C.table.tobytes()


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


def test_boolean_parameterization_matches_bc_at_scale(monkeypatch):
    # rho = 3/8 with e = 2 is the (b, c) = (10, 6) instance on H(22, 2).
    # Density, degree and essential mask are read from one materialized table.
    symbolic = []
    materialize = Coloring.materialize

    def counting(self):
        if not self.is_explicit:
            symbolic.append(self.n)
        return materialize(self)

    monkeypatch.setattr(Coloring, "materialize", counting)
    res = construct_unbalanced_boolean(3, 8, 2)
    assert symbolic.count(22) == 1
    assert res.coloring.n == 22
    assert res.verified
    assert res.density == Fraction(3, 8)
    assert res.degree_report.per_color == (8, 8)
    assert res.essential == (True,) * 22
    assert res.predicted_quotient.as_lists() == [[12, 10], [6, 16]]


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


@pytest.mark.parametrize("make,error,message", [
    (lambda: rm_coloring(2, 0), OutOfRangeError, "s must be >= 1, got 0"),
    (lambda: reduce_by_periods(UniformCollection((parity(2),), "cyclic-coset-shift")),
     OutOfRangeError, "period reduction applies to translation collections"),
    (lambda: hamming_cosets(0), OutOfRangeError, "m must be >= 1, got 0"),
    (lambda: recursive_step(UniformCollection((parity(2),) * 2, "translations"), parity(2)),
     SizeMismatchError, "outer coloring has 2 colors, expected 4"),
    (lambda: iterate_construction(RecursionSpec(
        UniformCollection((parity(2),) * 2, "translations"), rm_coloring(2, 1), -1)),
     OutOfRangeError, "steps must be nonnegative"),
    (lambda: recursive_step(UniformCollection((), "translations"), rm_coloring(2, 1)),
     OutOfRangeError, "empty collection"),
    (lambda: iterate_construction(RecursionSpec(
        UniformCollection((), "translations"), rm_coloring(2, 1), 0)),
     OutOfRangeError, "empty collection"),
    (lambda: construct_bc(0, 1), OutOfRangeError, "b and c must be positive"),
])
def test_constructions_validation_raises(make, error, message):
    with pytest.raises(error, match=message):
        make()
