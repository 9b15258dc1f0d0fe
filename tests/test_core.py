import os
import subprocess
import sys
import time

import numpy as np
import pytest

from pcol import core
from pcol.core import (GUARD_ENV_VAR, Coloring, QuotientMatrix, _color_counts,
                       _first_vertices, color_dtype, digits, materialize_guard,
                       neighbors, vertex_index)
from pcol.errors import (InvalidPartitionError, NotSurjectiveError,
                         OutOfRangeError, TooLargeError, UnsupportedError)
from scalar_oracle import scalar_color


def parity_coloring(n):
    table = [bin(v).count("1") % 2 for v in range(2**n)]
    return Coloring.from_table(table, q=2)


def test_digits_examples():
    assert digits(5, 3, 2) == (1, 0, 1)
    assert digits(0, 4, 3) == (0, 0, 0, 0)
    assert vertex_index((1, 0, 1), 2) == 5
    with pytest.raises(OutOfRangeError):
        digits(8, 3, 2)
    with pytest.raises(OutOfRangeError):
        vertex_index((0, 3), 3)


@pytest.mark.parametrize("n,q", [(8, 2), (5, 3), (4, 4), (3, 5)])
def test_digits_roundtrip(n, q):
    for v in range(q**n):
        assert vertex_index(digits(v, n, q), q) == v


def test_neighbors_examples():
    # H(2,3), word (0,0): position-major, replacement ascending
    got = [digits(u, 2, 3) for u in neighbors(0, 2, 3)]
    assert got == [(1, 0), (2, 0), (0, 1), (0, 2)]
    assert neighbors(0, 1, 2) == [1]


@pytest.mark.parametrize("n,q", [(6, 2), (4, 3), (3, 4)])
def test_neighbors_symmetric_no_dups(n, q):
    deg = n * (q - 1)
    for v in range(q**n):
        nb = neighbors(v, n, q)
        assert len(nb) == deg
        assert len(set(nb)) == deg
        assert v not in nb
        for u in nb:
            assert v in neighbors(u, n, q)


def test_from_table_validation():
    with pytest.raises(NotSurjectiveError) as ei:
        Coloring.from_table([0, 0, 0, 0], q=2, k=2)
    assert ei.value.missing_color == 1
    with pytest.raises(OutOfRangeError):
        Coloring.from_table([0, 1, 2], q=2)  # size 3 not a power of 2
    # Colors are integers: floats would truncate and strings break numpy.
    for table in ([0.5, 1.7], ["0", "1"]):
        with pytest.raises(OutOfRangeError):
            Coloring.from_table(table, q=2)
    # An alphabet below 2 has no Hamming graph, and q = 0, 1 or True would
    # never reach the table size.
    for q in (0, 1, True, -2):
        with pytest.raises(OutOfRangeError, match="below 2"):
            Coloring.from_table([0, 1, 1, 0], q=q)
    # A float alphabet is refused, even when it is whole.
    for q in (2.0, np.float64(2)):
        with pytest.raises(OutOfRangeError, match="not an integer"):
            Coloring.from_table([0, 1, 1, 0], q=q)
    # A numpy integer alphabet is stored as a Python int, so q**n does not
    # wrap past 2**63 in a cylinder over it.
    for q in (2, np.int64(2), np.uint8(2)):
        C = Coloring.from_table([0, 1, 1, 0], q=q)
        assert type(C.q) is int
    wide = Coloring.cylinder(Coloring.from_table([0, 1, 1, 0], q=np.int64(2)), n=70, offset=0)
    assert wide.q**wide.n == 2**70
    with pytest.raises(TooLargeError):
        wide.materialize()
    assert wide.evaluate(2**69 + 3) == 0


def test_from_table_copies_only_writable_arrays():
    # An array the caller can still write to is copied, whatever its dtype.
    for dtype in (np.uint8, np.int64):
        values = np.array([0, 1, 1, 0], dtype=dtype)
        C = Coloring.from_table(values, q=2)
        values[:] = 1
        assert C.table.tolist() == [0, 1, 1, 0]
        assert not C.table.flags.writeable
    # A read-only view of a writable array is copied too.
    values = np.array([0, 1, 1, 0], dtype=np.uint8)
    view = values.view()
    view.setflags(write=False)
    C = Coloring.from_table(view, q=2)
    values[0] = 1
    assert C.table.tolist() == [0, 1, 1, 0]
    # A read-only array of the color dtype that owns its memory, or views
    # bytes, is taken as it is.
    frozen = np.array([0, 1, 1, 0], dtype=np.uint8)
    frozen.setflags(write=False)
    assert np.shares_memory(Coloring.from_table(frozen, q=2).table, frozen)
    blob = np.frombuffer(bytes([0, 1, 1, 0]), dtype=np.uint8)
    assert np.shares_memory(Coloring.from_table(blob, q=2).table, blob)


def test_evaluate_explicit():
    C = Coloring.from_table([0, 1, 1, 0], q=2)
    assert C.evaluate(3) == 0
    assert [C.evaluate(v) for v in range(4)] == [0, 1, 1, 0]


def test_translation_of_parity():
    C = parity_coloring(2)
    T = Coloring.translation(C, (1, 1))
    assert T.materialize().table.tolist() == [0, 1, 1, 0]
    # shift by a single coordinate flips parity
    T1 = Coloring.translation(C, (1, 0))
    assert T1.materialize().table.tolist() == [1, 0, 0, 1]
    # word and index shifts agree
    T2 = Coloring.translation(C, 3)
    assert T2.materialize().table.tolist() == T.materialize().table.tolist()


def test_translation_general_q():
    # base: value of digit 0 in H(2,3)
    C = Coloring.from_table([v % 3 for v in range(9)], q=3)
    T = Coloring.translation(C, (1, 0))
    expect = [(v % 3 - 1) % 3 for v in range(9)]
    assert T.materialize().table.tolist() == expect


def test_cylinder_adds_dummy_positions():
    C = parity_coloring(2)
    D = Coloring.cylinder(C, n=4, offset=1)
    Dm = D.materialize()
    for v in range(16):
        w = digits(v, 4, 2)
        assert Dm.table[v] == (w[1] + w[2]) % 2


def test_merge_partition_checked():
    C = Coloring.from_table([0, 1, 2, 0, 1, 2, 0, 1, 2], q=3)
    M = Coloring.merged(C, [[0, 2], [1]])
    assert M.k == 2
    assert M.materialize().table.tolist() == [0, 1, 0, 0, 1, 0, 0, 1, 0]
    with pytest.raises(InvalidPartitionError):
        Coloring.merged(C, [[0], [1]])
    with pytest.raises(InvalidPartitionError):
        Coloring.merged(C, [[0, 1], [1, 2]])
    # An empty group would be a color no vertex takes.
    with pytest.raises(InvalidPartitionError):
        Coloring.merged(C, [[0], [1, 2], []])
    # A color twice, out of range or negative, or no group at all.
    for grouping in ([[0, 0], [2]], [[0, 3], [1]], [[-1, 0], [1]], []):
        with pytest.raises(InvalidPartitionError):
            Coloring.merged(C, grouping)


def test_merge_all_colors():
    C = Coloring.from_table([0, 1, 1, 0], q=2)
    M = Coloring.merged(C, [[0, 1]])
    assert M.k == 1
    assert set(M.materialize().table.tolist()) == {0}


def test_syndrome_small():
    S = Coloring.syndrome(1)
    assert S.n == 1 and S.k == 2
    assert S.materialize().table.tolist() == [0, 1]


def test_materialize_guard(monkeypatch):
    explicit = parity_coloring(4)
    for C in (Coloring.translation(explicit, 0), explicit):
        monkeypatch.setenv(GUARD_ENV_VAR, "8")
        with pytest.raises(TooLargeError):
            C.materialize()
        monkeypatch.setenv(GUARD_ENV_VAR, "16")
        assert C.materialize().table.size == 16


def test_guard_env_override(monkeypatch):
    monkeypatch.setenv("PCOL_MATERIALIZE_GUARD", "123")
    assert materialize_guard() == 123
    monkeypatch.setenv("PCOL_MATERIALIZE_GUARD", "1_000")
    assert materialize_guard() == 1000
    for bad in ("abc", "-5", "1.5"):
        monkeypatch.setenv("PCOL_MATERIALIZE_GUARD", bad)
        with pytest.raises(OutOfRangeError, match="PCOL_MATERIALIZE_GUARD"):
            materialize_guard()


class _ParityBody:
    """Parity of a vertex of H(2, 2): two colors, whatever k claims."""

    def eval(self, idx):
        return (idx ^ (idx >> 1)) & 1


def test_materialize_not_surjective():
    base = Coloring(2, 2, 3, _ParityBody())
    T = Coloring.translation(base, (0, 0))
    with pytest.raises(NotSurjectiveError) as ei:
        T.materialize()
    assert ei.value.missing_color == 2


@pytest.mark.parametrize("k", [1, 2, 3, 256, 257, 8192])
def test_first_vertices_match_unique(k):
    rng = np.random.default_rng(0xF125 + k)
    arr = rng.integers(0, k, 2**17)
    # Every color somewhere, most of them past the first slices.
    arr[rng.choice(arr.size, k, replace=False)] = np.arange(k)
    arr = arr.astype(color_dtype(k))
    colors, first = np.unique(arr, return_index=True)
    assert colors.tolist() == list(range(k))
    assert _first_vertices(arr, k).tolist() == first.tolist()


@pytest.mark.parametrize("cell", [4095, 4096, 8191, 8192, 2**20 - 1, 2**20, 2**21 - 1])
def test_first_vertices_find_a_late_color(cell):
    # Color 2 first appears at cell (on a slice edge, or in the last cell of
    # an H(21, 2) table) and a few times after it.
    rng = np.random.default_rng(cell)
    arr = rng.integers(0, 2, 2**21).astype(np.uint8)
    arr[cell] = 2
    arr[rng.integers(cell, arr.size, 5)] = 2
    assert _first_vertices(arr, 3).tolist() == np.unique(arr, return_index=True)[1].tolist()
    C = Coloring.from_table(arr, q=2)
    assert (C.n, C.k) == (21, 3)


@pytest.mark.parametrize("k,missing", [(3, [0]), (3, [2]), (257, [5, 256]),
                                       (8192, [17, 4000, 8191]), (8192, list(range(100, 8192)))])
def test_first_vertices_report_the_lowest_missing_color(k, missing):
    rng = np.random.default_rng(k + len(missing))
    present = np.setdiff1d(np.arange(k), missing)
    arr = present[rng.integers(0, present.size, 2**17)].astype(color_dtype(k))
    with pytest.raises(NotSurjectiveError) as ei:
        _first_vertices(arr, k)
    assert ei.value.missing_color == min(missing)
    with pytest.raises(NotSurjectiveError) as ei:
        Coloring.from_table(arr, q=2, k=k)
    assert ei.value.missing_color == min(missing)


def test_first_vertex_scan_of_many_colors_is_fast():
    # A random 8192-coloring of H(20, 2): the check in from_table plus the
    # scan that compute_quotient repeats.  Comparing every color with a whole
    # 2**20-cell block instead takes about 4 s.
    k = 8192
    arr = np.random.default_rng(0xF1125).integers(0, k, 2**20)
    t0 = time.perf_counter()
    C = Coloring.from_table(arr, q=2, k=k)
    _first_vertices(C.table, k)
    assert time.perf_counter() - t0 < 0.5


@pytest.mark.parametrize("block", [3, 1 << 20])
def test_color_counts_match_bincount(monkeypatch, block):
    # Compares up to _FEW_COLORS colors, bincount past it; colors may be missing.
    monkeypatch.setattr(core, "_MATERIALIZE_BLOCK", block)
    rng = np.random.default_rng(block)
    for k in (1, 2, 3, 4, 5, 6, core._FEW_COLORS, core._FEW_COLORS + 1, 300):
        for size in (1, 10, 3**7):
            arr = rng.integers(0, k, size).astype(color_dtype(k))
            assert _color_counts(arr, k).tolist() == np.bincount(arr, minlength=k).tolist()


def test_color_dtype_choice():
    small = Coloring.from_table([0, 1, 1, 0], q=2)
    assert small.table.dtype == np.uint8
    table = list(range(300)) + [0] * (512 - 300)
    big = Coloring.from_table(table, q=2)
    assert big.table.dtype == np.uint16
    assert big.k == 300
    # No table holds more than 65536 colors, so no symbolic coloring may.
    assert Coloring.syndrome(16).k == 65536
    with pytest.raises(UnsupportedError):
        Coloring.syndrome(17)


def test_outer_node_shape_checks():
    member = Coloring.from_table([0, 1], q=2)
    E = Coloring.from_table([0, 1, 3, 2], q=2)
    F = Coloring.outer([member, member], E)
    assert (F.n, F.q, F.k) == (4, 2, 2)
    with pytest.raises(OutOfRangeError):
        Coloring.outer([member], E)


def test_symbolic_evaluate_matches_materialization():
    rng = np.random.default_rng(20240817)
    base = parity_coloring(3)
    comp = Coloring.merged(
        Coloring.translation(Coloring.cylinder(base, n=5, offset=1), (1, 0, 1, 0, 0)),
        [[1], [0]],
    )
    assert comp.materialize().table.tolist() == [scalar_color(comp, v) for v in range(32)]
    for v in rng.integers(0, 32, size=200):
        assert comp.evaluate(int(v)) == scalar_color(comp, int(v))


def test_default_guard_blocks_huge_materialization():
    # H(30, 2) has 2**30 cells, past the default 2**26 guard
    big = Coloring.cylinder(parity_coloring(4), n=30, offset=0)
    with pytest.raises(TooLargeError):
        big.materialize()
    assert big.evaluate(2**29 + 3) in (0, 1)


@pytest.mark.parametrize("make,error,message", [
    (lambda: Coloring.from_table([0, -1], q=2), OutOfRangeError, "negative color value"),
    (lambda: Coloring.from_table([0, 2], q=2, k=2), OutOfRangeError, r"color 2 not below k=2"),
    (lambda: Coloring.translation(parity_coloring(2), (0, 2)), OutOfRangeError,
     r"shift \(0, 2\) is not a word of H\(2,2\)"),
    (lambda: Coloring.cylinder(parity_coloring(2), 3, 2), OutOfRangeError,
     r"window \[2, 4\) not inside \[0, 3\)"),
    (lambda: Coloring.outer([parity_coloring(2), parity_coloring(3)], parity_coloring(2)),
     OutOfRangeError, r"collection members must share \(n, q, k\)"),
    (lambda: Coloring.outer([], parity_coloring(2)), OutOfRangeError, "empty collection"),
    (lambda: Coloring.syndrome(0), OutOfRangeError, "m must be >= 1, got 0"),
    (lambda: Coloring.syndrome(2).table, TypeError, "coloring is symbolic"),
    (lambda: QuotientMatrix.of([[0, 1]], 1, 2), OutOfRangeError,
     "quotient matrix must be square"),
    (lambda: QuotientMatrix.of([[0, -1], [1, 0]], 1, 2), OutOfRangeError,
     "quotient entries must be nonnegative"),
])
def test_core_validation_raises(make, error, message):
    with pytest.raises(error, match=message):
        make()


def _shift_by_digits(idx, q, word, sign):
    """x + sign*word over Z_q**n by a loop over the digits."""
    out, rest, place = np.zeros_like(idx), idx, 1
    for z in word:
        out += (rest % q + sign * z) % q * place
        rest, place = rest // q, place * q
    return out


def test_q2_shift_is_one_xor_with_the_word():
    rng = np.random.default_rng(0x0F2)
    for n in (0, 1, 7, 22, 62, 63):
        word = tuple(int(z) for z in rng.integers(0, 2, n))
        idx = rng.integers(0, 2**n, 300, dtype=np.int64) if n else np.zeros(3, np.int64)
        for sign in (1, -1):
            got = core._shifted_index(idx, 2, word, sign)
            assert got.dtype == np.int64
            assert got.tolist() == _shift_by_digits(idx, 2, word, sign).tolist()
    # Object indices past 2**63, as symbolic evaluation passes them.
    for n in (64, 65, 130):
        word = tuple(int(z) for z in rng.integers(0, 2, n))
        idx = np.array([0, 2**n - 1, 2**63, 2**63 - 1] +
                       [int.from_bytes(rng.bytes(17), "little") % 2**n for _ in range(50)],
                       dtype=object)
        for sign in (1, -1):
            assert (core._shifted_index(idx, 2, word, sign).tolist()
                    == _shift_by_digits(idx, 2, word, sign).tolist())


def test_outer_nodes_do_not_import_numpy_ma():
    # np.unique calls np.ma.is_masked, so its first call imports numpy.ma, a
    # dozen milliseconds in a fresh process (numpy 2.4).  Evaluating an outer
    # node and checking a collection of them import nothing that importing
    # pcol did not (numpy before 2.0 imports numpy.ma with numpy itself).
    code = """if True:
        import sys
        from pcol.constructions import construct_bc
        from pcol.verify import check_uniform
        before = "numpy.ma" in sys.modules
        col = construct_bc(6, 2).collection
        col.colorings[0].evaluate(5)
        after_evaluate = "numpy.ma" in sys.modules
        check_uniform(col)
        print(before, after_evaluate, "numpy.ma" in sys.modules)
    """
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), "..", "src"))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=60, check=True).stdout.split()
    assert out == [out[0]] * 3
    assert out[0] == "False" or np.lib.NumpyVersion(np.__version__) < "2.0.0"
