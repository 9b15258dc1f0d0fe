import hashlib
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from pcol import pcolfile
from pcol.cli import main
from pcol.core import GUARD_ENV_VAR, Coloring
from pcol.errors import (ColorOutOfRangeError, LengthMismatchError,
                         ParseError, PcolError, TooLargeError, UnsupportedError)
from pcol.pcolfile import read_pcol, write_pcol


def parity(n):
    return Coloring.from_table([bin(v).count("1") % 2 for v in range(2**n)], q=2)


def test_text_format_frozen(tmp_path):
    path = tmp_path / "parity.pcol"
    write_pcol(path, parity(2))
    assert path.read_text() == "PCOL 1\nq=2 n=2 k=2\n0 1 1 0\n"
    back = read_pcol(path)
    assert back.table.tolist() == [0, 1, 1, 0]


def test_binary_roundtrip_byte_exact(tmp_path):
    C = parity(5)
    p1 = tmp_path / "a.pcolb"
    write_pcol(p1, C, binary=True)
    back = read_pcol(p1)
    assert back.table.tolist() == C.table.tolist()
    p2 = tmp_path / "b.pcolb"
    write_pcol(p2, back, binary=True)
    assert p1.read_bytes() == p2.read_bytes()


def test_readers_keep_their_tables_without_a_copy(tmp_path):
    # from_table takes a reader's read-only table as it is: a view of the
    # parsed array (text) or of the file's bytes (binary), not a copy.
    wide = Coloring.from_table(list(range(300)) + [0] * 212, q=2)
    for C in (parity(5), wide):
        for binary in (False, True):
            path = tmp_path / ("c.pcolb" if binary else "c.pcol")
            write_pcol(path, C, binary=binary)
            table = read_pcol(path).table
            assert table.base is not None and not table.flags.owndata
            assert np.array_equal(table, C.table)


def test_wide_colors_use_two_bytes(tmp_path):
    table = list(range(300)) + [0] * (512 - 300)
    C = Coloring.from_table(table, q=2)
    path = tmp_path / "wide.pcolb"
    write_pcol(path, C, binary=True)
    assert os.path.getsize(path) > 1024
    assert read_pcol(path).table.tolist() == table


def test_truncated_payload(tmp_path):
    path = tmp_path / "trunc.pcol"
    path.write_text("PCOL 1\nq=2 n=2 k=2\n0 1 1\n")
    with pytest.raises(LengthMismatchError) as ei:
        read_pcol(path)
    assert "4" in str(ei.value)


def test_color_out_of_range(tmp_path):
    path = tmp_path / "oob.pcol"
    path.write_text("PCOL 1\nq=2 n=2 k=2\n0 1 2 0\n")
    with pytest.raises(ColorOutOfRangeError):
        read_pcol(path)


def test_parse_errors_carry_location(tmp_path):
    path = tmp_path / "bad.pcol"
    path.write_text("PCOL 1\nq=2 n=2 k=2\n0 x 1 0\n")
    with pytest.raises(ParseError) as ei:
        read_pcol(path)
    assert ei.value.line == 3
    path.write_text("NOPE\n")
    with pytest.raises(ParseError):
        read_pcol(path)


def test_construct_rm_cli(tmp_path, capsys):
    out = tmp_path / "rm.pcol"
    code = main(["construct", "rm", "--q", "3", "--s", "1", "-o", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "predicted quotient" in text
    C = read_pcol(out)
    assert (C.n, C.q, C.k) == (3, 3, 9)


def test_construct_bc_error_exit_code(capsys):
    assert main(["construct", "bc", "--b", "2", "--c", "1"]) == 2
    assert "power of two" in capsys.readouterr().err


def test_verify_roundtrip(tmp_path, capsys):
    path = tmp_path / "p3.pcol"
    write_pcol(path, parity(3))
    code = main(["verify", str(path), "--essential", "--degree", "--json",
                 "--expect-quotient", "[[0,3],[3,0]]"])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["report_version"] == 1
    assert rep["perfect"] is True
    assert rep["quotient"] == [[0, 3], [3, 0]]
    assert rep["densities"] == ["1/2", "1/2"]
    assert rep["essential"] == [True, True, True]
    assert rep["degrees"] == [3, 3]
    assert rep["spectrum"] == [
        {"index": 0, "eigenvalue": 3, "multiplicity": 1},
        {"index": 3, "eigenvalue": -3, "multiplicity": 1},
    ]
    assert rep["witness"] is None


def test_verify_text_report_prints_witness_and_degrees(tmp_path, capsys):
    path = tmp_path / "star.pcol"
    path.write_text("PCOL 1\nq=2 n=2 k=2\n0 1 1 1\n")
    assert main(["verify", str(path), "--degree", "--essential"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "witness: vertices 1 and 3 share color 1 but see (1, 1) vs (0, 2)" in lines
    assert "degrees: 2 2" in lines


def test_verify_detects_corruption(tmp_path, capsys):
    C = parity(3)
    table = C.table.tolist()
    table[5] = 1 - table[5]
    path = tmp_path / "bad.pcol"
    write_pcol(path, Coloring.from_table(table, q=2))
    code = main(["verify", str(path), "--json"])
    assert code == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["perfect"] is False
    assert rep["witness"] is not None
    assert rep["quotient"] is None


def test_verify_expectation_mismatch(tmp_path, capsys):
    path = tmp_path / "p3.pcol"
    write_pcol(path, parity(3))
    code = main(["verify", str(path), "--expect-quotient", "[[1,2],[2,1]]"])
    assert code == 1
    assert "does not match" in capsys.readouterr().out


def test_verify_threads_identical_output(tmp_path, capsys):
    path = tmp_path / "u.pcol"
    from pcol.constructions import hamming_cosets, hamming_union_coloring
    write_pcol(path, hamming_union_coloring(hamming_cosets(3), 0, 3))
    outputs = []
    for t in ("1", "4"):
        assert main(["verify", str(path), "--essential", "--degree", "--json",
                     "--threads", t]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_verify_rejects_nonpositive_threads(tmp_path, capsys):
    path = tmp_path / "p3.pcol"
    write_pcol(path, parity(3))
    for t in ("0", "-2"):
        assert main(["verify", str(path), "--threads", t]) == 2
        err = capsys.readouterr().err
        assert "--threads" in err and "Traceback" not in err


def test_info(tmp_path, capsys):
    path = tmp_path / "p2.pcol"
    write_pcol(path, parity(2))
    assert main(["info", str(path)]) == 0
    out = capsys.readouterr().out
    assert "H(2,2)" in out
    assert "1/2 1/2" in out


def test_info_missing_file(capsys):
    assert main(["info", "/nonexistent/path.pcol"]) == 2


def test_construct_boolean_cli(tmp_path, capsys):
    out = tmp_path / "b.pcol"
    assert main(["construct", "boolean", "--rho", "1/4", "--e", "1",
                 "-o", str(out)]) == 0
    C = read_pcol(out)
    assert (C.n, C.q, C.k) == (3, 2, 2)
    assert main(["construct", "boolean", "--rho", "1/4", "--e", "1",
                 "--collection-out", str(tmp_path / "members")]) == 2
    err = capsys.readouterr().err
    assert "no collection to write" in err and "Traceback" not in err
    assert not (tmp_path / "members").exists()
    assert main(["construct", "boolean", "--rho", "1-4", "--e", "1", "-o", str(out)]) == 2
    assert capsys.readouterr().err == "error: --rho expects R/S, got '1-4'\n"


def test_construct_hamming_union_with_collection(tmp_path, capsys):
    out = tmp_path / "u.pcol"
    coldir = tmp_path / "members"
    assert main(["construct", "hamming-union", "--m", "2", "--cprime", "1",
                 "-o", str(out), "--collection-out", str(coldir)]) == 0
    manifest = json.loads((coldir / "manifest.json").read_text())
    assert manifest["size"] == 4
    assert manifest["provenance"] == "cyclic-coset-shift"
    assert manifest["quotient"] == [[0, 3], [1, 2]]
    for name in manifest["members"]:
        member = read_pcol(coldir / name)
        assert (member.n, member.q, member.k) == (3, 2, 2)


def test_construct_recursive_cli(tmp_path, capsys):
    base = tmp_path / "base.pcol"
    write_pcol(base, parity(2))
    out = tmp_path / "rec.pcol"
    assert main(["construct", "recursive", "--base", str(base),
                 "--collection-size", "2", "--steps", "1", "-o", str(out)]) == 0
    text = capsys.readouterr().out
    assert "[[3, 3], [3, 3]]" in text
    assert main(["verify", str(out), "--expect-quotient", "[[3,3],[3,3]]",
                 "--essential"]) == 0
    capsys.readouterr()
    assert main(["construct", "recursive", "--base", str(base),
                 "--collection-size", "3", "--steps", "1"]) == 2
    # Period 2 on H(1, 4): two translates, and 2 is not a power of q = 4.
    write_pcol(base, Coloring.from_table([0, 1, 0, 1], q=4))
    assert main(["construct", "recursive", "--base", str(base), "--steps", "1"]) == 2
    err = capsys.readouterr().err
    assert "has 2 members, not 3" in err and "not a power of q=4" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [["rm", "--q", "2", "--s", "22"],
                                  ["hamming-union", "--m", "26", "--cprime", "1"],
                                  ["boolean", "--rho", "1/16777216", "--e", "1"],
                                  ["bc", "--b", "1", "--c", "8388607"]])
def test_too_many_colors_exit_2_before_building(argv):
    # Each asks for more than 65536 colors.  Refused up front, none of them
    # comes near the 1.5 GB address-space cap or the 10 s timeout.
    resource = pytest.importorskip("resource")
    cap = 1_500_000 * 1024
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")
    proc = subprocess.run(
        [sys.executable, "-m", "pcol.cli", "construct", *argv],
        capture_output=True, text=True, env=env, timeout=10,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
    assert proc.returncode == 2
    assert "more than 65536 colors" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_sizes_past_the_guard_print_on_one_short_line(tmp_path):
    # The coset-union member of bc(1, 4095) lives on H(4095, 2): its 2**4095
    # cells, and a vertex of that size, print as powers, not as 1,233 digits.
    from pcol.core import digits, neighbors
    from pcol.spectral import character_transform
    from pcol.verify import check_uniform, search_colorings

    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")
    proc = subprocess.run(
        [sys.executable, "-m", "pcol.cli", "construct", "bc", "--b", "1", "--c", "4095",
         "-o", str(tmp_path / "f.pcolb"), "--binary"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1 and len(proc.stderr.encode()) < 200
    assert "2**4095" in proc.stderr
    huge = Coloring.syndrome(12)
    calls = [lambda: huge.evaluate(2**4095), lambda: huge.materialize(),
             lambda: digits(-2**4095, 4095, 2), lambda: neighbors(2**5000, 4095, 2),
             lambda: character_transform([0], 4095, 2), lambda: check_uniform([huge]),
             lambda: search_colorings(16, 2, [[0, 16], [16, 0]])]
    for call in calls:
        with pytest.raises(PcolError) as info:
            call()
        message = str(info.value)
        assert "\n" not in message and len(message.encode()) < 200, message


def test_console_entry_point(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")
    path = tmp_path / "p.pcol"
    write_pcol(path, parity(2))
    proc = subprocess.run(
        [sys.executable, "-m", "pcol.cli", "verify", str(path)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "perfect: yes" in proc.stdout


def test_cli_flagship_binary_and_info(tmp_path, capsys):
    out = tmp_path / "bc.pcolb"
    assert main(["construct", "bc", "--b", "10", "--c", "6",
                 "-o", str(out), "--binary"]) == 0
    text = capsys.readouterr().out
    assert "predicted quotient: [[12, 10], [6, 16]]" in text
    assert main(["info", str(out)]) == 0
    info = capsys.readouterr().out
    assert "H(22,2)" in info
    assert "3/8 5/8" in info


def test_binary_truncation_detected(tmp_path):
    from pcol.constructions import rm_coloring

    path = tmp_path / "rm.pcolb"
    write_pcol(path, rm_coloring(2, 2), binary=True)
    blob = path.read_bytes()
    path.write_bytes(blob[:-3])
    with pytest.raises(LengthMismatchError):
        read_pcol(path)


# -- text codec: the per-token loops as oracles -------------------------------

def _oracle_text(C):
    values = C.table.tolist()
    lines = [" ".join(map(str, values[lo:lo + 64])) + "\n"
             for lo in range(0, len(values), 64)]
    return f"PCOL 1\nq={C.q} n={C.n} k={C.k}\n" + "".join(lines)


def _random_table(rng, q, n, k):
    table = rng.integers(0, k, q**n)
    table[rng.choice(q**n, size=k, replace=False)] = np.arange(k)
    return Coloring.from_table(table, q, k)


def _layout(rng, values, separators):
    """Values as text with runs of one or two separators and some leading zeros."""
    runs = [a + b for a in separators for b in [""] + separators]
    seps = [runs[i] for i in rng.integers(0, len(runs), len(values) + 1)]
    zeros = ["0" * z for z in rng.choice(3, size=len(values), p=[0.8, 0.1, 0.1])]
    body = "".join(s + z + str(v) for s, z, v in zip(seps, zeros, values))
    return body + (seps[-1] if rng.integers(2) else "")


def _no_token_loop(blob):
    raise AssertionError("canonical text went through the token loop")


CANONICAL_SPACE = [" ", "\t", "\n", "\r\n", "\r", "\v", "\f"]


@pytest.mark.parametrize("q", [2, 3, 5])
@pytest.mark.parametrize("k", [1, 2, 10, 11, 27, 300])
def test_text_reader_matches_token_split(tmp_path, q, k):
    rng = np.random.default_rng(1000 * q + k)
    n0 = 0
    while q**n0 < k:
        n0 += 1
    path = tmp_path / "t.pcol"
    for n in (n0, n0 + 1, n0 + 2):
        C = _random_table(rng, q, n, k)
        for separators in (CANONICAL_SPACE, CANONICAL_SPACE + ["\x1c", "\x1d", "\x1e", "\x1f"]):
            payload = _layout(rng, C.table.tolist(), separators)
            path.write_bytes(f"PCOL 1\nq={q} n={n} k={k}\n{payload}".encode("ascii"))
            assert read_pcol(path).table.tolist() == [int(t) for t in payload.split()]


@pytest.mark.parametrize("q,n,k", [(2, 19, 2), (3, 12, 27), (5, 8, 300)])
def test_text_reader_past_one_block(tmp_path, monkeypatch, q, n, k):
    # Several parse blocks, with one- and multi-digit tokens cut at block ends.
    C = _random_table(np.random.default_rng(k), q, n, k)
    payload = _layout(np.random.default_rng(n), C.table.tolist(), CANONICAL_SPACE)
    header = f"PCOL 1\nq={q} n={n} k={k}\n"
    block = pcolfile._PARSE_BLOCK
    # Shift the payload so that a token of two or more digits spans the first block end.
    at = [m.start() for m in re.finditer(r"\d\d+", payload[:block])][-1]
    payload = " " * (block - 1 - at) + payload
    assert len(payload) > block and payload[block - 1:block + 1].isdigit()
    path = tmp_path / "big.pcol"
    path.write_bytes((header + payload).encode("ascii"))
    monkeypatch.setattr(pcolfile, "_parse_text_tokens", _no_token_loop)
    assert np.array_equal(read_pcol(path).table, C.table)


@pytest.mark.parametrize("q,n,k", [(2, 0, 1), (2, 5, 2), (3, 5, 27), (3, 12, 300),
                                   (2, 19, 11)])
def test_text_writer_matches_joined_lines(tmp_path, monkeypatch, q, n, k):
    # N = 1, N < 64, N not a multiple of 64, and N past one write block.
    C = _random_table(np.random.default_rng(q * n + k), q, n, k)
    path = tmp_path / "w.pcol"
    write_pcol(path, C)
    assert path.read_bytes() == _oracle_text(C).encode("ascii")
    monkeypatch.setattr(pcolfile, "_parse_text_tokens", _no_token_loop)
    assert np.array_equal(read_pcol(path).table, C.table)


# SHA-256 of the text file of construct_bc(10, 6): 2**22 values, 16 write blocks.
FLAGSHIP_TEXT_SHA256 = "184fd684f0e40bd55f00118db8740d7e6a5925bd3d0d65118f86848ada407184"


def test_flagship_text_bytes_pinned(tmp_path, monkeypatch):
    from pcol.constructions import construct_bc

    C = construct_bc(10, 6).coloring.materialize()
    assert C.table.size == 16 * pcolfile._WRITE_BLOCK
    path = tmp_path / "bc.pcol"
    write_pcol(path, C)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == FLAGSHIP_TEXT_SHA256
    monkeypatch.setattr(pcolfile, "_parse_text_tokens", _no_token_loop)
    assert np.array_equal(read_pcol(path).table, C.table)


@pytest.mark.parametrize("block", range(1, 10))
@pytest.mark.parametrize("payload", [
    "0 1 1 0\n",
    # A block of 3 ends on a digit and the next starts on whitespace.
    "0 1 1 0",
    # A block of 3 ends on whitespace and the next starts on a digit at an
    # odd offset of the payload.
    "0  1 1 0\n",
    "0  1\t\t1 0\n\n", " 0\n\n1  1\f\v0", "0\r\n1\r\n1\r\n0\r\n", "0 1\r\n1 0"])
def test_text_reader_one_digit_tokens_across_blocks(tmp_path, monkeypatch, block, payload):
    monkeypatch.setattr(pcolfile, "_PARSE_BLOCK", block)
    monkeypatch.setattr(pcolfile, "_parse_text_tokens", _no_token_loop)
    path = tmp_path / "s.pcol"
    path.write_bytes(f"PCOL 1\nq=2 n=2 k=2\n{payload}".encode("ascii"))
    assert read_pcol(path).table.tolist() == [0, 1, 1, 0]


@pytest.mark.parametrize("block", range(3, 10))
def test_text_reader_multi_digit_tokens_across_blocks(tmp_path, monkeypatch, block):
    # Blocks that end inside "10" are cut back to their last whitespace.
    monkeypatch.setattr(pcolfile, "_PARSE_BLOCK", block)
    monkeypatch.setattr(pcolfile, "_parse_text_tokens", _no_token_loop)
    values = [10, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 10, 0, 10, 10]
    path = tmp_path / "m.pcol"
    for sep in (" ", "  ", "\r\n"):
        path.write_bytes(f"PCOL 1\nq=2 n=4 k=11\n{sep.join(map(str, values))}".encode("ascii"))
        assert read_pcol(path).table.tolist() == values


def test_text_reader_class_edges_are_not_canonical():
    # The bytes next to each canonical class: "\b", "\x0e", "\x1f", "!", "/", ":".
    # With k = 300 a byte taken for a digit would still give values below k.
    for byte in b"\x08\x0e\x1f!/:":
        for payload in (b"0%c1 1 0\n" % byte, b"0 1 1 0%c" % byte, b"0 1 1 %c0" % byte):
            assert pcolfile._parse_canonical_text(payload, 0, 2, 2, 300) is None
    assert pcolfile._parse_canonical_text(b"0\t1\r1\v0 ", 0, 2, 2, 300) is not None


def test_text_reader_one_cell_without_final_newline(tmp_path, monkeypatch):
    monkeypatch.setattr(pcolfile, "_parse_text_tokens", _no_token_loop)
    path = tmp_path / "one.pcol"
    for q in (2, 3):
        path.write_bytes(f"PCOL 1\nq={q} n=0 k=1\n0".encode("ascii"))
        assert read_pcol(path).table.tolist() == [0]


def test_text_reader_sends_file_separators_to_the_token_loop(tmp_path, monkeypatch):
    # "\x1c" splits tokens for str.split but is not canonical whitespace,
    # even between one-digit tokens at even offsets.
    calls = []
    loop = pcolfile._parse_text_tokens
    monkeypatch.setattr(pcolfile, "_parse_text_tokens",
                        lambda blob: calls.append(blob) or loop(blob))
    path = tmp_path / "fs.pcol"
    for payload in (b"0\x1c1 1 0\n", b"0 1 1\x1c0", b"0 1 1 0\x1c"):
        path.write_bytes(b"PCOL 1\nq=2 n=2 k=2\n" + payload)
        assert read_pcol(path).table.tolist() == [0, 1, 1, 0]
    assert len(calls) == 3


def test_binary_payload_is_the_table_in_file_order(tmp_path):
    # One byte a value up to k = 256, two little-endian bytes from k = 257.
    rng = np.random.default_rng(257)
    path = tmp_path / "b.pcolb"
    for k in (2, 256, 257, 300):
        C = _random_table(rng, 2, 9, k)
        write_pcol(path, C, binary=True)
        dtype = "<u1" if k <= 256 else "<u2"
        assert path.read_bytes() == (f"PCOLB1\nq=2 n=9 k={k}\n".encode("ascii")
                                     + C.table.astype(dtype).tobytes())
    # A strided read-only table is kept as it is by from_table.
    strided = np.frombuffer(bytes([0, 9, 1, 9, 1, 9, 0, 9]), dtype=np.uint8)[::2]
    C = Coloring.from_table(strided, q=2)
    assert not C.table.flags.c_contiguous
    write_pcol(path, C, binary=True)
    assert path.read_bytes() == b"PCOLB1\nq=2 n=2 k=2\n\x00\x01\x01\x00"


def test_noncanonical_tokens_read_as_before(tmp_path):
    path = tmp_path / "f.pcol"
    path.write_text("PCOL 1\nq=2 n=2 k=2\n0 +1 1 0\n")
    assert read_pcol(path).table.tolist() == [0, 1, 1, 0]
    path.write_text("PCOL 1\nq=2 n=2 k=2\n0 1_0 1 0\n")
    with pytest.raises(ColorOutOfRangeError, match="vertex 1 has color 10, not below k=2"):
        read_pcol(path)
    path.write_text("PCOL 1\nq=2 n=2 k=2\n0 -1 1 0\n")
    with pytest.raises(ColorOutOfRangeError, match="vertex 1 has negative color -1"):
        read_pcol(path)
    # Tokens longer than the digit arithmetic takes.
    for ones in ("0" * 18 + "1", "0" * 24 + "1"):
        path.write_text(f"PCOL 1\nq=2 n=2 k=2\n0 {ones}\n1 0")
        assert read_pcol(path).table.tolist() == [0, 1, 1, 0]
    path.write_text("PCOL 1\nq=2 n=2 k=2\n0 1\n1 x\n")
    with pytest.raises(ParseError) as ei:
        read_pcol(path)
    assert (ei.value.line, ei.value.column) == (4, 3)
    assert str(ei.value) == "non-integer token 'x' (line 4, column 3)"


@pytest.mark.parametrize("q,n", [(2, 20000), (3, 16000000)])
@pytest.mark.parametrize("binary", [False, True])
def test_huge_header_n_is_a_length_error(tmp_path, capsys, q, n, binary):
    path = tmp_path / "h.pcol"
    if binary:
        path.write_bytes(f"PCOLB1\nq={q} n={n} k=2\n".encode("ascii") + bytes([0, 1, 1, 0]))
    else:
        path.write_text(f"PCOL 1\nq={q} n={n} k=2\n0 1 1 0\n")
    t0 = time.perf_counter()
    with pytest.raises(LengthMismatchError, match=f"q={q} n={n}"):
        read_pcol(path)
    assert main(["info", str(path)]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert "Traceback" not in capsys.readouterr().err


def test_zero_padded_long_tokens_read_as_their_value(tmp_path):
    path = tmp_path / "z.pcol"
    path.write_text(f"PCOL 1\nq=2 n=2 k=2\n0 {'0' * 5000} {'0' * 4999}1 0\n")
    assert read_pcol(path).table.tolist() == [0, 0, 1, 0]


def test_oversized_token_is_out_of_range(tmp_path, capsys):
    path = tmp_path / "o.pcol"
    path.write_text("PCOL 1\nq=2 n=2 k=2\n0 1 99999999999999999999999 0\n")
    with pytest.raises(ColorOutOfRangeError,
                       match="vertex 2 has color 99999999999999999999999"):
        read_pcol(path)
    assert main(["info", str(path)]) == 2


@pytest.mark.parametrize("token,error,message", [
    # int() refuses more than 4300 digits: leading zeros are dropped first,
    # and a longer run of digits is a color out of range, never a non-integer.
    ("0" * 5000 + "2", ColorOutOfRangeError, r"vertex 1 has color 2, not below k=2"),
    ("9" * 4000, ColorOutOfRangeError,
     r"vertex 1 has color 9{20}\.\.\. \(4000 characters\), not below k=2"),
    ("0" * 5000 + "9" * 5000, ColorOutOfRangeError,
     r"vertex 1 has color 9{20}\.\.\. \(5000 characters\), not below k=2"),
    ("x" * 5000, ParseError,
     r"non-integer token 'x{20}'\.\.\. \(5000 characters\) \(line 3, column 3\)"),
    # A digit run longer than one parse block leaves the canonical parser.
    ("1" * (pcolfile._PARSE_BLOCK + 1), ColorOutOfRangeError,
     rf"vertex 1 has color 1{{20}}\.\.\. \({pcolfile._PARSE_BLOCK + 1} characters\)"),
], ids=["zeros-5000-then-2", "nines-4000", "zeros-then-nines-5000", "letters-5000",
        "ones-past-parse-block"])
def test_long_token_error_is_one_short_line(tmp_path, capsys, token, error, message):
    path = tmp_path / "t.pcol"
    path.write_text(f"PCOL 1\nq=2 n=2 k=2\n0 {token} 1 0\n")
    with pytest.raises(error, match=message):
        read_pcol(path)
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and len(err) < 200


@pytest.mark.parametrize("binary", [False, True])
def test_too_many_colors_rejected_from_header(tmp_path, capsys, binary):
    # The payload is malformed too, so only a header check raises UnsupportedError.
    path = tmp_path / "k.pcol"
    if binary:
        path.write_bytes(b"PCOLB1\nq=2 n=1 k=70000\n\x00\x00\x01")
    else:
        path.write_text("PCOL 1\nq=2 n=1 k=70000\n0 x\n")
    with pytest.raises(UnsupportedError, match="k=70000"):
        read_pcol(path)
    assert main(["info", str(path)]) == 2
    assert "Traceback" not in capsys.readouterr().err


def _outcome(read):
    try:
        return read().table.tolist()
    except PcolError as exc:
        return type(exc), str(exc)


_FUZZ_BYTES = b"0123456789 \t\n\r\v\f\x1c\x1f+-_xq=nk\x00\xff"


def _mutations(rng, blob):
    cut = blob.index(b"\n", blob.index(b"\n") + 1) + 1
    yield blob[:rng.integers(0, len(blob) + 1)]
    for _ in range(3):
        out = bytearray(blob)
        for at in rng.integers(0, len(out), rng.integers(1, 4)):
            out[at] = _FUZZ_BYTES[rng.integers(len(_FUZZ_BYTES))]
        yield bytes(out)
    magic = blob[:blob.index(b"\n") + 1]
    q, n, k = (int(v) for v in rng.choice(
        [0, 1, 2, 3, 4, 9, 27, 256, 257, 65537, 10**30], size=3))
    header = rng.choice([f"q={q} n={n} k={k}", f"q={q} n={n}", f"k={k} n={n} q={q}",
                         f"q={q} n={n} k={k} x=1", f"q={q} n=-{n} k={k}", ""])
    yield magic + header.encode("ascii") + b"\n" + blob[cut:]


def test_fuzz_reader_raises_only_pcol_errors(tmp_path, capsys):
    from pcol.constructions import rm_coloring

    rng = np.random.default_rng(5)
    sources = [parity(3), rm_coloring(3, 1), _random_table(rng, 2, 9, 300)]
    path = tmp_path / "fuzz.pcol"
    for C in sources:
        for binary in (False, True):
            write_pcol(path, C, binary=binary)
            blob = path.read_bytes()
            for _ in range(40):
                for mutated in _mutations(rng, blob):
                    path.write_bytes(mutated)
                    got = _outcome(lambda: read_pcol(path))
                    if not mutated.startswith(pcolfile.BINARY_MAGIC):
                        # The block parser agrees with the token loop on every input.
                        assert got == _outcome(lambda: pcolfile._check_payload(
                            *pcolfile._parse_text_tokens(mutated)))
                    if isinstance(got, tuple):
                        assert main(["info", str(path)]) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_fuzz_reader_applies_the_guard_from_the_header(tmp_path, capsys, monkeypatch):
    from pcol.constructions import rm_coloring

    rng = np.random.default_rng(9)
    sources = [parity(3), rm_coloring(3, 1).materialize(), _random_table(rng, 2, 9, 300)]
    path = tmp_path / "fuzz.pcol"
    for C in sources:
        cells = C.q**C.n
        for binary in (False, True):
            monkeypatch.delenv(GUARD_ENV_VAR, raising=False)
            write_pcol(path, C, binary=binary)
            blob = path.read_bytes()
            monkeypatch.setenv(GUARD_ENV_VAR, str(cells))
            assert read_pcol(path).table.tolist() == C.table.tolist()
            monkeypatch.setenv(GUARD_ENV_VAR, str(cells - 1))
            with pytest.raises(TooLargeError, match=f"q={C.q} n={C.n}"):
                read_pcol(path)
            for _ in range(20):
                for mutated in _mutations(rng, blob):
                    path.write_bytes(mutated)
                    monkeypatch.delenv(GUARD_ENV_VAR)
                    free = _outcome(lambda: read_pcol(path))
                    monkeypatch.setenv(GUARD_ENV_VAR, str(cells - 1))
                    got = _outcome(lambda: read_pcol(path))
                    if isinstance(free, list) and len(free) > cells - 1:
                        assert got[0] is TooLargeError
                    elif got != free:
                        # Only a header past the guard may end the read early.
                        assert got[0] is TooLargeError
                        q, n = map(int, re.match(r"header q=(\d+) n=(\d+):", got[1]).groups())
                        assert q**n > cells - 1
                    if isinstance(got, tuple):
                        assert main(["info", str(path)]) == 2
                        assert main(["verify", str(path)]) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("binary", [False, True])
def test_guard_applies_before_the_payload_is_read(tmp_path, capsys, monkeypatch, binary):
    # A sparse 16 or 32 MiB payload: only the header and one block are read.
    path = tmp_path / "big.pcol"
    header = b"PCOLB1\nq=2 n=24 k=2\n" if binary else b"PCOL 1\nq=2 n=24 k=2\n"
    with open(path, "wb") as fh:
        fh.write(header)
        fh.truncate(len(header) + (2**24 if binary else 2**25 - 1))
    monkeypatch.setenv(GUARD_ENV_VAR, str(2**20))
    tracemalloc.start()
    try:
        with pytest.raises(TooLargeError, match="q=2 n=24"):
            read_pcol(path)
        assert tracemalloc.get_traced_memory()[1] < 4 * 2**20
    finally:
        tracemalloc.stop()
    assert main(["info", str(path)]) == 2
    assert main(["verify", str(path)]) == 2
    assert "Traceback" not in capsys.readouterr().err
    # A payload too short for q**n stays a length error, also past the guard.
    path.write_bytes(header + bytes([0, 1, 1, 0]) if binary else header + b"0 1 1 0\n")
    with pytest.raises(LengthMismatchError):
        read_pcol(path)


@pytest.mark.parametrize("value", ["abc", "-5"])
def test_malformed_guard_variable_exits_2(tmp_path, capsys, monkeypatch, value):
    path = tmp_path / "p.pcol"
    write_pcol(path, parity(3))
    monkeypatch.setenv(GUARD_ENV_VAR, value)
    assert main(["info", str(path)]) == 2
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count(GUARD_ENV_VAR) == 2 and "Traceback" not in err


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_reader_takes_a_pipe(monkeypatch):
    # A pipe is read whole, then its header is held against the guard.
    for guard in ("4", "3"):
        monkeypatch.setenv(GUARD_ENV_VAR, guard)
        r, w = os.pipe()
        try:
            os.write(w, b"PCOL 1\nq=2 n=2 k=2\n0 1 1 0\n")
            os.close(w)
            if guard == "4":
                assert read_pcol(f"/dev/fd/{r}").table.tolist() == [0, 1, 1, 0]
            else:
                with pytest.raises(TooLargeError, match="q=2 n=2"):
                    read_pcol(f"/dev/fd/{r}")
        finally:
            os.close(r)


def test_header_check_reads_on_across_blocks(tmp_path, monkeypatch):
    # Headers longer than a read block, and "\r\n" split between two blocks;
    # the first block holds the binary magic.
    path = tmp_path / "h.pcol"
    heads = [b"PCOL 1\r\nq=2 n=2 k=2\r\n", b" PCOL 1 \r\n  q=2   n=2 k=2  \r\n",
             b"PCOL 1\nq=2 n=2 k=2", b"PCOLB1\r\nq=2 n=2 k=2\r\n"]
    for block in range(len(pcolfile.BINARY_MAGIC), 40):
        monkeypatch.setattr(pcolfile, "_PARSE_BLOCK", block)
        for head in heads:
            payload = bytes([0, 1, 1, 0]) if head.startswith(b"PCOLB1") else b"\n0 1 1 0\n"
            path.write_bytes(head + payload)
            monkeypatch.setenv(GUARD_ENV_VAR, "4")
            assert read_pcol(path).table.tolist() == [0, 1, 1, 0]
            monkeypatch.setenv(GUARD_ENV_VAR, "3")
            with pytest.raises(TooLargeError, match="q=2 n=2"):
                read_pcol(path)
