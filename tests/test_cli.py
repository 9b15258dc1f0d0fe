import json
import os
import subprocess
import sys

import pytest

from pcol.cli import main
from pcol.core import Coloring
from pcol.errors import (ColorOutOfRangeError, LengthMismatchError,
                         ParseError)
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
