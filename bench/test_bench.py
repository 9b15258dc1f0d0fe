"""Tests of the benchmark itself: the correctness gate, the span tracer and
the metric list in BENCHMARK.json.  Small instances only.

    python3 -m pytest bench/test_bench.py -q
"""
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pcol
import run
import spans
import workloads
from pcol import cli, constructions, core, verify

ROOT = Path(__file__).resolve().parent.parent
SMALL = [
    lambda: workloads.bc_library(6, 2),
    lambda: workloads.bc_cli(6, 2, threads=2),
    lambda: workloads.rm_instance(3, 1),
    lambda: workloads.rm_instance(4, 1),
    lambda: workloads.recursive_instance(1, 3),
    lambda: workloads.perturbed_instance(1, 3, seed=7),
]


def _failures(instances, workdir):
    outcomes = workloads.run_instances(instances, workdir)
    return [workloads.mismatches(i, o) for i, o in zip(instances, outcomes)], outcomes


def test_small_instances_meet_their_closed_forms(tmp_path):
    problems, _ = _failures([make() for make in SMALL], tmp_path)
    assert problems == [[]] * len(SMALL)


def test_planted_wrong_expectation_and_exception_fail_only_their_instance(tmp_path):
    good = workloads.rm_instance(3, 1)
    base = workloads.bc_library(6, 2)

    def planted(observed):
        return {**base.expect(observed), "degrees": [99, 99]}

    def explode(phases, workdir):
        raise RuntimeError("boom")

    instances = [dataclasses.replace(base, expect=planted),
                 dataclasses.replace(good, name="raises", run=explode),
                 good]
    problems, outcomes = _failures(instances, tmp_path)
    assert [bool(p) for p in problems] == [True, True, False]
    assert "degrees" in problems[0][0]
    assert "boom" in problems[1][0]
    assert outcomes[2].observed["perfect"]


def test_nonzero_cli_exit_fails_the_instance(tmp_path):
    inst = workloads.bc_cli(6, 2, threads=1)
    wrong = [[0, 0], [0, 0]]

    def run_with_wrong_expectation(phases, workdir):
        path = workdir / "x.pcolb"
        cli.main(["construct", "bc", "--b", "6", "--c", "2", "-o", str(path), "--binary"])
        return {"construct_exit": 0, "verify_exit": cli.main(
            ["verify", str(path), "--expect-quotient", json.dumps(wrong)]),
            "predicted": "", "report": ""}

    problems, _ = _failures([dataclasses.replace(inst, run=run_with_wrong_expectation)],
                            tmp_path)
    assert any(p.startswith("verify_exit: got 1") for p in problems[0])


def test_pinned_guard_edge_report_is_the_closed_form():
    pinned = (workloads.EXPECTED_DIR / "guard_edge_h24.report.json").read_text(encoding="ascii")
    assert pinned == workloads.bc_report_json(9, 3)


def _bindings():
    owners = [pcol, *(getattr(pcol, name) for name in spans.MODULES), core.Coloring]
    return {(id(owner), attr): obj for owner in owners for attr, obj in vars(owner).items()}


def test_tracer_patches_imported_names_and_restores_every_one():
    before = _bindings()
    original_quotient = verify.compute_quotient
    tracer = spans.Tracer()
    with tracer:
        assert verify.compute_quotient is not original_quotient
        assert constructions.compute_quotient is verify.compute_quotient
        assert pcol.compute_quotient is verify.compute_quotient
        assert vars(core.Coloring)["materialize"].__wrapped__ is before[
            (id(core.Coloring), "materialize")]
    assert _bindings() == before


def _comparable(observed):
    return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in observed.items()}


def test_tracer_leaves_results_and_report_bytes_unchanged(tmp_path):
    plain = workloads.run_instances([make() for make in SMALL], tmp_path)
    tracer = spans.Tracer()
    with tracer:
        traced = workloads.run_instances([make() for make in SMALL], tmp_path)
    assert [o.error for o in traced] == [None] * len(SMALL)
    assert [_comparable(o.observed) for o in traced] == [_comparable(o.observed) for o in plain]

    by_id = {s["id"]: s for s in tracer.spans}
    nested = {(by_id[s["parent"]]["name"], s["name"]) for s in tracer.spans
              if s["parent"] is not None}
    assert ("verify.verification_report", "verify.compute_quotient") in nested
    assert ("cli.main", "constructions.construct_bc") in nested
    assert ("spectral.coloring_degree", "spectral.degree") in nested


def test_layer_metrics_account_for_every_span(tmp_path):
    tracer = spans.Tracer()
    with tracer:
        workloads.run_instances([make() for make in SMALL], tmp_path)
    m = spans.layer_metrics(tracer.spans)
    self_total = sum(v for k, v in m.items() if k.endswith(".self_s"))
    assert self_total == pytest.approx(m["trace.spans_s"], rel=1e-9)
    assert m["verify.verification_report.calls"] == 6
    assert m["spectral.coloring_degree.transforms"] == 2 + 2 + 9 + 16 + 3
    assert m["pcolfile.read_pcol.bytes"] > 0 and m["core.materialize.cells"] > 0


def test_layer_metrics_on_hand_made_spans():
    made = [
        {"id": 0, "parent": None, "name": "spectral.coloring_degree", "start": 0.0,
         "end": 10.0, "peak_bytes": 2**21},
        {"id": 1, "parent": 0, "name": "spectral.degree", "start": 1.0, "end": 5.0},
        {"id": 2, "parent": 1, "name": "spectral.character_transform", "start": 2.0,
         "end": 4.0, "cells": 8},
        {"id": 3, "parent": None, "name": "core.materialize", "start": 11.0, "end": 15.0,
         "cells": 16, "peak_bytes": 0},
        {"id": 4, "parent": 3, "name": "core.materialize", "start": 12.0, "end": 13.0,
         "cells": 4, "peak_bytes": 2**20},
    ]
    m = spans.layer_metrics(made)
    assert m["spectral.coloring_degree.s"] == 10.0
    assert m["spectral.coloring_degree.self_s"] == 6.0
    assert m["spectral.coloring_degree.transforms"] == 1
    assert m["spectral.coloring_degree.peak_mb"] == 2.0
    assert m["other.self_s"] == 2.0
    assert m["spectral.character_transform.cells"] == 8
    assert m["core.materialize.s"] == 4.0
    assert m["core.materialize.self_s"] == 4.0
    assert m["core.materialize.calls"] == 2
    assert m["core.materialize.cells"] == 20
    assert m["trace.spans_s"] == 14.0


def test_benchmark_json_matches_what_the_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e.items() <= run.END_TO_END.items() and {"setup_s", "cert_s"} <= set(e2e)
    reported = spans.metric_names() + list(run.TRACE_RUN)
    partial = ("cli.main.", "verify.check_uniform.", "spectral.eigen_decomposition_check.")
    assert [m["name"] for m in spec["per_layer"]] == [
        name for name in reported if not name.startswith(partial)]
    assert all(m["unit"] == run.unit_of(m["name"]) for m in spec["per_layer"])


def test_run_refuses_a_directory_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "flagship_h22",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
