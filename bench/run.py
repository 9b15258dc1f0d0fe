"""The pcol benchmark: time and memory to a verified certificate.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it needs ``src/pcol``).  Every sample
is a fresh process (bench/child.py) that imports pcol, runs all of the
workload's instances and checks each against its expected values.  Samples
repeat until the next one would end after S seconds, with at least two.  Eight
extra processes only import pcol and time a fixed calibration loop, for
set-up time and for the machine's current speed.

With ``--trace 0`` the last stdout line reports the end-to-end metrics that
BENCHMARK.json lists, as medians over the samples; construct_s and verify_s,
which split cert_s, are only in the record line.  With ``--trace 1`` untraced and span-traced samples
alternate; the last line reports the per-layer metrics that BENCHMARK.json
lists (medians over traced samples) and the tracing overhead, and the spans
are written under bench/.work/traces/.  BENCHMARK.json leaves out the layers
that only some workloads call (cli.main, verify.check_uniform,
spectral.eigen_decomposition_check), since their times would read 0 on the
others.  The line before the last holds the full record: provenance, sample
counts, every sample, every failed check and all per-layer metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
WORK = BENCH / ".work"
SETUP_RUNS = 8
MIN_SAMPLES = 2
# Stop starting samples that could end past this, so a run ends within 180 s.
HARD_LIMIT_S = 160.0

END_TO_END = {"setup_s": "s", "construct_s": "s", "verify_s": "s", "cert_s": "s",
              "peak_rss_mb": "MiB"}
TIMES = ("construct_s", "verify_s", "cert_s")
TRACE_RUN = ("trace.cert_s", "trace.untraced_cert_s", "trace.overhead_s", "trace.glue_s")
# Median calibrate() time (bench/child.py) on the machine of bench/BASELINE.md
# in a quiet period.  End-to-end times are reported as seconds on that machine
# when it is quiet: setup_s as wall time x REFERENCE_CALIB_S / the calibration
# time of the same import-only process, the workload times as wall medians x
# REFERENCE_CALIB_S / the median calibration time of the run.  Per-layer
# metrics stay in wall seconds.
REFERENCE_CALIB_S = 0.125


def unit_of(metric: str) -> str:
    last = metric.rsplit(".", 1)[-1]
    if last.endswith("_s") or last == "s":
        return "s"
    return {"peak_mb": "MiB", "cells": "cells", "bytes": "bytes"}.get(last, "count")


class Sampler:
    """Starts child processes one at a time and collects their results."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.count = 0

    def spawn(self, args: list[str]) -> dict | None:
        self.count += 1
        result = WORK / f"result-{os.getpid()}-{self.count}.json"
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        spawned_at = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), repr(spawned_at),
             "--result", str(result), *args],
            cwd=ROOT, env=env, stdout=sys.stderr)
        try:
            code = proc.wait(timeout=max(1.0, self.deadline + 15 - time.monotonic()))
        except subprocess.TimeoutExpired:
            print("sample killed after the run's time limit", file=sys.stderr)
            return None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if code != 0 or not result.exists():
            print(f"sample process exited with code {code}", file=sys.stderr)
            return None
        data = json.loads(result.read_text(encoding="utf-8"))
        result.unlink()
        return data


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Turn SIGTERM into SystemExit so the running sample is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "pcol" / "__init__.py").is_file():
        print(f"error: no pcol sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import spans
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    per_sample = len(workloads.WORKLOADS[args.workload](args.seed))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    start = time.monotonic()
    sampler = Sampler(start + HARD_LIMIT_S)
    WORK.mkdir(parents=True, exist_ok=True)
    setups = [sampler.spawn(["--setup-only"]) for _ in range(SETUP_RUNS)]
    if any(s is None for s in setups):
        print("error: a set-up process failed", file=sys.stderr)
        return 2

    samples: list[dict] = []
    attempted = failed = 0
    durations = []
    workdir = WORK / f"run-{os.getpid()}"
    try:
        while True:
            traced = bool(args.trace) and len(samples) % 2 == 1
            t0 = time.monotonic()
            sample = sampler.spawn(["--workload", args.workload, "--seed", str(args.seed),
                                    "--trace", str(int(traced)), "--workdir", str(workdir)])
            durations.append(time.monotonic() - t0)
            if sample is None:
                attempted += per_sample
                failed += per_sample
                break
            sample["traced"] = traced
            samples.append(sample)
            attempted += sample["attempted"]
            failed += sample["failed"]
            for name, problems in sample["problems"].items():
                for problem in problems:
                    print(f"FAILED {name}: {problem[:300]}", file=sys.stderr)
            elapsed = time.monotonic() - start
            next_end = elapsed + statistics.mean(durations)
            if next_end > HARD_LIMIT_S or (len(samples) >= MIN_SAMPLES
                                            and next_end > args.seconds):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [s for s in samples if not s["traced"]]
    traced_samples = [s for s in samples if s["traced"]]
    calib_s = median([s["calib_s"] for s in setups])
    wall = {"setup_s": median([s["setup_s"] for s in setups]),
            **{name: median([s[name] for s in plain]) for name in TIMES}}
    e2e = {"setup_s": median([s["setup_s"] * REFERENCE_CALIB_S / s["calib_s"]
                              for s in setups]),
           **{name: wall[name] * REFERENCE_CALIB_S / calib_s for name in TIMES},
           "peak_rss_mb": median([s["peak_rss_mb"] for s in plain])}
    sample_counts = {name: len(plain) for name in END_TO_END}
    sample_counts["setup_s"] = len(setups)

    if args.trace:
        layers = {name: median([s["layers"][name] for s in traced_samples])
                  for name in spans.metric_names()}
        layers["trace.cert_s"] = median([s["cert_s"] for s in traced_samples])
        layers["trace.untraced_cert_s"] = wall["cert_s"]
        layers["trace.overhead_s"] = layers["trace.cert_s"] - wall["cert_s"]
        layers["trace.glue_s"] = layers["trace.cert_s"] - layers["trace.spans_s"]
        reported = {m["name"]: layers[m["name"]] for m in spec["per_layer"]}
        trace_dir = WORK / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        trace_file = trace_dir / f"{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps([s["spans"] for s in traced_samples]),
                              encoding="utf-8")
        for s in traced_samples:
            del s["spans"]
    else:
        reported = {m["name"]: e2e[m["name"]] for m in spec["end_to_end"]}

    for name, value in e2e.items():
        print(f"{name} {value:.6g} {END_TO_END[name]} (median of {sample_counts[name]}"
              + (f"; wall {wall[name]:.6g})" if name in wall else ")"), file=sys.stderr)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": {
            "git_commit": git_commit(),
            "src_sha256": source_digest(),
            "nproc": len(os.sched_getaffinity(0)),
            "python": samples[0]["python"] if samples else platform.python_version(),
            "numpy": samples[0]["numpy"] if samples else None,
            "platform": platform.platform(),
            "machine": platform.machine(),
        },
        "samples": {"untraced": len(plain), "traced": len(traced_samples),
                    "setup": len(setups)},
        "sample_counts": sample_counts,
        "end_to_end": e2e,
        "wall": wall,
        "calib_s": calib_s,
        "ops_failed_frac": failed / attempted if attempted else 1.0,
        "attempted": attempted,
        "failed": failed,
        "per_sample": samples,
    }
    if args.trace:
        record["per_layer"] = layers
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": END_TO_END.get(name) or unit_of(name)}
                    for name, value in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
