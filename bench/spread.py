"""Run the benchmark once per seed and summarise each metric's spread.

    python3 bench/spread.py --workload NAME [--seeds 1-10] [--trace 0|1] [--out FILE]

Each run is ``bench/run.py`` with BENCHMARK.json's run_seconds.  For every
reported metric it prints the median over the runs and the distance between
the first and third quartile (``statistics.quantiles(values, n=4)``) as a
share of the median; the end-to-end bounds in BENCHMARK.json apply to that
share.  ``--out`` writes the summary and every run's full record as JSON.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "min": min(values), "max": max(values),
            "spread": (q3 - q1) / med if med else 0.0, "runs": len(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    records, values = [], {}
    attempted = failed = 0
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=200)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(proc.stderr, file=sys.stderr)
            print(f"seed {seed}: run failed with code {proc.returncode}", file=sys.stderr)
            return 1
        record, result = json.loads(lines[-2]), json.loads(lines[-1])
        records.append(record)
        attempted += result["attempted"]
        failed += result["failed"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} samples={record['samples']}", flush=True)

    summary = {name: summarise(v) for name, v in values.items()}
    for name, s in summary.items():
        bound = f" bound {bounds[name]}" if name in bounds else ""
        print(f"{name}: median {s['median']:.6g} spread {s['spread']:.3f}{bound}")
    print(f"attempted {attempted}, failed {failed}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "trace": args.trace, "seeds": args.seeds,
             "run_seconds": spec["run_seconds"], "attempted": attempted, "failed": failed,
             "summary": summary, "records": records}, indent=1, sort_keys=True) + "\n",
            encoding="utf-8")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
