"""One benchmark sample in a fresh process; bench/run.py starts it.

    python3 bench/child.py SPAWNED_AT --result FILE --setup-only
    python3 bench/child.py SPAWNED_AT --result FILE --workload W --seed N --trace 0|1 --workdir DIR

SPAWNED_AT is the parent's time.monotonic() just before the spawn (the clock
is system-wide), so setup_s covers interpreter start up to the return of
``import pcol``.  A --setup-only process then times a fixed calibration loop,
which run.py uses to take the machine's current speed out of the reported
times.  The measurements go to FILE as JSON.
"""
import time

import pcol

SETUP_DONE = time.monotonic()

import argparse  # noqa: E402  (imported after set-up is measured)
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def calibrate() -> float:
    """Wall time of a fixed loop of numpy array passes and pure-Python
    arithmetic, the two kinds of work that set-up and pcol do."""
    t0 = time.perf_counter()
    a = numpy.arange(1 << 21, dtype=numpy.int64)
    for _ in range(8):
        a = (a * 7 + 3) % 1000003
    acc = 0
    for i in range(200000):
        acc += i & 7
    return time.perf_counter() - t0


def run_sample(workload: str, seed: int, traced: bool, workdir: Path) -> dict:
    import spans
    import workloads

    instances = workloads.WORKLOADS[workload](seed)
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = spans.Tracer()
    if traced:
        tracer.install()
    try:
        t0 = time.perf_counter()
        outcomes = workloads.run_instances(instances, workdir)
        cert_s = time.perf_counter() - t0
    finally:
        if traced:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    problems = {o.name: workloads.mismatches(inst, o) for inst, o in zip(instances, outcomes)}
    result = {
        "cert_s": cert_s,
        "construct_s": sum(o.construct_s for o in outcomes),
        "verify_s": sum(o.verify_s for o in outcomes),
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(outcomes),
        "failed": sum(1 for p in problems.values() if p),
        "problems": {name: p for name, p in problems.items() if p},
        "instances": [{"name": o.name, "construct_s": o.construct_s, "verify_s": o.verify_s}
                      for o in outcomes],
    }
    if traced:
        result["layers"] = spans.layer_metrics(tracer.spans)
        result["spans"] = tracer.spans
    return result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("spawned_at", type=float)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir")
    args = parser.parse_args()

    if not Path(pcol.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported pcol from {pcol.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    result = {"setup_s": SETUP_DONE - args.spawned_at,
              "python": platform.python_version(), "numpy": numpy.__version__}
    if args.setup_only:
        result["calib_s"] = calibrate()
    else:
        result.update(run_sample(args.workload, args.seed, bool(args.trace), Path(args.workdir)))
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
