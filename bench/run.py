"""Closed-loop benchmark of pfrac: one client in one single-threaded process
issues operations back to back, each checked against an independent route.

    python3 bench/run.py --workload {dominant,identity,landscape} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a source checkout; pfrac is imported from ./src.
Every repetition runs in a fresh interpreter (bench/worker.py) with cold
caches and the same seed-drawn inputs.

--trace 0 repeats the workload as often as fits in S seconds (at least once)
and reports the medians of
  wall_s       time from the first op to the last, checks included;
  setup_s      process spawn to first op ready: interpreter start, import
               pfrac, input generation (extra set-up-only processes make at
               least SETUP_SAMPLES samples);
  peak_rss_mb  peak resident memory of the worker.
The two times are in reference seconds (see speed.py); the measured seconds
are printed on lines before the result.
--trace 1 runs the workload once untraced and once traced and reports the
per-kernel calls, failures, self time and mpmath calls, the cache hit
ratios, the headroom of the one-second budgets of criteria 1, 2 and 7, and
the tracing overhead.

Stdout carries the environment, the digest of every op's result (identical
across repetitions and between traced and untraced runs) and, as its last
line, a JSON object {correct, attempted, failed, metrics}.  An op that raises
or fails its check counts in `failed`; fail_ratio is failed / attempted.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("dominant", "identity", "landscape")
SETUP_SAMPLES = 7
DEADLINE_S = 170.0  # every run, all of its worker processes included, ends before this


class WorkerFailed(RuntimeError):
    pass


def spawn(args, deadline: float, *flags: str) -> dict:
    """Run one worker to completion; its result, with the set-up time added."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), *flags]
    name = " ".join(cmd[2:])
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{name} passed the deadline") from exc
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"{name} exited with {proc.returncode}")
    result = json.loads(lines[-1])
    result["measured_setup_s"] = result["ready"] - t0
    result["setup_s"] = result["measured_setup_s"] * result["setup_scale"]
    result["process_s"] = time.monotonic() - t0
    return result


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if "PFRAC_PRECISION_BITS" in os.environ:
        print("refusing to run: PFRAC_PRECISION_BITS changes the default precision",
              file=sys.stderr)
        return 2
    if not (ROOT / "src" / "pfrac" / "__init__.py").is_file():
        print(f"no pfrac sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # on SIGTERM unwind like on Ctrl-C, so subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    start = time.monotonic()
    deadline = start + DEADLINE_S
    try:
        if args.trace:
            plain = spawn(args, deadline)
            traced = spawn(args, deadline, "--trace")
            reps = [plain, traced]
        else:
            reps = [spawn(args, deadline)]
            # another repetition only when one like the last still ends in time
            while time.monotonic() - start + reps[-1]["process_s"] <= args.seconds:
                reps.append(spawn(args, deadline))
            setups = reps[:]
            while len(setups) < SETUP_SAMPLES:
                setups.append(spawn(args, deadline, "--setup-only"))
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    digests = {r["digest"] for r in reps}
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    if args.trace:
        metrics = {name: metric(value, layer_unit(name))
                   for name, value in traced["layers"].items()}
        metrics["trace.overhead_ratio"] = metric(traced["wall_s"] / plain["wall_s"], "ratio")
    else:
        metrics = {
            "wall_s": metric(statistics.median(r["wall_s"] for r in reps), "s"),
            "setup_s": metric(statistics.median(r["setup_s"] for r in setups), "s"),
            "peak_rss_mb": metric(statistics.median(r["peak_rss_mb"] for r in reps), "MB"),
        }
    print("env " + json.dumps(reps[0]["env"], sort_keys=True))
    print(f"repetitions {len(reps)}; measured wall_s "
          + " ".join(f"{r['measured_wall_s']:.4f}" for r in reps)
          + "; probes " + " ".join(str(r["probes"]) for r in reps))
    if not args.trace:
        print("measured setup_s " + " ".join(f"{r['measured_setup_s']:.4f}" for r in setups))
    print("digest " + " ".join(sorted(digests)))
    print(json.dumps({"correct": failed == 0 and len(digests) == 1, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
