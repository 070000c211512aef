"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports the package from `src/`.
Workloads: fig1_sweep, markov_simulate, certify (see bench/workloads.py).

An operation is one `monte_carlo` call, one trace episode or one
certificate evaluation; a pass runs all of a workload's operations once,
and a run repeats passes for --seconds of timed work, checking every
pass's outputs against the reference outputs in bench/reference/.

With --trace 0 it prints the end-to-end metrics, every time in reference
seconds: the measured time times the machine's speed, which is CAL_REF_S
over the time of a fixed calibration kernel (bench/workloads.py) run right
before and after each `monte_carlo` call, trace episode and pass, and right
after set-up. The
machine is shared and its speed swings by up to 2x within seconds, so
measured times alone spread past the bounds from run to run; the kernel
is benchmark code, so a change to the package moves reference seconds as
it moves measured ones. The measured pass times are in the result file.
  setup_s      process start to built program objects (median, see below)
  wall_s       one pass: the sum of each operation's median time over the
               passes, plus the median of the rest of a pass
  work_per_s   lane-steps (simulation workloads) or certificates per second
               of wall_s
  op_p50_ms, op_p99_ms   percentiles over the operations of a pass, each at
               its median time over the passes
  peak_rss_mb  peak resident memory of the measuring process
With --trace 1 it prints the per-layer metrics of bench/tracing.py.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it give the environment,
the failure fraction, the bit-for-bit match count and the sample counts.
The exit status is 0 only when every operation matched its reference and,
with --trace 1, the work counts repeated exactly from traced pass to traced
pass and the tracer's mirror of the divergence guard agreed with the engine.

Each run uses fresh processes with BLAS and OpenMP pinned to one thread:
with --trace 0, SETUP_PROBES processes that only import and build the
workload, half of them before and half after one worker process that also
does the timed work. The set-up time is the median, over all of them, of
the time from starting the process to having built the workload's program
objects; splitting the probes keeps one burst of load from other processes
on the machine from moving all of them.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKER = BENCH_DIR / "worker.py"
SETUP_PROBES = 10
DEADLINE_S = 170.0  # every process of a run ends before this
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def start_worker(args, env, deadline, *extra):
    """Run worker.py to completion; returns (reference seconds from start to ready, its JSON output)."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    started = time.monotonic()
    done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - started))
    if done.returncode != 0:
        raise SystemExit(f"worker exited with status {done.returncode}")
    out = json.loads(done.stdout.strip().splitlines()[-1])
    return (out["ready"] - started) * out["speed"], out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="anyctrl benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    root = Path.cwd()
    src = root / "src"
    if not (src / "anyctrl" / "__init__.py").is_file():
        print(f"no package source at {src / 'anyctrl'}; run from the repository root",
              file=sys.stderr)
        return 2
    env = dict(os.environ, **dict.fromkeys(THREAD_VARS, "1"), PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1",
               PYTHONHASHSEED="0")

    def probe_setup(count):
        return [start_worker(args, env, deadline, "--setup-only")[0]
                for _ in range(0 if args.trace else count)]

    setups = probe_setup(SETUP_PROBES // 2)
    setup, result = start_worker(args, env, deadline)
    setups += [setup] + probe_setup(SETUP_PROBES - SETUP_PROBES // 2)

    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    detail = result["detail"]
    attempted, failed = result["attempted"], result["failed"]
    print("env " + json.dumps(result["env"], sort_keys=True))
    print(f"operations: attempted={attempted} failed={failed} "
          f"failed_frac={failed / max(attempted, 1):.6g} bit_exact={result['exact']}")
    print(f"passes={detail['passes']} ops_per_pass={detail['ops_per_pass']} "
          f"{detail['item']}_per_pass={detail['items_per_pass']} pass_walls_s="
          + ",".join(f"{w:.4g}" for w in detail["pass_walls_s"])
          + " measured_pass_walls_s=" + ",".join(f"{w:.4g}" for w in detail["raw_pass_walls_s"]))
    if not args.trace:
        print(f"samples: setup={len(setups)} op_latency={detail['latency_samples']}")
    else:
        print(f"traced_passes={detail['traced_passes']} counts_repeat={detail['counts_repeat']} "
              f"live_mask_mismatch={detail['live_mask_mismatch']} "
              f"spans written to {detail['spans_file']}")
    for name, metric in sorted(metrics.items()):
        print(f"  {name:40s} {metric['value']:>18.6g} {metric['unit']}")
    result["setup_samples_s"] = setups
    out = BENCH_DIR / "out" / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result))
    print(f"full result in {out.relative_to(BENCH_DIR.parent)}")
    print(json.dumps({"correct": bool(result["correct"]), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
