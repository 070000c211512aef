"""One measured run of one workload, in its own process; `run.py` starts it.

With --setup-only it imports the package, builds the workload's inputs and
program objects, prints the monotonic time at which it was ready and exits:
`run.py` times several of these to get the set-up time. Otherwise it also
runs timed passes of the workload for --seconds of timed work, checks the
outputs of every pass against the stored reference outputs, and prints its
result as one JSON line. With --trace 1 the first half of the time is
untraced and the second half traced, so that the tracing overhead is the
difference of the two.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import anyctrl
import workloads
from run import THREAD_VARS
from tracing import Tracer, counts_of, layer_metrics, unit_of

OUT_DIR = workloads.BENCH_DIR / "out"


def setup_speed() -> float:
    """The machine's speed just after set-up: CAL_REF_S over the median of three kernel runs."""
    return workloads.CAL_REF_S / float(np.median([workloads.calibration_seconds() for _ in range(3)]))


def environment(root: Path) -> dict:
    """What the numbers were measured on: interpreter, numpy, cores, BLAS threads, code version."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    commit = None
    if (root / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "anyctrl").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "blas": blas,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


class Passes:
    """Timed passes of one workload, each checked against the reference outputs.

    With `calibrating` set, `walls` and `latencies` are in reference seconds
    (see workloads.calibration_seconds): an operation that the workload's
    probe wraps is scaled by the speed measured around it; certify's
    evaluations, too short to time the kernel around each, and the rest of
    a pass are scaled by the speed measured around the pass. `raw_walls`
    keeps the measured pass times. The kernel's own time is left out of
    every pass time.
    """

    def __init__(self, workload, reference, calibrating=False):
        self.workload, self.reference = workload, reference
        self.walls, self.latencies = [], []  # per pass: its wall time, its operation latencies
        self.raw_walls = []
        self.calibrating = calibrating
        self.attempted = self.failed = self.exact = 0
        self.broken = False

    def run(self, budget: float, after_pass=None):
        """Pass after pass until `budget` seconds of timed work (at least one pass)."""
        spent = 0.0
        self.workload.probe.calibrating = self.calibrating
        with workloads.probed(self.workload):
            while not self.broken and (spent == 0.0 or spent < budget):
                spent += self._one_pass(after_pass)

    def _calibrate(self) -> float:
        return workloads.calibration_seconds() if self.calibrating else 0.0

    def _one_pass(self, after_pass) -> float:
        """Runs, times and checks one pass; returns the seconds it took, calibration included."""
        wl = self.workload
        before = self._calibrate()
        start = perf_counter()
        try:
            wl.run_pass()
        except Exception:  # reported as failed operations
            traceback.print_exc()
            self.broken = True
        elapsed = perf_counter() - start
        after = self._calibrate()
        wall = elapsed - wl.probe.calibration_s
        if after_pass is not None:
            after_pass(wall)
        self.attempted += wl.ops_per_pass
        if self.broken:
            self.failed += wl.ops_per_pass
            return before + elapsed + after
        failed, exact = wl.check(wl.outputs(), self.reference)
        self.failed += failed
        self.exact += exact
        latencies = list(wl.probe.latencies)
        self.raw_walls.append(wall)
        if self.calibrating:
            speed = 2.0 * workloads.CAL_REF_S / (before + after)
            speeds = wl.probe.speeds if len(wl.probe.speeds) == len(latencies) else [speed] * len(latencies)
            rest = (wall - sum(latencies)) * speed
            latencies = [t * s for t, s in zip(latencies, speeds)]
            wall = sum(latencies) + rest
        self.walls.append(wall)
        self.latencies.append(latencies)
        return before + elapsed + after


def median_op_seconds(walls, latencies):
    """Each operation's median time over the passes, and the median rest of a pass.

    A burst of load from other tenants of the machine then moves an
    operation's time only when it hits most of its repetitions.
    """
    ops = np.asarray(latencies)  # (passes, operations per pass)
    rest = np.asarray(walls) - ops.sum(axis=1)
    return np.median(ops, axis=0), float(np.median(rest))


def pass_seconds(walls, latencies) -> float:
    """Median time of a pass, taken operation by operation."""
    ops, rest = median_op_seconds(walls, latencies)
    return float(ops.sum()) + rest


def end_to_end(passes: Passes, workload) -> dict:
    """Percentiles are over the operations of a pass, each at its median over the passes."""
    ops, rest = median_op_seconds(passes.walls, passes.latencies)
    wall = float(ops.sum()) + rest
    lat_ms = np.sort(ops) * 1e3
    p99_rank = int(np.ceil(0.99 * lat_ms.size)) - 1
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": {"value": wall, "unit": "s"},
        "work_per_s": {"value": workload.items_per_pass / wall, "unit": "1/s"},
        "op_p50_ms": {"value": float(np.median(lat_ms)), "unit": "ms"},
        "op_p99_ms": {"value": float(lat_ms[p99_rank]), "unit": "ms"},
        "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
    }


def write_spans(tracer: Tracer, name: str, seed: int) -> Path:
    path = OUT_DIR / f"spans-{name}-seed{seed}.json"
    with open(path, "w") as fh:
        json.dump({"fields": ["id", "pass", "name", "start", "end", "parent"],
                   "spans": tracer.spans}, fh)
    return path


def measure(workload, reference, seconds: float, trace: bool, seed: int) -> dict:
    passes = Passes(workload, reference, calibrating=not trace)
    detail = {"workload": workload.name, "ops_per_pass": workload.ops_per_pass,
              "items_per_pass": workload.items_per_pass, "item": workload.item_name}
    metrics, trace_ok = {}, True
    if not trace:
        passes.run(seconds)
        if passes.walls:
            metrics = end_to_end(passes, workload)
        detail["latency_samples"] = sum(map(len, passes.latencies))
    else:
        passes.run(seconds / 2.0)
        n = len(passes.walls)
        tracer, stats = Tracer(), []
        tracer.install()
        try:
            workload.build()  # so that the plant goes through the traced builder
            tracer.spans.clear()
            tracer.reset()
            passes.run(seconds / 2.0, after_pass=lambda wall: stats.append(tracer.pass_stats(wall)))
        finally:
            tracer.uninstall()
        if n and len(passes.walls) > n:
            layer = layer_metrics(
                stats, traced_wall=pass_seconds(passes.walls[n:], passes.latencies[n:]),
                untraced_wall=pass_seconds(passes.walls[:n], passes.latencies[:n]))
            metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in layer.items()}
        detail["traced_passes"] = len(stats)
        detail["counts_repeat"] = all(counts_of(s) == counts_of(stats[0]) for s in stats)
        # monte_carlo calls whose divergence mirror disagreed with the engine's own flags; when
        # one does, the guess in Tracer._stepped no longer holds and live_lane_step_ratio is void
        detail["live_mask_mismatch"] = sum(s["work"].get("live_mask_mismatch", 0) for s in stats)
        trace_ok = detail["counts_repeat"] and detail["live_mask_mismatch"] == 0
        if not trace_ok:
            print("traced work counts differ between passes or the live-lane mirror disagrees "
                  "with the engine", file=sys.stderr)
        detail["spans_file"] = os.path.relpath(write_spans(tracer, workload.name, seed))
    detail["passes"] = len(passes.walls)
    detail["pass_walls_s"] = passes.walls
    detail["raw_pass_walls_s"] = passes.raw_walls
    detail["op_latencies_s"] = passes.latencies
    return {"attempted": passes.attempted, "failed": passes.failed, "exact": passes.exact,
            "correct": not passes.broken and passes.failed == 0 and trace_ok, "metrics": metrics,
            "detail": detail}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    root = Path.cwd()
    if not Path(anyctrl.__file__).resolve().is_relative_to((root / "src").resolve()):
        raise SystemExit(f"anyctrl imported from {anyctrl.__file__}, not from {root / 'src'}")
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        ready = time.monotonic()
        speed = setup_speed()
        if args.setup_only:
            print(json.dumps({"ready": ready, "speed": speed}))
            return 0
        reference = workloads.load_reference(workload.reference_name())
        result = measure(workload, reference, args.seconds, bool(args.trace), args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["ready"] = ready
    result["speed"] = speed
    result["env"] = environment(root)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
