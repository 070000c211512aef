#!/usr/bin/env python3
"""Time the benchmark's operations, and a fig3 sweep, under `src/` trees.

A trace episode of `anyctrl simulate --traces K` (benchmark workload
markov_simulate) replays one run of the Monte-Carlo block on one lane.
Trims to its per-step work move its time by a few percent, which the
benchmark's run-to-run noise hides; this script sizes them. For each
round it starts one fresh process per tree, in turn, with PYTHONPATH set
to that tree and the benchmark's environment (`bench/run.py`: BLAS and
OpenMP pinned to one thread, PYTHONHASHSEED=0, no bytecode written). Each
process builds benchmark instance 3's markov_simulate config
(`bench/workloads.markov_config`), runs one untimed operation, then
times 15 operations in turn. The operation is a trace episode of runs 0
and 1 in turn; with `--op monte_carlo` the config's 100-run `monte_carlo`
call, the operation behind markov_simulate's `op_p99_ms`. Both read one
`presample` of the config, drawn once per process before any timing, as
`anyctrl simulate` draws one block for its study and traces. With
`--op simulate` one whole markov_simulate pass
(`bench/workloads.MarkovSimulate`: `cli.main(["simulate", ..., "--traces",
"2"])` with its config, runs.csv, summary.txt and trace files in a
temporary directory), the unit behind
markov_simulate's `wall_s`; with `--op certify` one pass of benchmark
workload certify at seed 3 (`bench/workloads.Certify`: `CertificateInputs`
plus `stability.evaluate` and its report lines for each of 2048
availability models), the unit behind certify's `wall_s`, and the median
of that pass's operation times, the number behind certify's `op_p50_ms`;
with `--op fig1` one pass of benchmark workload fig1_sweep at instance 3
(`bench/workloads.Fig1Sweep`: `experiments.run_sweep` on the stock fig1
protocol, 200 runs x 1000 steps), the unit behind fig1_sweep's `wall_s`,
and the median of its 15 `monte_carlo` operations, the number behind
fig1_sweep's `op_p50_ms`; with `--op fig3` one `experiments.run_sweep` of
the stock fig3 protocol (`buffer_cap` 1..4) at fig1_sweep's seed and scale,
200 runs x 1000 steps, which no benchmark workload times.
Each time is scaled to reference milliseconds by the benchmark's
calibration kernel, run before and after it, as `bench/workloads.OpProbe`
scales an operation. The script prints each tree's median over all its
operations and the median of each round:

    python scripts/time_episode.py ../parent/src src
    python scripts/time_episode.py ../parent/src src --rounds 6
    python scripts/time_episode.py ../parent/src src --op monte_carlo
    python scripts/time_episode.py ../parent/src src --op simulate
    python scripts/time_episode.py ../parent/src src --op certify
    python scripts/time_episode.py ../parent/src src --op fig1
    python scripts/time_episode.py ../parent/src src --op fig3

It only reads `bench/`. Only `--op simulate` writes files, into a temporary
directory that each process removes when it ends.
"""

import argparse
import contextlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leaves no __pycache__ in bench/
sys.path.append(str(ROOT / "bench"))
from run import THREAD_VARS  # noqa: E402  (bench/ is not a package)

INSTANCE = 3  # the input instance (certify: the batch) of each workload at the benchmark's seed 3
REPEATS = 15  # timed operations per process
OPS = ("episode", "monte_carlo", "simulate", "certify", "fig1", "fig3")


def child(op: str) -> None:
    """Print JSON {series: reference ms of each timed `op`} for the package on PYTHONPATH."""
    from anyctrl.config import parse_sim_config
    from anyctrl.experiments import builtin_experiment, run_sweep
    from anyctrl.simulation import monte_carlo, presample, run_episode
    from workloads import (CAL_REF_S, FIG1_HORIZON, FIG1_RUNS, MARKOV_HORIZON, MARKOV_RUNS,
                           Certify, Fig1Sweep, MarkovSimulate, calibration_seconds,
                           markov_config, probed)

    config = parse_sim_config(markov_config(INSTANCE, MARKOV_RUNS, MARKOV_HORIZON))
    draws = presample(config)
    times = {op: []}
    workload = None  # a whole-pass workload whose median operation is a second series
    median_op = f"{op} median op"
    with contextlib.ExitStack() as stack:
        if op in ("certify", "fig1"):
            # neither writes files; fig1's operations are timed by its probe on monte_carlo
            workload = (Certify if op == "certify" else Fig1Sweep)(INSTANCE, workdir=None)
            stack.enter_context(probed(workload))
            times[median_op] = []

            def operation(i):
                workload.run_pass()
        elif op == "simulate":
            workdir = stack.enter_context(tempfile.TemporaryDirectory())
            simulate = MarkovSimulate(INSTANCE, Path(workdir))

            def operation(i):
                simulate.run_pass()
        elif op == "fig3":
            spec = builtin_experiment("fig3", seed=INSTANCE, runs=FIG1_RUNS, horizon=FIG1_HORIZON)

            def operation(i):
                run_sweep(spec)
        elif op == "monte_carlo":
            def operation(i):
                monte_carlo(config, draws)
        else:
            def operation(i):
                run_episode(config, i % 2, draws)
        operation(0)
        closing = calibration_seconds()
        for i in range(REPEATS):
            opening = closing
            start = perf_counter()
            operation(i)
            seconds = perf_counter() - start
            closing = calibration_seconds()
            ref_ms = 1e3 * 2.0 * CAL_REF_S / (opening + closing)
            times[op].append(seconds * ref_ms)
            if workload is not None:
                times[median_op].append(median(workload.probe.latencies) * ref_ms)
    print(json.dumps(times))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="*", help="src/ directories to compare")
    parser.add_argument("--rounds", type=int, default=4, help="fresh processes per tree")
    parser.add_argument("--op", choices=OPS, default="episode",
                        help="the timed operation (default: a trace episode)")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.rounds < 1:
        parser.error(f"--rounds must be at least 1, got {args.rounds}")
    if args.child:
        child(args.op)
        return
    trees = [str(Path(t).resolve()) for t in args.trees or [ROOT / "src"]]
    command = [sys.executable, __file__, "--child", "--op", args.op]
    env = dict(os.environ, **dict.fromkeys(THREAD_VARS, "1"), PYTHONHASHSEED="0",
               PYTHONDONTWRITEBYTECODE="1")
    rounds = {tree: [] for tree in trees}
    for _ in range(args.rounds):
        for tree in trees:
            out = subprocess.run(command, env={**env, "PYTHONPATH": tree},
                                 check=True, capture_output=True, text=True).stdout
            rounds[tree].append(json.loads(out))
    width = max(len(tree) for tree in trees)
    for series in rounds[trees[0]][0]:
        print(f"{series}\n{'tree':<{width}}  median ref ms  (median of each round)")
        for tree, runs in rounds.items():
            times = [run[series] for run in runs]
            per_round = " ".join(f"{median(t):.4g}" for t in times)
            print(f"{tree:<{width}}  {median(sum(times, [])):13.4g}  ({per_round})")


if __name__ == "__main__":
    main()
