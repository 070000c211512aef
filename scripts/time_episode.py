#!/usr/bin/env python3
"""Time `run_episode` on the benchmark's Markov trace config under one or more `src/` trees.

A trace episode of `anyctrl simulate --traces K` (benchmark workload
markov_simulate) replays one run on one lane. Trims to its per-step work
move its time by a few percent, which the benchmark's run-to-run noise
hides; this script sizes them. For each round it starts one fresh process
per tree, in turn, with PYTHONPATH set to that tree (the convention of
`scripts/cell_digest.py`). Each process builds benchmark instance 3's
markov_simulate config (`bench/workloads.markov_config`), runs one untimed
episode, then times 15 episodes of runs 0 and 1 in turn. Each time is
scaled to reference milliseconds by the benchmark's calibration kernel,
run before and after it, as `bench/workloads.OpProbe` scales an
operation. The script prints each tree's median over all its episodes and
the median of each round:

    python scripts/time_episode.py ../parent/src src
    python scripts/time_episode.py ../parent/src src --rounds 6

It only reads `bench/`, and writes nothing.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
INSTANCE = 3  # markov_simulate's input instance at the benchmark's seed 3
REPEATS = 15  # timed episodes per process


def child() -> None:
    """Print a JSON list of reference ms, one per timed episode of the package on PYTHONPATH."""
    sys.path.append(str(ROOT / "bench"))
    from anyctrl.config import parse_sim_config
    from anyctrl.simulation import run_episode
    from workloads import (CAL_REF_S, MARKOV_HORIZON, MARKOV_RUNS, calibration_seconds,
                           markov_config)

    config = parse_sim_config(markov_config(INSTANCE, MARKOV_RUNS, MARKOV_HORIZON))
    run_episode(config, 0)
    times = []
    closing = calibration_seconds()
    for i in range(REPEATS):
        opening = closing
        start = perf_counter()
        run_episode(config, i % 2)
        seconds = perf_counter() - start
        closing = calibration_seconds()
        times.append(1e3 * seconds * 2.0 * CAL_REF_S / (opening + closing))
    print(json.dumps(times))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="*", help="src/ directories to compare")
    parser.add_argument("--rounds", type=int, default=4, help="fresh processes per tree")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        child()
        return
    trees = [str(Path(t).resolve()) for t in args.trees or [ROOT / "src"]]
    command = [sys.executable, __file__, "--child"]
    rounds = {tree: [] for tree in trees}
    for _ in range(args.rounds):
        for tree in trees:
            out = subprocess.run(command, env={**os.environ, "PYTHONPATH": tree},
                                 check=True, capture_output=True, text=True).stdout
            rounds[tree].append(json.loads(out))
    width = max(len(tree) for tree in trees)
    print(f"{'tree':<{width}}  median ref ms  (median of each round)")
    for tree, times in rounds.items():
        per_round = " ".join(f"{median(t):.2f}" for t in times)
        print(f"{tree:<{width}}  {median(sum(times, [])):13.2f}  ({per_round})")


if __name__ == "__main__":
    main()
