#!/usr/bin/env python3
"""A/B the benchmark's end-to-end metrics between `src/` trees.

Each round starts the benchmark's own worker (`bench/worker.py`) once per
tree, with the tree that runs first alternating from round to round. A
worker runs from the tree's root with PYTHONPATH set to the tree, under
`bench/run.py`'s environment (BLAS and OpenMP pinned to one thread,
PYTHONHASHSEED=0, no bytecode written), at seed 3 for SECONDS of timed
work. Every number printed is a field of the worker's JSON: for each
end-to-end metric (`wall_s`, `work_per_s`, `op_p50_ms`, `op_p99_ms`,
`peak_rss_mb`, in reference units as `bench/run.py` prints them) each
tree's median over the rounds and each round's value, then each tree's
count of operations whose outputs differed from `bench/reference/`.
`bench/run.py` adds only `setup_s`, from processes of its own.

    python scripts/time_episode.py ../parent/src src
    python scripts/time_episode.py ../parent/src src --rounds 6 --workload fig1_sweep

A markov_simulate pass runs the operations [`monte_carlo`, trace 0,
trace 1], so its `op_p50_ms` is a trace episode, its `op_p99_ms` the
100-run `monte_carlo` call and its `wall_s` one whole `anyctrl simulate`.
Each tree must be a `src/` directory inside its repository, since the
worker refuses a package imported from outside the `src/` below its
working directory. The worker writes only into `bench/out/`. The exit
status is 1 when any operation of any tree failed its reference check.
"""

import argparse
import json
import os
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leaves no __pycache__ in bench/
sys.path.append(str(ROOT / "bench"))
from run import DEADLINE_S, THREAD_VARS, start_worker  # noqa: E402  (bench/ is not a package)

SEED = 3  # the seed, and so the input instance, of every benchmark run
SECONDS = 2.0  # timed work per worker process
METRICS = ("wall_s", "work_per_s", "op_p50_ms", "op_p99_ms", "peak_rss_mb")
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="*", help="src/ directories to compare")
    parser.add_argument("--rounds", type=int, default=4, help="worker processes per tree")
    parser.add_argument("--workload", choices=WORKLOADS, default="markov_simulate")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error(f"--rounds must be at least 1, got {args.rounds}")
    trees = [Path(t).resolve() for t in args.trees or [ROOT / "src"]]
    for tree in trees:
        if tree.name != "src" or not (tree / "anyctrl" / "__init__.py").is_file():
            parser.error(f"{tree} is not a src/ directory holding the anyctrl package")
    worker_args = argparse.Namespace(workload=args.workload, seed=SEED, seconds=SECONDS, trace=0)
    env = dict(os.environ, **dict.fromkeys(THREAD_VARS, "1"), PYTHONDONTWRITEBYTECODE="1",
               PYTHONHASHSEED="0")
    results = {tree: [] for tree in trees}
    for i in range(args.rounds):
        for tree in trees if i % 2 == 0 else trees[::-1]:
            os.chdir(tree.parent)  # the worker imports the package only from the src/ below it
            results[tree].append(start_worker(worker_args, {**env, "PYTHONPATH": str(tree)},
                                              time.monotonic() + DEADLINE_S)[1])
    width = max(len(str(tree)) for tree in trees)
    for name in METRICS:
        unit = results[trees[0]][0]["metrics"][name]["unit"]
        print(f"{name} ({unit})\n{'tree':<{width}}  {'median':>10}  (each round)")
        for tree, outs in results.items():
            values = [out["metrics"][name]["value"] for out in outs]
            print(f"{str(tree):<{width}}  {median(values):10.4g}  "
                  f"({' '.join(f'{v:.4g}' for v in values)})")
    print(f"operations checked against bench/reference/\n{'tree':<{width}}  failed  attempted")
    failed = {tree: sum(out["failed"] for out in outs) for tree, outs in results.items()}
    for tree, outs in results.items():
        print(f"{str(tree):<{width}}  {failed[tree]:6d}  {sum(out['attempted'] for out in outs):9d}")
    return 1 if any(failed.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
