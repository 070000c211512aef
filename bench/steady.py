"""Steadiness mode: repeat benchmark runs over seeds and report how much each metric spreads.

    python3 bench/steady.py [--first-seed 0] [--save FILE] [--against FILE]

Run from the repository root. For each workload of BENCHMARK.json it runs
`bench/run.py` once for each of SEEDS seeds, one run at a time, with the
run length of BENCHMARK.json. For every end-to-end metric it prints the
median, the first and third quartiles (`statistics.quantiles(values, n=4)`)
and the spread (Q3 - Q1) / median, next to the metric's bound. A spread at
or above the bound fails; one at or above a third of it is marked
unsteady. `--against` compares the medians with a set saved by `--save`
and fails any metric whose median got worse by more than its bound. The
exit status is nonzero on any failure.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
SEEDS = 10


def collect(workload, seeds, seconds):
    """Metric values per name over the given seeds; raises if a run fails."""
    values = {}
    for seed in seeds:
        cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=300)
        result = json.loads(done.stdout.strip().splitlines()[-1]) if done.stdout.strip() else {}
        if done.returncode != 0 or not result.get("correct"):
            raise SystemExit(f"{workload} seed {seed}: run failed (status {done.returncode})")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"  {workload} seed {seed}: " + " ".join(
            f"{n}={m['value']:.4g}" for n, m in sorted(result["metrics"].items())), flush=True)
    return values


def worse_by(metric, old, new):
    """How much worse `new` is than `old`, as a share of `old`."""
    change = (new - old) / old
    return change if metric["better"] == "lower" else -change


def main(argv=None) -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="benchmark steadiness over seeds")
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--save", help="write the collected values to this JSON file")
    parser.add_argument("--against", help="JSON file of an earlier --save to compare medians with")
    args = parser.parse_args(argv)

    seeds = range(args.first_seed, args.first_seed + SEEDS)
    collected = {w["name"]: collect(w["name"], seeds, spec["run_seconds"])
                 for w in spec["workloads"]}
    earlier = json.loads(Path(args.against).read_text()) if args.against else {}
    failures = 0
    for workload, values in collected.items():
        print(f"{workload} ({len(seeds)} seeds)")
        print(f"  {'metric':14s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} "
              f"{'bound':>6s}  verdict")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            vals = values[name]
            q1, _, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            spread = (q3 - q1) / median
            verdict = "steady" if spread < bound / 3 else "UNSTEADY"
            if spread >= bound:
                verdict, failures = "FAIL", failures + 1
            if workload in earlier:
                drift = worse_by(metric, statistics.median(earlier[workload][name]), median)
                verdict += f", {drift:+.3f} vs earlier"
                if drift > bound:
                    verdict, failures = verdict + " FAIL", failures + 1
            print(f"  {name:14s} {median:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
                  f"{bound:6.3f}  {verdict}")
    if args.save:
        Path(args.save).write_text(json.dumps(collected, indent=1))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
