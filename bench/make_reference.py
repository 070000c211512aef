"""Record the reference outputs that every benchmark run is checked against.

    PYTHONPATH=src python3 bench/make_reference.py [fig1_sweep markov_simulate certify]

Run from the repository root at the commit whose outputs are the reference.
It stores the per-run costs of every `monte_carlo` call and the sweep rows
of each fig1_sweep instance, the runs.csv/summary.txt contents and a summary
of every trace file of each markov_simulate instance, and the
`StabilityReport.lines()` of every certificate in the pool. It also prints
how often each certificate verdict and note occurs in the pool.
"""

from __future__ import annotations

import sys
import tempfile
from collections import Counter
from pathlib import Path

import workloads


def record_instances(cls):
    for instance in range(workloads.INSTANCES):
        with tempfile.TemporaryDirectory(dir=workloads.BENCH_DIR) as tmp:
            wl = cls(instance, Path(tmp))
            with workloads.probed(wl):
                wl.run_pass()
            entry = wl.reference_entry(wl.outputs())
        print(workloads.save_reference(wl.reference_name(), entry))


def record_certificates():
    wl = workloads.Certify(0, workloads.BENCH_DIR)  # certify writes no files
    wl.batch = list(range(len(wl.pool)))
    wl.items = [entry[1:] for entry in wl.pool]
    wl.run_pass()
    lines = wl.outputs()["lines"]
    paths = Counter()
    for (category, *_), report in zip(wl.pool, lines):
        if isinstance(report, Exception):
            raise SystemExit(f"certificate in category {category} raised {report!r}")
        for line in report:
            if line.startswith(("verdict.", "note=")):
                paths[(category, line)] += 1
            elif line.endswith("=nan"):
                paths[(category, "upsilon=nan (state with p0 = 1)")] += 1
    for (category, line), count in sorted(paths.items()):
        print(f"{count:6d}  {category:13s} {line}")
    print(workloads.save_reference(wl.reference_name(), {"inputs": wl.inputs(), "lines": lines}))


def main(names) -> int:
    for name in names or list(workloads.WORKLOADS):
        if name == "certify":
            record_certificates()
        else:
            record_instances(workloads.WORKLOADS[name])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
