"""`scripts/time_episode.py` runs end to end on this tree and prints its table."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRICS = ("wall_s", "work_per_s", "op_p50_ms", "op_p99_ms", "peak_rss_mb")


def test_time_episode_checks_markov_simulate_against_the_reference():
    """One round on `src/`: the worker's five end-to-end metrics, and no failed operation.

    The worker checks every pass of markov_simulate (benchmark instance 3)
    against `bench/reference/`, so a change to `src/` that moves a stored
    output fails here as well as in the benchmark.
    """
    src = str(ROOT / "src")
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / "time_episode.py"), src,
                          "--rounds", "1", "--workload", "markov_simulate"],
                         check=True, capture_output=True, text=True, timeout=300).stdout
    lines = out.splitlines()
    assert len(lines) == 4 * len(METRICS) + 3, out
    for name, (title, header, row, wins) in zip(METRICS, zip(*[iter(lines)] * 4)):
        assert re.fullmatch(re.escape(name) + r" \(\S+\)", title)
        assert re.fullmatch(r"tree +median  \(each round\)", header)
        found = re.fullmatch(re.escape(src) + r" +(\S+)  \((\S+)\)", row)
        assert found, row
        value, round_value = map(float, found.groups())
        assert value == round_value > 0
        assert wins == "last tree better in 0 of 1 rounds"  # one tree never beats itself
    title, header, row = lines[-3:]
    assert title == "operations checked against bench/reference/"
    assert re.fullmatch(r"tree +failed  attempted", header)
    found = re.fullmatch(re.escape(src) + r" +(\d+) +(\d+)", row)
    assert found, row
    failed, attempted = map(int, found.groups())
    assert failed == 0 and attempted > 0 and attempted % 3 == 0  # 3 operations a pass
