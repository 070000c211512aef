"""`scripts/time_episode.py` runs end to end on this tree and prints its table."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_time_episode_prints_a_row_per_tree():
    """One round on `src/` times the default operation, a trace episode, in one child process."""
    src = str(ROOT / "src")
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / "time_episode.py"), src,
                          "--rounds", "1"],
                         check=True, capture_output=True, text=True, timeout=300).stdout
    series, header, row = out.splitlines()
    assert series == "episode"
    assert re.fullmatch(r"tree +median ref ms  \(median of each round\)", header)
    found = re.fullmatch(re.escape(src) + r" +(\S+)  \((\S+)\)", row)
    assert found, row
    median, round_median = map(float, found.groups())
    assert median == round_median > 0
