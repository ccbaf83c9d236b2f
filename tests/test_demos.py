"""Every narrative demo under demos/ runs to completion.

Each demo runs in its own interpreter, as a reader would start it.
efficiency_scan.py is left out: it simulates full sessions for n = 1..6 and
takes about 7 s (6.5-8.3 s on a 2-vCPU host), and the efficiency_scan
experiment of the CLI tests and acceptance criterion 3 already cover what
it shows.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "demo", ["attack_demo", "faraday_compensation", "pulse_train_buildup", "readout_truth_table"]
)
def test_demo_exits_cleanly(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{demo}.py")],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
