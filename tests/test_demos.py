"""Every quick demo runs to completion against the package source."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# 05 (branch-and-price on the overlap gadget, about 10 s) is left out
QUICK = [
    "01_network_and_routing.py",
    "02_flows_and_cuts.py",
    "03_capacity_preserving.py",
    "04_oblivious_activation.py",
    "06_benchmark_workbench.py",
]


@pytest.mark.parametrize("demo", QUICK)
def test_demo_exits_cleanly(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
