"""The planning examples run end to end as fresh processes, so a change
to the library surface they use cannot silently break them."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_example(name: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, str(ROOT / "examples" / name)],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout


@pytest.mark.parametrize("name,pattern", [
    ("quickstart.py", r"\+0 simulations — warm sweeps are free"),
    ("plan_cluster.py", r"warm plan: +0 simulations"),
    ("plan_spot.py", r"scenario cache: \d+ hits / \d+ misses"),
    ("plan_service.py", r"warm: +[\d.]+ ms, 0 simulations"),
])
def test_example_runs(name, pattern):
    assert re.search(pattern, run_example(name))
