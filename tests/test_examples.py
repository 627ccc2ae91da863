"""The examples run end to end as fresh processes, and the package
quickstart runs as written, so a change to the library surface they use
cannot silently break them. ``finetune_tiny_moe.py`` trains models, so it
stays out of tier-1."""

import contextlib
import io
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

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
    ("estimate_enterprise_cost.py",
     r"H100-80GB +batch=\d+ +[\d.]+ q/s.*\n  \(paper: H100 is the most cost-effective"),
    ("characterize_finetuning.py", r"sparse bsz=8 \(max-ish\) +[\d.]+\n"),
])
def test_example_runs(name, pattern):
    assert re.search(pattern, run_example(name))


def test_package_quickstart_runs():
    """The ``Quickstart::`` block of the package docstring executes and
    prints a finite dollar figure and hour count."""
    doc = repro.__doc__
    block = doc[doc.index("Quickstart::") + len("Quickstart::"):]
    code = textwrap.dedent(block)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "repro.__doc__", "exec"), {})
    dollars, hours = (float(word) for word in out.getvalue().split())
    assert 0.0 < dollars < float("inf") and 0.0 < hours < float("inf")
