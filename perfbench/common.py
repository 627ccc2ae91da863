"""Shared harness pieces: checkout layout, hermetic processes, statistics,
and the run record every workload fills in.

The benchmark runs from the root of a checkout and touches nothing
outside it: scratch files go under ``.perfbench/`` there.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
PYTHON = sys.executable

# Set-up runs this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 5

# Environment variables that would let a run start warm.
WARM_ENV = ("REPRO_CACHE_DIR", "REPRO_RUN_STORE")


def program_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def hermetic_env() -> Dict[str, str]:
    """The parent's environment without the warm-state variables, with
    the checkout's ``src`` as the only import root for ``repro``."""
    env = {k: v for k, v in os.environ.items() if k not in WARM_ENV}
    env["PYTHONPATH"] = str(SRC)
    return env


def source_digest() -> str:
    """sha256 over the program's and the harness's source files, names
    and bytes: the harness draws the requests that exact counts count."""
    digest = hashlib.sha256()
    harness = Path(__file__).resolve().parent
    for path in sorted((SRC / "repro").rglob("*.py")) + sorted(harness.glob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def use_checkout_src() -> None:
    """Import ``repro`` in this process from the checkout's ``src``."""
    for name in WARM_ENV:
        os.environ.pop(name, None)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


class Scratch:
    """A fresh temporary directory under ``.perfbench/``: the cwd of
    hermetic child processes, removed on exit."""

    def __enter__(self) -> Path:
        WORK.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
        return self.path

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


@dataclass
class Proc:
    """One finished child process with its own resource usage."""

    returncode: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    stdout: bytes
    stderr: bytes
    timed_out: bool = False


def run_process(argv: Sequence[str], cwd: Path, timeout: float = 120.0) -> Proc:
    """Run ``python <argv>`` to completion in ``cwd``; the child's own
    CPU time and peak RSS come from ``wait4``."""
    out_path, err_path = cwd / ".stdout", cwd / ".stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        child = subprocess.Popen([PYTHON, *argv], stdout=out, stderr=err, cwd=cwd,
                                 env=hermetic_env())
        timer = threading.Timer(timeout, child.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    return Proc(
        returncode=child.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mb=usage.ru_maxrss / 1024.0,
        stdout=out_path.read_bytes(),
        stderr=err_path.read_bytes(),
        timed_out=wall >= timeout,
    )


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def band_mean(values: Sequence[float], q: float, half_width: float) -> float:
    """The ``q``-quantile (``q`` in [0, 1]) smoothed: the mean of the
    samples ranked within ``half_width`` of it, at least one sample.
    Latencies here sit on kernel ticks (an HTTP stall lands on 44 or 48
    ms), so a plain order statistic jumps between modes from run to run;
    this mean moves with the modes' proportions instead."""
    ordered = sorted(values)
    n = len(ordered)
    lo = min(n - 1, max(0, math.floor((q - half_width) * n)))
    hi = max(lo + 1, min(n, math.ceil((q + half_width) * n)))
    return statistics.fmean(ordered[lo:hi])


def p50(values: Sequence[float]) -> float:
    """Median as the mean of the samples ranked 40th to 60th percentile."""
    return band_mean(values, 0.5, 0.1)


def p95(values: Sequence[float]) -> float:
    """95th percentile as the mean of the samples ranked 94th to 96th."""
    return band_mean(values, 0.95, 0.01)


def p99(values: Sequence[float]) -> float:
    """99th percentile as the mean of the samples ranked 98.5th to 99.5th."""
    return band_mean(values, 0.99, 0.005)


def host_loop_ms(repeats: int = 5) -> List[float]:
    """Timings of a fixed pure-Python loop: the host's speed at this
    moment. A shared host's speed can drift by 2x within minutes, so the
    table shows it next to the figures it scales."""
    timings = []
    for _ in range(repeats):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i
        timings.append(1000 * (time.perf_counter() - start))
    return timings


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# The run record
# ---------------------------------------------------------------------------

@dataclass
class Metric:
    value: float
    unit: str
    samples: int


@dataclass
class RunRecord:
    """What one benchmark invocation measured and checked.

    ``attempted``/``failed`` count operations (a process, a request, a
    training step, an evaluation pass) and whole-run checks; a failed
    check, a non-zero exit, an unexpected status or a timeout all count
    as failed. ``metrics`` are the metrics ``BENCHMARK.json`` lists;
    ``table`` holds every named figure for the human-readable report.
    """

    workload: str
    seed: int
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    metrics: Dict[str, Metric] = field(default_factory=dict)
    table: Dict[str, Metric] = field(default_factory=dict)
    notes: Dict[str, object] = field(default_factory=dict)
    outputs: Dict[str, str] = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok

    def output(self, label: str, data: bytes) -> None:
        """Record the sha256 of one program output, so two commits'
        outputs can be diffed label by label."""
        self.outputs[label] = sha256(data)

    def figure(self, name: str, value: float, unit: str, samples: int) -> None:
        self.table[name] = Metric(float(value), unit, int(samples))

    def metric(self, name: str, value: float, unit: str, samples: int) -> None:
        self.metrics[name] = Metric(float(value), unit, int(samples))
        self.table.setdefault(name, self.metrics[name])

    # ------------------------------------------------------------------
    def save_outputs(self, kind: str) -> Path:
        WORK.mkdir(exist_ok=True)
        path = WORK / f"outputs-{self.workload}-seed{self.seed}-{kind}.json"
        path.write_text(json.dumps(self.outputs, indent=1, sort_keys=True) + "\n")
        return path

    def render(self) -> str:
        lines = [f"== perfbench {self.workload} (seed {self.seed}) =="]
        width = max([len(n) for n in self.table] + [10])
        lines.append(f"{'metric':<{width}}  {'value':>14}  {'unit':<12} {'n':>6}")
        for name, m in self.table.items():
            lines.append(f"{name:<{width}}  {m.value:>14.6g}  {m.unit:<12} {m.samples:>6}")
        for key, value in self.notes.items():
            lines.append(f"# {key}: {value}")
        combined = sha256(json.dumps(self.outputs, sort_keys=True).encode())
        lines.append(f"# outputs: {len(self.outputs)} sha256-recorded, combined {combined[:16]}")
        lines.append(f"# checks: {self.attempted} attempted, {self.failed} failed")
        for failure in self.failures:
            lines.append(f"# FAILED: {failure}")
        return "\n".join(lines)

    def result_line(self) -> str:
        return json.dumps(
            {
                "correct": self.failed == 0,
                "attempted": max(1, self.attempted),
                "failed": self.failed,
                "metrics": {
                    name: {"value": m.value, "unit": m.unit}
                    for name, m in self.metrics.items()
                },
            }
        )
