"""Run manifests: a traced CLI run as a reproducible artifact.

A manifest records everything needed to say *what produced these
numbers*: the repo version (``git describe``, falling back to the commit
hash, falling back to the explicit ``"unknown"`` outside a checkout —
with a ``version_source`` field saying which of ``git``/``unknown``
answered), the resolved
CLI arguments, a digest of the scenario grid that was swept, the cache's
counters (exactly :meth:`SimulationCache.stats`, so a
manifest can be cross-checked against the engine's own accounting), and
per-phase wall-clock from the span tree. Benchmark trajectories like
``BENCH_spot_planner.json`` become auditable once each run carries one.
"""

from __future__ import annotations

import hashlib
import subprocess
from pathlib import Path
from typing import Dict, Iterable, Optional, Tuple

from .schema import SCHEMA_VERSION
from .tracer import Tracer

_REPO_ROOT = Path(__file__).resolve().parents[3]
_version_cache: Optional[Tuple[str, str]] = None

VERSION_FALLBACK = "unknown"


def version_info() -> Tuple[str, str]:
    """``(version, source)`` for the repo this module was imported
    from, cached per process. ``source`` is ``"git"`` when ``git
    describe --always --dirty`` answered, else ``"unknown"`` with the
    explicit :data:`VERSION_FALLBACK` version — the fallback is a
    first-class value, never a silent one, because manifests must never
    fail a run (no git binary, no checkout, timeouts all land here)."""
    global _version_cache
    if _version_cache is None:
        try:
            described = subprocess.run(
                ["git", "describe", "--always", "--dirty"],
                cwd=_REPO_ROOT,
                capture_output=True,
                text=True,
                timeout=10,
                check=True,
            ).stdout.strip()
            _version_cache = (
                (described, "git") if described else (VERSION_FALLBACK, "unknown")
            )
        except Exception:
            _version_cache = (VERSION_FALLBACK, "unknown")
    return _version_cache


def repo_version() -> str:
    """The version half of :func:`version_info` (back-compat spelling)."""
    return version_info()[0]


def grid_digest(scenarios: Iterable) -> Optional[str]:
    """A sha256 over the swept scenarios' individual digests, in grid
    order — one stable identity for "what exactly was swept". ``None``
    for an empty grid (nothing was swept, nothing to fingerprint)."""
    hasher = hashlib.sha256()
    empty = True
    for scenario in scenarios:
        hasher.update(scenario.digest().encode("ascii"))
        empty = False
    return None if empty else hasher.hexdigest()


def _json_arg(value):
    """CLI argument values as JSON-safe scalars (argparse namespaces hold
    only scalars, lists and None; tuples arrive from defaults)."""
    if isinstance(value, (list, tuple)):
        return [_json_arg(item) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def build_manifest(
    command: str,
    args: Dict[str, object],
    tracer: Tracer,
    cache_stats,
    grid: Optional[str] = None,
) -> Dict[str, object]:
    """The manifest event for one CLI run.

    ``cache_stats`` is a :class:`~repro.scenarios.cache.CacheStats`
    snapshot — its counters are copied field-for-field, so the
    manifest's cache block matches ``SimulationCache.stats()`` exactly.
    ``grid`` is a precomputed :func:`grid_digest` (or ``None`` for runs
    without a single sweep grid, e.g. the experiment report).
    """
    version, version_source = version_info()
    return {
        "type": "manifest",
        "schema": SCHEMA_VERSION,
        "version": version,
        "version_source": version_source,
        "command": command,
        "args": {key: _json_arg(value) for key, value in sorted(args.items())},
        "grid_digest": grid,
        "cache": {
            "hits": cache_stats.hits,
            "misses": cache_stats.misses,
            "simulations": cache_stats.simulations,
            "risk_hits": cache_stats.risk_hits,
            "risk_misses": cache_stats.risk_misses,
            "evictions": cache_stats.evictions,
            "entries": cache_stats.entries,
        },
        "phases": tracer.phase_seconds(),
    }
