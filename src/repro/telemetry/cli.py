"""The CLIs' shared telemetry wiring.

Every traced CLI (``repro.experiments.report``, ``repro.cluster.plan``,
``repro.spot.plan``) speaks the same three flags:

* ``--telemetry`` — enable tracing and print the human-readable phase
  tree (to stderr, so ``--json`` stdout stays machine-parseable);
* ``--telemetry-out FILE`` — enable tracing and additionally write the
  JSONL event log (spans, metrics, manifest) to ``FILE``;
* ``--run-store DIR`` — enable tracing and ingest the run's events into
  the append-only run store at ``DIR`` (the flag beats
  ``$REPRO_RUN_STORE`` beats off), so
  ``python -m repro.telemetry.analyze``/``compare`` can consume it.

Any of these also unlocks the ``"telemetry"`` block in the CLI's
``--json`` payload; with all of them absent (and ``$REPRO_RUN_STORE``
unset) the CLIs' output is byte-identical to the pre-telemetry
contract — the golden-file tests pin that down.

Usage in a CLI ``main``::

    add_telemetry_arguments(parser)
    ...
    tracer = begin_telemetry(args)          # None when disabled
    ... run the plan ...
    block = finish_telemetry(args, "repro.spot.plan", cache,
                             grid=lambda: planner.last_sweep.grid_digest)
    if block is not None and args.as_json:
        payload["telemetry"] = block
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, Optional, Union

from .tracer import Tracer, default_tracer

if TYPE_CHECKING:
    from .runstore import RunStore

StorePath = Union[str, Path]

#: The environment variable that names a run store when ``--run-store``
#: does not.
ENV_RUN_STORE = "REPRO_RUN_STORE"


def add_telemetry_arguments(parser: argparse.ArgumentParser) -> None:
    """The observability knobs every traced CLI exposes."""
    parser.add_argument("--telemetry", action="store_true",
                        help="trace the run and print a per-phase wall-clock "
                             "tree to stderr (--json output gains a 'telemetry' "
                             "block; without telemetry flags output is "
                             "byte-identical to untraced runs)")
    parser.add_argument("--telemetry-out", default=None, metavar="FILE",
                        help="also write the run's span/metric/manifest events "
                             "as JSONL to FILE (implies tracing)")
    parser.add_argument("--run-store", default=None, metavar="DIR",
                        help="ingest the run's telemetry into the append-only "
                             "run store at DIR for repro.telemetry.analyze/"
                             "compare (implies tracing; default: "
                             "$REPRO_RUN_STORE if set, else no recording)")


def _run_store_root(run_store: Optional[StorePath]) -> Optional[StorePath]:
    return run_store if run_store else os.environ.get(ENV_RUN_STORE) or None


def resolve_run_store(run_store: Optional[StorePath] = None) -> Optional[RunStore]:
    """The store for an explicit ``--run-store`` value, else for
    ``$REPRO_RUN_STORE``, else ``None`` (no run recording). The run
    store module loads only when a store is named."""
    root = _run_store_root(run_store)
    if root is None:
        return None
    from .runstore import RunStore

    return RunStore(root)


def telemetry_enabled(args: argparse.Namespace) -> bool:
    return bool(
        getattr(args, "telemetry", False)
        or getattr(args, "telemetry_out", None)
        or _run_store_root(getattr(args, "run_store", None))
    )


def begin_telemetry(args: argparse.Namespace) -> Optional[Tracer]:
    """Enable the process-global tracer when a telemetry flag asked for
    it; returns the tracer, or ``None`` when the run is untraced."""
    if not telemetry_enabled(args):
        return None
    return default_tracer().configure(enabled=True)


def finish_telemetry(
    args: argparse.Namespace,
    command: str,
    cache,
    grid: Optional[Callable[[], Optional[str]]] = None,
    stream=None,
) -> Optional[Dict[str, object]]:
    """Close out a traced run: build the manifest from the cache's own
    accounting, write the JSONL log (``--telemetry-out``), ingest the
    run into the run store (``--run-store`` / ``$REPRO_RUN_STORE``,
    stamped with the wall-clock at finish), print the phase tree
    (``--telemetry``), and return the ``--json`` telemetry block — or
    ``None`` when telemetry was never enabled.

    ``cache`` is the run's :class:`SimulationCache`; its ``stats()`` are
    the manifest's cache block (exactly), and its registry supplies the
    metrics.
    ``grid`` returns the swept grid's digest (``None`` for runs without
    a single grid); it is only called here, after the enabled check, so
    untraced runs never pay for the digest.
    """
    if not telemetry_enabled(args):
        return None
    from .export import metric_events, telemetry_block, write_events
    from .manifest import build_manifest

    tracer = default_tracer()
    grid = grid() if grid is not None else None
    metrics_snapshot = cache.metrics.snapshot()
    manifest = build_manifest(
        command,
        vars(args),
        tracer,
        cache.stats(),
        grid=grid,
    )
    if getattr(args, "telemetry_out", None):
        write_events(args.telemetry_out, tracer, metrics_snapshot, manifest)
    run_store = resolve_run_store(getattr(args, "run_store", None))
    if run_store is not None:
        events = list(tracer.export())
        events.extend(metric_events(metrics_snapshot))
        events.append(manifest)
        run_store.ingest_events(events, timestamp=time.time())
    if getattr(args, "telemetry", False):
        out = stream if stream is not None else sys.stderr
        print(f"== telemetry: {command} ({manifest['version']}) ==", file=out)
        print(tracer.render_tree(), file=out)
    return telemetry_block(tracer, metrics_snapshot, manifest)
