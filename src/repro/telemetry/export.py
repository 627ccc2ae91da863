"""Exporters: JSONL event logs, ``--json`` telemetry blocks, phase trees.

Three consumers, one event vocabulary (:mod:`repro.telemetry.schema`):

* :func:`write_events` — the ``--telemetry-out events.jsonl`` writer:
  every finished span, every metric, then the run manifest, one JSON
  object per line;
* :func:`telemetry_block` — the structure embedded under a
  ``"telemetry"`` key in the CLIs' ``--json`` payloads (flag-gated, so
  default payloads stay byte-identical);
* the tracer's own ``render_tree`` — the human-readable summary printed
  under ``--telemetry`` (to stderr, so piped ``--json`` stays clean).
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Union

from .tracer import Tracer


def metric_events(snapshot: Dict[str, Dict[str, object]]) -> List[Dict[str, object]]:
    """Registry snapshot entries as schema ``metric`` events."""
    events = []
    for name, data in snapshot.items():
        event: Dict[str, object] = {"type": "metric", "name": name, "kind": data["type"]}
        if data["type"] == "histogram":
            event.update(
                count=data["count"], sum=data["sum"], min=data["min"], max=data["max"]
            )
            buckets = data.get("buckets")
            if buckets is not None:
                event["buckets"] = [list(pair) for pair in buckets]
        else:
            event["value"] = data["value"]
        events.append(event)
    return events


def telemetry_block(
    tracer: Tracer,
    metrics_snapshot: Dict[str, Dict[str, object]],
    manifest: Dict[str, object],
) -> Dict[str, object]:
    """The ``--json`` payload's ``"telemetry"`` value: manifest first
    (the summary a reader wants), then metrics, then the span tree as a
    flat start-ordered event list (parents precede children)."""
    return {
        "manifest": manifest,
        "metrics": metrics_snapshot,
        "spans": tracer.export(),
    }


def write_events(
    path: Union[str, Path],
    tracer: Tracer,
    metrics_snapshot: Dict[str, Dict[str, object]],
    manifest: Optional[Dict[str, object]] = None,
) -> int:
    """Write the run's events as JSONL: spans in start order, then
    metrics in name order, then the manifest. Returns the line count.
    ``allow_nan=False`` keeps every line strict JSON — the schema (and
    any downstream consumer) rejects bare ``NaN``/``Infinity`` tokens.

    The write is atomic (temp file + ``os.replace``, the ``RunStore``
    idiom): a crash mid-export — or a
    non-serializable event raising partway through — never leaves a
    truncated JSONL at ``path``, and never clobbers a previous complete
    export with a partial one."""
    events: List[Dict[str, object]] = list(tracer.export())
    events.extend(metric_events(metrics_snapshot))
    if manifest is not None:
        events.append(manifest)
    path = Path(path)
    if path.parent and not path.parent.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
    fd, temp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}-", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            for event in events:
                handle.write(json.dumps(event, allow_nan=False, sort_keys=True))
                handle.write("\n")
        os.replace(temp_name, path)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise
    return len(events)
