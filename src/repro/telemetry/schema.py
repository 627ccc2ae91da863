"""The JSONL event schema and its validator.

Every line of a ``--telemetry-out`` file is one JSON object with a
``type`` of ``"span"``, ``"metric"`` or ``"manifest"``:

* ``span`` — ``{"type", "name", "id", "parent", "start_s",
  "duration_s", "attrs"}``: one finished traced region. ``parent`` is
  another span's ``id`` or ``null`` for roots; ``start_s`` is monotonic
  seconds relative to the tracer epoch.
* ``metric`` — ``{"type", "kind", "name", ...}`` where ``kind`` is
  ``"counter"``/``"gauge"`` (plus ``"value"``) or ``"histogram"`` (plus
  ``"count"``, ``"sum"``, ``"min"``, ``"max"``; min/max are ``null``
  when nothing was observed). Histograms may additionally carry
  ``"buckets"``: sparse ``[upper_bound, count]`` pairs in strictly
  ascending bound order (the overflow slot last, with a ``null``
  bound), whose counts sum to ``count``. The field is optional so
  pre-bucket schema-v1 files stay valid.
* ``manifest`` — the run manifest (see
  :mod:`repro.telemetry.manifest`): ``{"type", "schema", "version",
  "command", "args", "grid_digest", "cache", "phases"}`` plus the
  optional ``"version_source"`` (``"git"`` when ``git describe``
  answered, ``"unknown"`` for the explicit fallback).

Violations raise :class:`SchemaError` (a ``ValueError``): file-level
validation stamps the 1-based ``lineno`` of the offending JSONL line,
and both levels carry the offending ``key`` when one is identifiable —
so a failure deep in a long event log points at the exact line and
field instead of being a needle in a haystack.

The validator is dependency-free on purpose: the same
:func:`validate_event`/:func:`validate_file` pair is used by
``tests/test_telemetry.py`` and by the CI smoke job that replays a
``repro.spot.plan --telemetry-out`` run, so the schema documented here
is the schema actually enforced.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, Optional, Union

SCHEMA_VERSION = 1

EVENT_TYPES = ("span", "metric", "manifest")
METRIC_KINDS = ("counter", "gauge", "histogram")

_MANIFEST_KEYS = ("schema", "version", "command", "args", "grid_digest", "cache", "phases")


class SchemaError(ValueError):
    """A schema violation, pointing at the offense: ``lineno`` is the
    1-based JSONL line (``None`` for a bare :func:`validate_event`
    call) and ``key`` the offending event key when one is
    identifiable (``None`` for structural failures such as a
    non-object line or an unknown event type)."""

    def __init__(self, message: str, lineno=None, key=None) -> None:
        super().__init__(message)
        self.lineno = lineno
        self.key = key


def _fail(message: str, key: Optional[str] = None) -> None:
    raise SchemaError(f"invalid telemetry event: {message}", key=key)


def _require(event: Dict, key: str, types, allow_none: bool = False):
    if key not in event:
        _fail(f"missing key {key!r} in {sorted(event)}", key=key)
    value = event[key]
    if value is None:
        if not allow_none:
            _fail(f"key {key!r} must not be null", key=key)
        return None
    if not isinstance(value, types):
        _fail(f"key {key!r} has type {type(value).__name__}, expected {types}", key=key)
    # bool is an int subclass; reject it where a number is expected.
    if isinstance(value, bool) and bool not in (types if isinstance(types, tuple) else (types,)):
        _fail(f"key {key!r} is a bool, expected {types}", key=key)
    return value


def _finite(event: Dict, key: str, allow_none: bool = False) -> None:
    value = _require(event, key, (int, float), allow_none=allow_none)
    if value is not None and not math.isfinite(value):
        _fail(f"key {key!r} must be finite, got {value}", key=key)


def validate_event(event: object) -> str:
    """Check one decoded JSONL event against the schema; returns the
    event type or raises ``ValueError`` with the first violation."""
    if not isinstance(event, dict):
        _fail(f"event must be an object, got {type(event).__name__}")
    kind = _require(event, "type", str)
    if kind == "span":
        _require(event, "name", str)
        span_id = _require(event, "id", int)
        if span_id < 1:
            _fail(f"span id must be >= 1, got {span_id}", key="id")
        _require(event, "parent", int, allow_none=True)
        _finite(event, "start_s")
        _finite(event, "duration_s")
        if event["duration_s"] < 0:
            _fail(f"span duration must be >= 0, got {event['duration_s']}",
                  key="duration_s")
        _require(event, "attrs", dict)
    elif kind == "metric":
        _require(event, "name", str)
        metric_kind = _require(event, "kind", str)
        if metric_kind not in METRIC_KINDS:
            _fail(f"metric kind {metric_kind!r} not in {METRIC_KINDS}", key="kind")
        if metric_kind == "histogram":
            count = _require(event, "count", int)
            if count < 0:
                _fail(f"histogram count must be >= 0, got {count}", key="count")
            _finite(event, "sum")
            _finite(event, "min", allow_none=True)
            _finite(event, "max", allow_none=True)
            if count == 0 and (event["min"] is not None or event["max"] is not None):
                _fail("empty histogram must have null min/max", key="min")
            if count > 0 and (event["min"] is None or event["max"] is None):
                _fail("non-empty histogram must carry min/max", key="min")
            if event.get("buckets") is not None:
                _validate_buckets(event["buckets"], count)
        else:
            _finite(event, "value")
    elif kind == "manifest":
        for key in _MANIFEST_KEYS:
            if key not in event:
                _fail(f"manifest missing key {key!r}", key=key)
        if event["schema"] != SCHEMA_VERSION:
            _fail(f"manifest schema {event['schema']!r} != {SCHEMA_VERSION}",
                  key="schema")
        _require(event, "version", str)
        _require(event, "command", str)
        if "version_source" in event:
            _require(event, "version_source", str)
        _require(event, "args", dict)
        _require(event, "grid_digest", str, allow_none=True)
        cache = _require(event, "cache", dict)
        for counter in ("hits", "misses", "simulations"):
            if not isinstance(cache.get(counter), int):
                _fail(f"manifest cache block missing integer {counter!r}",
                      key="cache")
        phases = _require(event, "phases", dict)
        for name, seconds in phases.items():
            if not isinstance(seconds, (int, float)) or isinstance(seconds, bool):
                _fail(f"phase {name!r} wall-clock must be a number", key="phases")
    else:
        _fail(f"unknown event type {kind!r} (expected one of {EVENT_TYPES})")
    return kind


def _validate_buckets(buckets: object, count: int) -> None:
    """The optional histogram ``buckets`` field: sparse ``[upper,
    count]`` pairs, bounds strictly ascending with the ``null``-bounded
    overflow slot last, per-bucket counts positive and summing to the
    histogram's ``count``."""
    if not isinstance(buckets, list):
        _fail(f"buckets must be a list, got {type(buckets).__name__}",
              key="buckets")
    total = 0
    previous: Optional[float] = None
    for index, pair in enumerate(buckets):
        if not isinstance(pair, list) or len(pair) != 2:
            _fail(f"bucket {index} must be an [upper_bound, count] pair",
                  key="buckets")
        bound, bucket_count = pair
        if bound is not None:
            if not isinstance(bound, (int, float)) or isinstance(bound, bool) \
                    or not math.isfinite(bound):
                _fail(f"bucket {index} bound must be finite or null", key="buckets")
            if index != 0 and (previous is None or bound <= previous):
                _fail(f"bucket bounds must be strictly ascending at index {index}",
                      key="buckets")
            previous = float(bound)
        elif index != len(buckets) - 1:
            _fail("only the final (overflow) bucket may have a null bound",
                  key="buckets")
        if not isinstance(bucket_count, int) or isinstance(bucket_count, bool) \
                or bucket_count < 1:
            _fail(f"bucket {index} count must be a positive integer", key="buckets")
        total += bucket_count
    if total != count:
        _fail(f"bucket counts sum to {total}, expected histogram count {count}",
              key="buckets")


def validate_file(path: Union[str, Path]) -> Dict[str, int]:
    """Validate every line of a ``--telemetry-out`` JSONL file. Returns
    per-type event counts; raises :class:`SchemaError` on the first
    malformed line, carrying the 1-based ``lineno`` and — when one is
    identifiable — the offending ``key`` of the first bad event."""
    counts = {kind: 0 for kind in EVENT_TYPES}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                raise SchemaError(f"line {lineno}: blank line", lineno=lineno)
            try:
                event = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"line {lineno}: not JSON ({exc})",
                                  lineno=lineno) from None
            try:
                counts[validate_event(event)] += 1
            except SchemaError as exc:
                raise SchemaError(f"line {lineno}: {exc}", lineno=lineno,
                                  key=exc.key) from None
    return counts
