"""Structured spans: where a plan spends its time, as a tree.

A :class:`Span` is one named, timed region of work (monotonic start,
duration, free-form attributes) linked to the span that was open when it
started. A :class:`Tracer` hands them out through a context-manager API::

    with tracer.span("planner.sweep", cells=len(grid)) as sp:
        points = runner.run(grid)
        sp.attributes["points"] = len(points)

and records every finished span in *start order*, which — because phase
spans are only opened on the coordinating thread — makes the span tree a
deterministic function of the work performed, not of scheduling. Worker
threads may open spans too (the tracer is fully locked); spans started
on a thread with no open span become roots.

Tracing defaults to **off**: the process-global default tracer (mirroring
:func:`repro.scenarios.default_cache`) starts disabled, and a disabled
tracer's :meth:`Tracer.span` returns a shared no-op context, so
instrumented hot paths cost one attribute check when nobody is watching.
The CLIs enable it under ``--telemetry``/``--telemetry-out``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


@dataclass
class Span:
    """One finished (or still-open) traced region."""

    name: str
    span_id: int
    parent_id: Optional[int]
    start_seconds: float  # relative to the tracer's epoch (monotonic)
    duration_seconds: Optional[float] = None  # None while still open
    attributes: Dict[str, object] = field(default_factory=dict)

    @property
    def finished(self) -> bool:
        return self.duration_seconds is not None

    def to_event(self) -> Dict[str, object]:
        """The span as a JSONL event (see :mod:`repro.telemetry.schema`)."""
        return {
            "type": "span",
            "name": self.name,
            "id": self.span_id,
            "parent": self.parent_id,
            "start_s": self.start_seconds,
            "duration_s": self.duration_seconds,
            "attrs": dict(self.attributes),
        }


class _NullSpan:
    """The shared no-op context a disabled tracer hands out. Attribute
    writes land in a throwaway dict so call sites need no branching."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    @property
    def attributes(self) -> Dict[str, object]:
        return {}


_NULL_SPAN = _NullSpan()


class _SpanContext:
    """Context manager binding one live span to its tracer."""

    __slots__ = ("_tracer", "_span", "_t0")

    def __init__(self, tracer: "Tracer", span: Span, t0: float) -> None:
        self._tracer = tracer
        self._span = span
        self._t0 = t0

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self._span.attributes.setdefault("error", exc_type.__name__)
        self._tracer._finish(self._span, time.perf_counter() - self._t0)
        return False


class Tracer:
    """Produces nested spans and keeps every finished one, in start order."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._spans: List[Span] = []
        self._next_id = 1
        self._epoch = time.perf_counter()
        self._local = threading.local()

    # ------------------------------------------------------------------
    def configure(self, enabled: bool) -> "Tracer":
        """Flip tracing on/off (the CLIs' ``--telemetry`` hook)."""
        self.enabled = enabled
        return self

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def span(self, name: str, **attributes):
        """Open a span named ``name``; keyword arguments seed its
        attributes. Returns a context manager yielding the :class:`Span`
        (or a shared no-op when the tracer is disabled)."""
        if not self.enabled:
            return _NULL_SPAN
        t0 = time.perf_counter()
        stack = self._stack()
        parent_id = stack[-1].span_id if stack else None
        with self._lock:
            span = Span(
                name=name,
                span_id=self._next_id,
                parent_id=parent_id,
                start_seconds=t0 - self._epoch,
                attributes=dict(attributes),
            )
            self._next_id += 1
            self._spans.append(span)
        stack.append(span)
        return _SpanContext(self, span, t0)

    def _finish(self, span: Span, duration: float) -> None:
        span.duration_seconds = duration
        stack = self._stack()
        # The span being closed is normally the stack top; tolerate
        # mis-nested exits by popping down to (and including) it.
        while stack:
            if stack.pop() is span:
                break

    # ------------------------------------------------------------------
    def spans(self) -> List[Span]:
        """All recorded spans, in start order."""
        with self._lock:
            return list(self._spans)

    def export(self) -> List[Dict[str, object]]:
        """Finished spans as plain event dicts, in start order."""
        return [s.to_event() for s in self.spans() if s.finished]

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def _children(self) -> Dict[Optional[int], List[Span]]:
        table: Dict[Optional[int], List[Span]] = {}
        for span in self.spans():
            table.setdefault(span.parent_id, []).append(span)
        return table

    def tree_shape(self) -> Tuple:
        """The span tree with every timing stripped: nested
        ``(name, (children...))`` tuples in start order. Two runs doing
        the same work produce equal shapes — the determinism contract
        the tests pin down."""
        children = self._children()

        def shape(span: Span) -> Tuple:
            return (span.name, tuple(shape(c) for c in children.get(span.span_id, [])))

        return tuple(shape(root) for root in children.get(None, []))

    def phase_seconds(self) -> Dict[str, float]:
        """Wall-clock per span name (summed over occurrences) — the
        manifest's per-phase accounting."""
        phases: Dict[str, float] = {}
        for span in self.spans():
            if span.finished:
                phases[span.name] = phases.get(span.name, 0.0) + span.duration_seconds
        return phases

    def render_tree(self) -> str:
        """Human-readable phase tree (the ``--telemetry`` summary)."""
        children = self._children()
        lines: List[str] = []

        def fmt(span: Span, depth: int) -> None:
            duration = (
                f"{span.duration_seconds * 1000:.1f} ms"
                if span.finished
                else "(open)"
            )
            attrs = "".join(
                f" {key}={value}" for key, value in sorted(span.attributes.items())
            )
            lines.append(f"{'  ' * depth}{span.name:<{max(1, 28 - 2 * depth)}} {duration:>10}{attrs}")
            for child in children.get(span.span_id, []):
                fmt(child, depth + 1)

        for root in children.get(None, []):
            fmt(root, 0)
        return "\n".join(lines) if lines else "(no spans recorded)"

    def reset(self) -> None:
        """Drop every recorded span (the enabled flag is untouched)."""
        with self._lock:
            self._spans.clear()
            self._next_id = 1
            self._epoch = time.perf_counter()
        self._local = threading.local()

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


# ---------------------------------------------------------------------------
# Process-global default tracer (mirrors scenarios.default_cache)
# ---------------------------------------------------------------------------

_default_tracer = Tracer(enabled=False)


def default_tracer() -> Tracer:
    """The process-wide tracer used when a consumer is not handed one.
    Starts disabled; the CLIs enable it under ``--telemetry``."""
    return _default_tracer


def reset_default_tracer(enabled: bool = False) -> Tracer:
    """Replace the global tracer with a fresh one (tests/benchmarks)."""
    global _default_tracer
    _default_tracer = Tracer(enabled=enabled)
    return _default_tracer


def resolve_tracer(tracer: Optional[Tracer]) -> Tracer:
    """The given tracer, or the process-global default when ``None`` —
    the resolution rule every instrumented layer funnels through."""
    return tracer if tracer is not None else _default_tracer
