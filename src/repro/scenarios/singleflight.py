"""Single-flight: collapse concurrent duplicate work.

:class:`SingleFlight` is the repo's one single-flight primitive, and it
has two users. :class:`~repro.scenarios.cache.SimulationCache` routes
every miss through its own instance, keyed ``(namespace, key)``, so
concurrent misses on one trace or one derived result run one
computation. The planning service coalesces identical concurrent plan
*requests* with another, so N of them cost one plan computation.

The leader runs the function; every concurrent duplicate receives the
leader's exact return value, or re-raises the leader's exception object
with the leader's traceback, so each raise adds only its own frames.
Results are *not* kept beyond the in-flight window: a caller wanting
memoization keeps its own result table and consults it before entering
the flight, as the cache does.
"""

from __future__ import annotations

import threading
from types import TracebackType
from typing import Callable, Dict, Hashable, Optional, Tuple, TypeVar

T = TypeVar("T")


class _Call:
    """One in-flight computation: completion event plus its outcome."""

    __slots__ = ("event", "value", "error", "traceback")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.value: Optional[object] = None
        self.error: Optional[BaseException] = None
        self.traceback: Optional[TracebackType] = None


class SingleFlight:
    """Duplicate-call suppression with result sharing.

    ``do(key, fn)`` runs ``fn`` at most once per key at a time: the
    first caller (the leader) computes, concurrent callers with the
    same key block and receive the leader's result — the identical
    object, so a service handing out serialized bytes hands every
    coalesced caller byte-identical payloads. A leader exception
    propagates to every waiter (they asked the same question; they get
    the same answer). Each waiter raises it with the traceback it had
    in the leader, not the shared ``__traceback__``, onto which every
    earlier raise has already added its frames. Once the leader
    finishes, the key is forgotten: this is coalescing, not caching.
    """

    def __init__(self) -> None:
        self._calls: Dict[Hashable, _Call] = {}
        self._lock = threading.Lock()
        self._leaders = 0
        self._shared = 0

    def do(self, key: Hashable, fn: Callable[[], T]) -> Tuple[T, bool]:
        """``(result, shared)`` — ``shared`` is False for the leader
        that actually ran ``fn``, True for callers that received the
        leader's result."""
        with self._lock:
            call = self._calls.get(key)
            if call is not None:
                leader = False
                self._shared += 1
            else:
                call = _Call()
                self._calls[key] = call
                leader = True
                self._leaders += 1
        if not leader:
            call.event.wait()
            if call.error is not None:
                raise call.error.with_traceback(call.traceback)
            return call.value, True  # type: ignore[return-value]
        try:
            value = fn()
        except BaseException as exc:
            call.error, call.traceback = exc, exc.__traceback__
            raise
        else:
            call.value = value
            return value, False
        finally:
            with self._lock:
                self._calls.pop(key, None)
            call.event.set()

    def stats(self) -> Dict[str, int]:
        """Lifetime counters: ``leaders`` (computations actually run),
        ``shared`` (calls that rode along), ``inflight`` (now)."""
        with self._lock:
            return {
                "leaders": self._leaders,
                "shared": self._shared,
                "inflight": len(self._calls),
            }
