"""Live pricing with a TTL cache and stale-while-revalidate.

The planners price candidates from a :class:`~repro.cloud.pricing.PriceCatalog`
— historically the static :data:`~repro.cloud.pricing.DEFAULT_CATALOG`
(the paper's Table IV rates). A long-lived server wants *current*
quotes, but must never let a flaky feed take planning down. So:

* the catalog is fetched from a pluggable **feed** (a JSON file path or
  an ``http(s)://`` URL speaking :meth:`PriceCatalog.to_payload`'s
  layout) and cached locally for ``ttl_seconds``;
* within the TTL every request is served from memory — zero feed I/O on
  the hot path;
* past the TTL the *current* catalog keeps serving immediately (marked
  stale) while one background thread revalidates — the
  stale-while-revalidate pattern, so a request never blocks on the feed
  after first touch;
* a dead or malformed feed counts a failure, records the error for
  ``/stats``, and leaves the last good catalog (or the built-in
  fallback, when the feed never answered at all) serving — plans degrade
  to stale prices, never to errors.

Without a feed the catalog is the static fallback and is never stale:
the pre-service behavior, byte for byte.

This module reads the wall clock (injectable for tests) — ``repro.service``
is on the linter's ``no-wall-clock`` allowlist for exactly this.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.request
from typing import Callable, Dict, Optional, Tuple

from ..cloud.pricing import DEFAULT_CATALOG, PriceCatalog

#: How long a fetched catalog serves before it is considered stale.
DEFAULT_TTL_SECONDS = 300.0

#: Socket timeout for URL feeds — a hung feed must not pin the
#: background refresh thread forever.
FEED_TIMEOUT_SECONDS = 10.0


def fetch_feed(feed: str) -> object:
    """The default feed reader: JSON over ``http(s)://`` or from a local
    file path. Raises on any transport or decode problem — the caller
    (:meth:`PricingCatalog.refresh`) turns that into a recorded failure."""
    feed = str(feed)
    if feed.startswith(("http://", "https://")):
        with urllib.request.urlopen(feed, timeout=FEED_TIMEOUT_SECONDS) as response:
            return json.loads(response.read().decode("utf-8"))
    with open(feed, "r", encoding="utf-8") as handle:
        return json.load(handle)


class PricingCatalog:
    """A TTL-cached, stale-while-revalidate view of a pricing feed.

    ``get()`` returns ``(catalog, stale)``; ``stale`` is True whenever
    the served prices are not a within-TTL feed snapshot (feed down,
    past TTL, or never fetched successfully). ``clock`` and ``fetch``
    are injectable so tests drive TTL expiry and feed failure
    deterministically; the clock only needs to be monotonic.
    """

    def __init__(
        self,
        feed: Optional[str] = None,
        ttl_seconds: float = DEFAULT_TTL_SECONDS,
        fallback: PriceCatalog = DEFAULT_CATALOG,
        clock: Callable[[], float] = time.monotonic,
        fetch: Callable[[str], object] = fetch_feed,
    ) -> None:
        if not ttl_seconds > 0:  # NaN fails every comparison: reject it too
            raise ValueError(f"ttl_seconds must be positive, got {ttl_seconds}")
        self._feed = str(feed) if feed is not None else None
        self._ttl = float(ttl_seconds)
        self._fallback = fallback
        self._clock = clock
        self._fetch = fetch
        self._lock = threading.Lock()
        self._catalog: Optional[PriceCatalog] = None  # last served feed/fallback
        self._fetched_at: Optional[float] = None  # clock() of last success
        self._refreshes = 0
        self._failures = 0
        self._last_error: Optional[str] = None
        self._refreshing = False  # single-flight guard (cold + background)
        self._refresh_thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    def get(self) -> Tuple[PriceCatalog, bool]:
        """``(catalog, stale)`` — the catalog to plan with right now.

        Feed-less catalogs return the fallback, never stale. Otherwise:
        a within-TTL snapshot serves fresh; an expired one serves
        immediately as stale while one background refresh runs; a cold
        catalog (first touch) blocks on one synchronous fetch so a
        healthy feed is never shadowed by the fallback.
        """
        if self._feed is None:
            return self._fallback, False
        with self._lock:
            catalog = self._catalog
            if catalog is not None and self._fresh_locked():
                return catalog, False
            cold = catalog is None
            claim = not self._refreshing
            if claim:
                self._refreshing = True
        if claim and cold:
            # First touch: fetch synchronously. Success serves fresh;
            # failure pins the fallback and serves it stale.
            try:
                self.refresh()
            finally:
                with self._lock:
                    self._refreshing = False
            with self._lock:
                catalog = self._catalog if self._catalog is not None else self._fallback
                return catalog, not self._fresh_locked()
        if claim:
            thread = threading.Thread(
                target=self._background_refresh, name="pricing-refresh", daemon=True
            )
            with self._lock:
                self._refresh_thread = thread
            thread.start()
        # Serve the snapshot taken *before* the revalidate kicked off — the
        # stale response must not race the background thread's adoption.
        return (catalog if catalog is not None else self._fallback), True

    def refresh(self) -> bool:
        """Fetch and adopt the feed *now* (synchronously). Returns True
        on success. Failure (transport, decode, payload validation)
        records the error and leaves the current catalog serving."""
        if self._feed is None:
            return True
        try:
            payload = self._fetch(self._feed)
            catalog = PriceCatalog.from_payload(payload)
        except Exception as exc:  # any feed problem degrades, never raises
            with self._lock:
                self._failures += 1
                self._last_error = f"{type(exc).__name__}: {exc}"
            return False
        with self._lock:
            self._catalog = catalog
            self._fetched_at = self._clock()
            self._refreshes += 1
            self._last_error = None
        return True

    def join_refresh(self, timeout: Optional[float] = None) -> None:
        """Wait for an in-flight background refresh (tests: make the
        revalidate half of stale-while-revalidate deterministic)."""
        with self._lock:
            thread = self._refresh_thread
        if thread is not None:
            thread.join(timeout)

    # ------------------------------------------------------------------
    def _fresh_locked(self) -> bool:
        """Caller holds ``_lock``: is the current snapshot within TTL?"""
        return (
            self._fetched_at is not None
            and (self._clock() - self._fetched_at) <= self._ttl
        )

    def _background_refresh(self) -> None:
        try:
            self.refresh()
        finally:
            with self._lock:
                self._refreshing = False

    # ------------------------------------------------------------------
    def status(self) -> Dict[str, object]:
        """The ``/stats`` pricing block: where prices come from and how
        trustworthy they are right now."""
        with self._lock:
            live = self._feed is not None
            age = (
                None
                if self._fetched_at is None
                else max(0.0, self._clock() - self._fetched_at)
            )
            catalog = self._catalog if self._catalog is not None else self._fallback
            stale = live and not self._fresh_locked()
            return {
                "source": self._feed if live else "builtin",
                "ttl_seconds": self._ttl if live else None,
                "age_seconds": age,
                "stale": stale,
                "refreshes": self._refreshes,
                "failures": self._failures,
                "last_error": self._last_error,
                "digest": catalog.digest(),
            }
