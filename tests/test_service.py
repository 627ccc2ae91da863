"""Tests for the planning service: single-flight coalescing, the LRU
cache bound, the TTL/stale-while-revalidate pricing catalog, request
normalization, and the HTTP surface."""

import contextlib
import http.client
import io
import json
import os
import socket
import subprocess
import sys
import threading
import time
import traceback
import urllib.error
import urllib.request
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.cloud.pricing import DEFAULT_CATALOG, GPUPrice, PriceCatalog
from repro.cluster.planner import ClusterPlanner
from repro.cluster.plan import main as cluster_plan_main
from repro.scenarios import (
    Scenario,
    SimulationCache,
    SingleFlight,
    default_cache,
)
from repro.serialization import dumps
from repro.service import PlanningService, PricingCatalog as LivePricing, RequestError
from repro.service.app import (
    REQUEST_TYPES,
    normalize_cluster_request,
    normalize_spot_request,
    request_digest,
)
from repro.service.serve import main as serve_main, make_server
from repro.service.serve import MAX_BODY_BYTES
from repro.spot.plan import main as spot_plan_main
from repro.spot.planner import RiskAdjustedPlanner
from repro.telemetry import validate_file
from repro.telemetry.runstore import RunStore

MIXTRAL_A40 = {"model": "mixtral", "gpu": ["a40"], "deadline_hours": 24}


def scenario(batch_size=1, dense=False):
    return Scenario(
        model="mixtral-8x7b", gpu="A40", batch_size=batch_size,
        seq_len=64, dense=dense,
    )


# ---------------------------------------------------------------------------
# Single-flight
# ---------------------------------------------------------------------------

class TestSingleFlight:
    def test_sequential_calls_each_lead(self):
        flight = SingleFlight()
        assert flight.do("k", lambda: 1) == (1, False)
        assert flight.do("k", lambda: 2) == (2, False)  # coalescing, not caching
        assert flight.stats() == {"leaders": 2, "shared": 0, "inflight": 0}

    def test_concurrent_duplicates_share_one_computation(self):
        flight = SingleFlight()
        calls = []

        def slow():
            calls.append(1)
            time.sleep(0.2)
            return object()

        barrier = threading.Barrier(8)
        results = [None] * 8

        def worker(i):
            barrier.wait()
            results[i] = flight.do("k", slow)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
        assert len(calls) == 1
        values = {id(value) for value, _shared in results}
        assert len(values) == 1  # the identical object, not a copy
        assert sum(shared for _v, shared in results) == 7
        assert flight.stats() == {"leaders": 1, "shared": 7, "inflight": 0}

    def test_leader_exception_propagates_to_followers(self):
        flight = SingleFlight()
        entered = threading.Event()
        release = threading.Event()

        def boom():
            entered.set()
            assert release.wait(10)
            raise RuntimeError("leader failed")

        errors = []

        def leader():
            try:
                flight.do("k", boom)
            except RuntimeError as exc:
                errors.append(str(exc))

        def follower():
            assert entered.wait(10)
            try:
                flight.do("k", lambda: "never")
            except RuntimeError as exc:
                errors.append(str(exc))

        threads = [threading.Thread(target=leader), threading.Thread(target=follower)]
        threads[0].start()
        assert entered.wait(10)
        threads[1].start()
        deadline = time.time() + 10
        while flight.stats()["shared"] < 1:
            assert time.time() < deadline
            time.sleep(0.005)
        release.set()
        for t in threads:
            t.join(10)
        assert errors == ["leader failed", "leader failed"]
        assert flight.stats()["inflight"] == 0  # failed keys retry fresh
        assert flight.do("k", lambda: "ok") == ("ok", False)

    def test_waiters_share_the_exception_but_not_each_others_frames(self):
        """Eight racing callers get the leader's exception object; each
        raise starts from the leader's traceback, so the shared
        ``__traceback__`` holds one caller's frames, not all of theirs."""
        flight = SingleFlight()
        release = threading.Event()
        barrier = threading.Barrier(8)
        caught = [None] * 8

        def boom():
            assert release.wait(10)
            raise RuntimeError("leader failed")

        def worker(i):
            barrier.wait()
            try:
                flight.do("k", boom)
            except RuntimeError as exc:
                caught[i] = (exc, len(traceback.extract_tb(exc.__traceback__)))

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        deadline = time.time() + 10
        while flight.stats()["shared"] < 7:
            assert time.time() < deadline
            time.sleep(0.005)
        release.set()
        for t in threads:
            t.join(10)
        assert len({id(exc) for exc, _depth in caught}) == 1  # the same object
        # worker -> do -> boom in the leader, and a waiter adds its own
        # worker -> do: 5 frames, 7 if a thread switch mid-raise lends it
        # another waiter's two. Re-raising the shared __traceback__ grew
        # it by two frames per waiter, to 17 here.
        assert max(depth for _exc, depth in caught) <= 7


# ---------------------------------------------------------------------------
# LRU bound on the simulation cache
# ---------------------------------------------------------------------------

class TestCacheLRU:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            SimulationCache(capacity=0)

    def test_unbounded_cache_never_evicts(self):
        cache = SimulationCache()
        for batch in (1, 2, 3):
            cache.simulate(scenario(batch))
        stats = cache.stats()
        assert stats.entries == 3 and stats.evictions == 0
        assert cache.capacity is None

    def test_bounded_cache_evicts_lru_and_counts(self):
        cache = SimulationCache(capacity=2)
        for batch in (1, 2, 3):
            cache.simulate(scenario(batch))
        stats = cache.stats()
        assert stats.entries == 2
        assert stats.evictions == 1
        assert scenario(1) not in cache  # oldest evicted
        assert scenario(2) in cache and scenario(3) in cache

    def test_hit_refreshes_recency(self):
        cache = SimulationCache(capacity=2)
        cache.simulate(scenario(1))
        cache.simulate(scenario(2))
        cache.simulate(scenario(1))  # touch: batch 1 is now most recent
        cache.simulate(scenario(3))  # evicts batch 2, not batch 1
        assert scenario(1) in cache and scenario(2) not in cache

    def test_evicted_trace_resimulates(self):
        cache = SimulationCache(capacity=1)
        first = cache.simulate(scenario(1))
        cache.simulate(scenario(2))  # evicts batch 1
        assert cache.stats().evictions == 1
        again = cache.simulate(scenario(1))  # a miss: simulated afresh
        stats = cache.stats()
        assert (stats.simulations, stats.misses, stats.evictions) == (3, 3, 2)
        assert again.total_seconds == first.total_seconds

    def test_derived_results_bounded_too(self):
        cache = SimulationCache(capacity=2)
        for key in ("a", "b", "c"):
            cache.memoize(("derived", key), lambda: key)
        evictions = cache.stats().evictions
        assert evictions >= 1
        # An evicted derived result recomputes (counts a fresh miss).
        misses = cache.stats().misses
        cache.memoize(("derived", "a"), lambda: "a")
        assert cache.stats().misses == misses + 1

    def test_cachestats_evictions_defaults_for_old_constructions(self):
        from repro.scenarios import CacheStats
        stats = CacheStats(hits=1, misses=1, entries=1)
        assert stats.evictions == 0

    def test_derived_entries_count_memoized_results_not_traces(self):
        cache = SimulationCache()
        cache.simulate(scenario(1))
        for key in ("a", "b"):
            cache.memoize(("derived", key), lambda: key)
        stats = cache.stats()
        assert (stats.entries, stats.derived_entries) == (1, 2)

    def test_distinct_requests_show_in_stats_derived_entries(self):
        """Requests that differ only in their deadline share every trace
        but each memoizes its own plan: /stats must show the memo."""
        service = PlanningService()
        service.plan("cluster", dict(MIXTRAL_A40))
        before = service.stats_payload()["cache"]
        deadlines = (12, 48, 96)
        for hours in deadlines:
            service.plan("cluster", dict(MIXTRAL_A40, deadline_hours=hours))
        after = service.stats_payload()["cache"]
        assert after["derived_entries"] >= before["derived_entries"] + len(deadlines)
        assert after["entries"] == before["entries"] > 0
        assert after["simulations"] == before["simulations"]


# ---------------------------------------------------------------------------
# Pricing: payload interchange + TTL catalog
# ---------------------------------------------------------------------------

class TestPricingPayload:
    def test_roundtrip_preserves_both_tiers(self):
        rebuilt = PriceCatalog.from_payload(DEFAULT_CATALOG.to_payload())
        assert rebuilt.to_payload() == DEFAULT_CATALOG.to_payload()
        assert rebuilt.digest() == DEFAULT_CATALOG.digest()
        assert rebuilt.spot_dollars_per_hour("A40") == DEFAULT_CATALOG.spot_dollars_per_hour("A40")

    def test_digest_distinguishes_price_changes(self):
        catalog = PriceCatalog([GPUPrice("A40", "cudo", 0.79)])
        bumped = PriceCatalog([GPUPrice("A40", "cudo", 0.99)])
        assert catalog.digest() != bumped.digest()

    @pytest.mark.parametrize("payload", [
        None,
        [],
        {"version": 999, "prices": []},
        {"version": 1, "prices": {"not": "a list"}},
        {"version": 1, "prices": [{"gpu": "A40"}]},  # missing fields
        {"version": 1, "prices": [{"gpu": "A40", "provider": "x", "dollars_per_hour": -1}]},
        # spot above on-demand violates the discount-tier invariant
        {"version": 1,
         "prices": [{"gpu": "A40", "provider": "x", "dollars_per_hour": 1.0}],
         "spot_prices": [{"gpu": "A40", "provider": "x", "dollars_per_hour": 2.0}]},
    ])
    def test_malformed_payloads_raise(self, payload):
        with pytest.raises(ValueError):
            PriceCatalog.from_payload(payload)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(
        st.sampled_from(("add", "add_spot")),
        st.sampled_from(("A40", "A100-80GB", "H200")),
        st.sampled_from(("cudo", "lambda", "acme")),
        st.sampled_from((0.2, 0.79, 1.5, 4.0)),
    ), max_size=12))
    def test_cached_digest_equals_a_fresh_recomputation(self, operations):
        catalog = PriceCatalog.from_payload(DEFAULT_CATALOG.to_payload())
        for method, gpu, provider, price in operations:
            assert catalog.digest() is catalog.digest()  # computed once
            try:
                getattr(catalog, method)(GPUPrice(gpu, provider, price))
            except ValueError:
                pass  # a refused listing leaves the catalog unchanged
            fresh = PriceCatalog.from_payload(catalog.to_payload())
            assert catalog.digest() == fresh.digest()


class FakeFeed:
    """A scriptable feed: push payloads/exceptions, count fetches."""

    def __init__(self):
        self.payload = DEFAULT_CATALOG.to_payload()
        self.error = None
        self.fetches = 0

    def __call__(self, feed):
        self.fetches += 1
        if self.error is not None:
            raise self.error
        return self.payload


class FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now


class TestPricingCatalogTTL:
    def _catalog(self, ttl=60.0):
        feed, clock = FakeFeed(), FakeClock()
        return LivePricing(feed="fake://feed", ttl_seconds=ttl,
                           clock=clock, fetch=feed), feed, clock

    def test_feedless_catalog_is_never_stale(self):
        live = LivePricing()
        catalog, stale = live.get()
        assert catalog is DEFAULT_CATALOG and not stale
        assert live.status()["source"] == "builtin"
        assert live.status()["stale"] is False

    def test_ttl_must_be_positive(self):
        with pytest.raises(ValueError):
            LivePricing(feed="x", ttl_seconds=0)

    def test_nan_ttl_is_rejected(self):
        """NaN passed a ``<= 0`` check and made every get() stale, so each
        request started another feed fetch."""
        with pytest.raises(ValueError, match="ttl_seconds"):
            LivePricing(feed="x", ttl_seconds=float("nan"))
        live = LivePricing(feed="fake://feed", ttl_seconds=float("inf"),
                           clock=FakeClock(), fetch=FakeFeed())
        assert live.get()[1] is False

    def test_serve_cli_rejects_nan_ttl(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            serve_main(["--pricing-ttl", "nan"])
        assert excinfo.value.code == 2
        assert "ttl_seconds must be positive" in capsys.readouterr().err

    def test_first_touch_fetches_synchronously(self):
        live, feed, _clock = self._catalog()
        catalog, stale = live.get()
        assert not stale and feed.fetches == 1
        assert catalog.digest() == DEFAULT_CATALOG.digest()

    def test_within_ttl_serves_from_memory(self):
        live, feed, clock = self._catalog(ttl=60)
        live.get()
        clock.now += 59
        _, stale = live.get()
        assert not stale and feed.fetches == 1  # zero feed I/O on the hot path

    def test_past_ttl_serves_stale_while_revalidating(self):
        live, feed, clock = self._catalog(ttl=60)
        live.get()
        feed.payload = PriceCatalog([GPUPrice("A40", "cudo", 0.99)]).to_payload()
        clock.now += 61
        catalog, stale = live.get()
        assert stale  # served immediately, old prices
        assert catalog.dollars_per_hour("A40") == 0.79
        live.join_refresh(10)
        catalog, stale = live.get()
        assert not stale
        assert catalog.dollars_per_hour("A40") == 0.99
        assert live.status()["refreshes"] == 2

    def test_dead_feed_on_first_touch_serves_fallback_stale(self):
        live, feed, _clock = self._catalog()
        feed.error = OSError("connection refused")
        catalog, stale = live.get()
        assert stale and catalog is DEFAULT_CATALOG
        status = live.status()
        assert status["failures"] == 1
        assert "connection refused" in status["last_error"]

    def test_feed_dying_later_keeps_last_good_catalog(self):
        live, feed, clock = self._catalog(ttl=60)
        live.get()
        feed.error = OSError("feed down")
        clock.now += 61
        catalog, stale = live.get()
        assert stale
        assert catalog.digest() == DEFAULT_CATALOG.digest()  # last good snapshot
        live.join_refresh(10)
        _, still_stale = live.get()
        assert still_stale  # refresh failed; stays stale until the feed heals
        assert live.status()["failures"] >= 1
        feed.error = None
        live.join_refresh(10)
        assert live.refresh()
        _, stale = live.get()
        assert not stale


# ---------------------------------------------------------------------------
# Request normalization
# ---------------------------------------------------------------------------

class TestNormalization:
    def test_defaults_mirror_the_cli(self):
        request = normalize_cluster_request({"model": "mixtral"})
        assert request["model"] == "mixtral-8x7b"
        assert request["dataset"] == "math14k"
        assert request["num_gpus"] == [1, 2, 4, 8]
        assert request["density"] == "both"
        assert request["parallelism"] == "dp"
        assert request["grad_accum"] == [1]
        assert request["epochs"] == 10
        assert request["gpu"] is None and request["provider"] is None

    def test_scalars_and_lists_normalize_identically(self):
        a = normalize_cluster_request({"model": "mixtral", "gpu": "a40"})
        b = normalize_cluster_request({"model": "mixtral", "gpu": ["A40"]})
        assert a == b
        assert a["gpu"] == ["A40"]

    def test_digest_is_spelling_independent(self):
        digest = DEFAULT_CATALOG.digest()
        a = request_digest("cluster", normalize_cluster_request(
            {"model": "mixtral", "gpu": "a40"}), digest)
        b = request_digest("cluster", normalize_cluster_request(
            {"gpu": ["A40"], "model": "MIXTRAL"}), digest)
        assert a == b

    def test_digest_splits_on_catalog_change(self):
        request = normalize_cluster_request({"model": "mixtral"})
        bumped = PriceCatalog([GPUPrice("A40", "cudo", 0.99)])
        assert request_digest("cluster", request, DEFAULT_CATALOG.digest()) != \
            request_digest("cluster", request, bumped.digest())

    @pytest.mark.parametrize("body,fragment", [
        ({}, "model"),
        ({"model": 7}, "model"),
        ({"model": "nope"}, "unknown model"),
        ({"model": "mixtral", "bogus": 1}, "unknown cluster request field"),
        ({"model": "mixtral", "gpu": []}, "empty list"),
        ({"model": "mixtral", "gpu": "z9000"}, "unknown GPU"),
        ({"model": "mixtral", "num_gpus": [0]}, "positive"),
        ({"model": "mixtral", "num_gpus": [True]}, "numbers"),
        ({"model": "mixtral", "density": "extra"}, "density"),
        ({"model": "mixtral", "epochs": 0}, "epochs"),
        ({"model": "mixtral", "deadline_hours": -1}, "positive"),
        ({"model": "mixtral", "parallelism": "tp", "max_tp": 1}, "max_tp"),
        ({"model": "mixtral", "interconnect": "carrier-pigeon"}, "interconnect"),
    ])
    def test_malformed_cluster_bodies_are_400s(self, body, fragment):
        with pytest.raises(RequestError) as excinfo:
            normalize_cluster_request(body)
        assert excinfo.value.status == 400
        assert fragment in str(excinfo.value)

    @pytest.mark.parametrize("body,fragment", [
        ({"model": "mixtral", "confidence": 1.5}, "confidence"),
        ({"model": "mixtral", "risk_mode": "psychic"}, "risk_mode"),
        ({"model": "mixtral", "trials": 0}, "trials"),
        ({"model": "mixtral", "seed": "x"}, "seed"),
        ({"model": "mixtral", "spot": "maybe"}, "spot"),
        ({"model": "mixtral", "mtbp_hours": 0}, "positive"),
    ])
    def test_malformed_spot_bodies_are_400s(self, body, fragment):
        with pytest.raises(RequestError) as excinfo:
            normalize_spot_request(body)
        assert fragment in str(excinfo.value)

    @pytest.mark.parametrize("field", ["num_gpus", "batch_size", "grad_accum"])
    @pytest.mark.parametrize("value", [float("inf"), float("nan"), 2.5, [4, 2.0]],
                             ids=["inf", "nan", "2.5", "integral-float"])
    def test_integer_list_fields_reject_non_integers(self, field, value):
        """Integer list entries follow _int_field's rule: a float (even an
        integral one) is a 400 naming the field — never a silent
        truncation, and never an OverflowError/ValueError from int()."""
        with pytest.raises(RequestError) as excinfo:
            normalize_cluster_request({"model": "mixtral", field: value})
        assert excinfo.value.status == 400
        assert repr(field) in str(excinfo.value)

    def test_spot_defaults(self):
        request = normalize_spot_request({"model": "mixtral"})
        assert request["spot"] == "both"
        assert request["risk_mode"] == "analytic"
        assert request["confidence"] == 0.95
        assert request["seed"] == 20240724


class TestDuplicatesAndDatasets:
    @pytest.mark.parametrize("kind,field,single,duplicated", [
        ("cluster", "gpu", "a40", ["a40", "A40"]),
        ("cluster", "provider", "cudo", ["cudo", "cudo"]),
        ("cluster", "batch_size", 1, [1, 1]),
        ("cluster", "interconnect", "nvlink", ["nvlink", "nvlink"]),
        ("cluster", "grad_accum", [1, 4], [1, 4, 1]),
        ("spot", "checkpoint_minutes", 30, [30, 30.0]),
    ])
    def test_duplicate_entries_are_the_single_spelling(self, kind, field, single, duplicated):
        """Entries are deduped after resolution: a repeated (or
        re-spelled) entry gives the single spelling's echo, digest and
        plan, not a doubled candidate list or a split coalescing key."""
        service = PlanningService()
        base = {"model": "mixtral", "gpu": "a40", "num_gpus": 1}
        one = json.loads(service.plan(kind, dict(base, **{field: single})))
        two = json.loads(service.plan(kind, dict(base, **{field: duplicated})))
        assert two["request"] == one["request"]
        assert two["request_digest"] == one["request_digest"]
        assert two["plan"] == one["plan"]

    def test_unknown_dataset_is_a_400_listing_the_choices(self):
        service = PlanningService()
        body = {"model": "mixtral", "gpu": "a40", "num_gpus": 1, "dataset": "nosuch"}
        with pytest.raises(RequestError) as excinfo:
            service.plan("cluster", body)
        assert excinfo.value.status == 400
        message = str(excinfo.value)
        assert "'dataset'" in message and "math14k" in message and "openorca" in message


# ---------------------------------------------------------------------------
# CLI/service parity: one request, many spellings, one plan
# ---------------------------------------------------------------------------

MODEL_SPELLINGS = {
    "mixtral-8x7b": ("mixtral", "Mixtral", "MIXTRAL", "mixtral-8x7b"),
    "blackmamba-2.8b": ("blackmamba", "BlackMamba", "blackmamba-2.8b"),
}
GPU_SPELLINGS = {"A40": ("a40", "A40"), "H100-80GB": ("h100", "H100-80GB", "h100-80gb")}

# Scalar fields: (flag, values a request may set, the default a spelling
# may state explicitly — None when the default is "unset").
PARITY_SCALARS = {
    "dataset": ("--dataset", ("math14k", "commonsense15k"), "math14k"),
    "density": ("--density", ("sparse", "dense", "both"), "both"),
    "epochs": ("--epochs", (3, 10), 10),
    "deadline_hours": ("--deadline-hours", (24.0, 48.5), None),
    "budget_dollars": ("--budget", (150.0, 400.0), None),
}
PARITY_SPOT_SCALARS = {
    "spot": ("--spot", ("both", "only", "off"), "both"),
    "confidence": ("--confidence", (0.9, 0.95), 0.95),
    "mtbp_hours": ("--mtbp-hours", (4.0, 12.0), None),
}

# Single-field mutations each surface must reject, naming the field:
# (field, flag, body value, argv value, kinds).
INVALID = (
    ("dataset", "--dataset", "nosuch", "nosuch", ("cluster", "spot")),
    ("deadline_hours", "--deadline-hours", float("nan"), "nan", ("cluster", "spot")),
    ("epochs", "--epochs", 0, "0", ("cluster", "spot")),
    ("epochs", "--epochs", -3, "-3", ("cluster", "spot")),
    ("num_queries", "--num-queries", 0, "0", ("cluster", "spot")),
    ("budget_dollars", "--budget", 0, "0", ("cluster", "spot")),
    ("batch_size", "--batch-size", 0, "0", ("cluster", "spot")),
    ("batch_size", "--batch-size", -4, "-4", ("cluster", "spot")),
    ("seq_len", "--seq-len", -5, "-5", ("cluster", "spot")),
    ("num_gpus", "--num-gpus", [0, 2], "0,2", ("cluster", "spot")),
    ("confidence", "--confidence", 1.5, "1.5", ("spot",)),
    ("mtbp_hours", "--mtbp-hours", 0, "0", ("spot",)),
    ("checkpoint_minutes", "--checkpoint-minutes", [30, 0], "30,0", ("spot",)),
)


def _number(value) -> str:
    """A number as a user types it: ``24`` not ``24.0``."""
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


@st.composite
def spelled_requests(draw):
    """One small plan request (A40/H100, at most 2 GPUs), spelled once
    as a service body and once as CLI argv, each way drawn at random:
    aliases and case, scalar or one-element list, a re-spelled duplicate
    entry, comma list or repeated flag, explicit or omitted defaults."""
    kind = draw(st.sampled_from(("cluster", "spot")))
    model = draw(st.sampled_from(sorted(MODEL_SPELLINGS)))
    body = {"model": draw(st.sampled_from(MODEL_SPELLINGS[model]))}
    argv = ["--model", draw(st.sampled_from(MODEL_SPELLINGS[model]))]

    gpus = draw(st.lists(st.sampled_from(sorted(GPU_SPELLINGS)), min_size=1, max_size=2, unique=True))
    spelled = [draw(st.sampled_from(GPU_SPELLINGS[gpu])) for gpu in gpus]
    if draw(st.booleans()):
        spelled.append(draw(st.sampled_from(GPU_SPELLINGS[gpus[0]])))
    body["gpu"] = spelled[0] if len(spelled) == 1 and draw(st.booleans()) else spelled
    for gpu in gpus:
        argv += ["--gpu", draw(st.sampled_from(GPU_SPELLINGS[gpu]))]

    lists = {"num_gpus": ("--num-gpus", (1, 2))}
    if kind == "spot":
        lists["checkpoint_minutes"] = ("--checkpoint-minutes", (30.0, 60.0))
    for name, (flag, pool) in lists.items():
        if name != "num_gpus" and draw(st.booleans()):
            continue  # leave the field at its default
        values = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=2, unique=True))
        body[name] = values[0] if len(values) == 1 and draw(st.booleans()) else values
        text = [_number(v) for v in values]
        if draw(st.booleans()):
            argv += [flag, ",".join(text)]
        else:
            for part in text:
                argv += [flag, part]

    scalars = dict(PARITY_SCALARS, **(PARITY_SPOT_SCALARS if kind == "spot" else {}))
    for name, (flag, pool, default) in scalars.items():
        value = draw(st.sampled_from((None,) + pool))
        if value is None:
            if default is not None and draw(st.booleans()):
                body[name] = default
            if default is not None and draw(st.booleans()):
                argv += [flag, _number(default)]
            continue
        integral = isinstance(value, float) and value.is_integer()
        body[name] = int(value) if integral and draw(st.booleans()) else value
        argv += [flag, _number(value)]
    return kind, body, argv


def _cli(kind, argv):
    """(exit code, stdout, stderr) of one plan CLI run in process."""
    main = spot_plan_main if kind == "spot" else cluster_plan_main
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def parity_service():
    """A service on the CLIs' default cache, so each request simulates
    once for both surfaces."""
    return PlanningService(cache=default_cache())


class TestCLIServiceParity:
    @settings(max_examples=25, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(spelled_requests())
    def test_cli_json_is_the_service_plan_byte_for_byte(self, parity_service, request):
        kind, body, argv = request
        response = json.loads(parity_service.plan(kind, body))
        code, out, err = _cli(kind, argv + ["--json"])
        assert code == 0, err
        assert out == dumps(response["plan"], indent=2) + "\n"

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(spelled_requests(), st.sampled_from(INVALID))
    def test_single_field_mutation_is_rejected_naming_the_field(
        self, parity_service, request, mutation
    ):
        kind, body, argv = request
        name, flag, bad, text, kinds = mutation
        assume(kind in kinds)
        with pytest.raises(RequestError) as excinfo:
            parity_service.plan(kind, dict(body, **{name: bad}))
        assert excinfo.value.status == 400
        assert repr(name) in str(excinfo.value)
        code, out, err = _cli(kind, argv + [flag, text])
        assert code == 2 and not out
        assert flag in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# The service
# ---------------------------------------------------------------------------

class TestServiceWarmPath:
    def test_warm_repeat_simulates_nothing(self):
        service = PlanningService()
        cold = json.loads(service.plan("cluster", dict(MIXTRAL_A40)))
        assert cold["engine"]["simulations"] > 0
        warm = json.loads(service.plan("cluster", dict(MIXTRAL_A40)))
        assert warm["engine"]["simulations"] == 0
        assert warm["engine"]["misses"] == 0
        assert warm["engine"]["hits"] > 0
        assert warm["plan"] == cold["plan"]

    def test_warm_spot_repeat_recomputes_no_risk(self):
        service = PlanningService()
        body = {"model": "mixtral", "gpu": ["a40"], "deadline_hours": 24}
        cold = json.loads(service.plan("spot", body))
        assert cold["engine"]["risk_misses"] > 0
        warm = json.loads(service.plan("spot", body))
        assert warm["engine"]["simulations"] == 0
        assert warm["engine"]["risk_misses"] == 0
        # Served by the plan memo: the repeat never reaches the risk layer.
        assert warm["engine"]["risk_hits"] == 0
        assert warm["engine"]["hits"] == 1 and warm["engine"]["misses"] == 0
        assert warm["plan"] == cold["plan"]

    def test_unknown_kind_is_404(self):
        with pytest.raises(RequestError) as excinfo:
            PlanningService().plan("quantum", {"model": "mixtral"})
        assert excinfo.value.status == 404

    def test_error_counter_tracks_rejections(self):
        service = PlanningService()
        with pytest.raises(RequestError):
            service.plan("cluster", {"model": "nope"})
        assert service.stats_payload()["requests"]["errors"] == 1

    def test_explicit_cache_excludes_store_and_capacity(self):
        with pytest.raises(ValueError):
            PlanningService(cache=SimulationCache(), capacity=4)


class TestServiceCoalescing:
    def test_concurrent_identical_requests_compute_once(self):
        service = PlanningService()
        n = 6
        release = threading.Event()
        compute = service._compute

        def gated(*args, **kwargs):
            assert release.wait(30)
            return compute(*args, **kwargs)

        service._compute = gated
        results = [None] * n

        def worker(i):
            results[i] = service.plan("cluster", dict(MIXTRAL_A40))

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(n)]
        for t in threads:
            t.start()
        # Release the leader only once every follower is parked on the
        # in-flight call, so the test is deterministic at any speed.
        deadline = time.time() + 30
        while service.flight.stats()["shared"] < n - 1:
            assert time.time() < deadline, service.flight.stats()
            time.sleep(0.005)
        release.set()
        for t in threads:
            t.join(30)
        assert service.flight.stats() == {"leaders": 1, "shared": n - 1, "inflight": 0}
        assert len(set(results)) == 1  # byte-identical responses
        engine = json.loads(results[0])["engine"]
        assert engine["simulations"] > 0  # exactly one cold computation
        stats = service.stats_payload()
        assert stats["requests"]["total"] == n
        assert stats["requests"]["coalesced"] == n - 1

    def test_distinct_requests_do_not_coalesce(self):
        service = PlanningService()
        sparse = service.plan("cluster", {"model": "mixtral", "gpu": ["a40"], "density": "sparse"})
        dense = service.plan("cluster", {"model": "mixtral", "gpu": ["a40"], "density": "dense"})
        assert sparse != dense
        assert service.flight.stats()["leaders"] == 2


class TestServiceLRU:
    def test_evicted_traces_resimulate_to_the_same_plan(self):
        service = PlanningService(capacity=1)
        sparse = {"model": "mixtral", "gpu": ["a40"], "density": "sparse"}
        first = json.loads(service.plan("cluster", sparse))
        assert first["engine"]["simulations"] > 0
        second = json.loads(service.plan(
            "cluster", {"model": "mixtral", "gpu": ["a40"], "density": "dense"}))
        assert second["engine"]["evictions"] > 0
        again = json.loads(service.plan("cluster", sparse))
        assert again["engine"]["simulations"] > 0  # evicted, so simulated again
        assert again["engine"]["evictions"] > 0
        assert dumps(again["plan"], indent=2) == dumps(first["plan"], indent=2)
        stats = service.stats_payload()["cache"]
        assert stats["capacity"] == 1 and stats["evictions"] > 0


def _without_engine(response: str) -> str:
    """A response's text minus its ``engine`` member, cut by position: the
    member sits between ``pricing_stale`` and ``plan`` at the top level,
    and no nested line starts with two spaces and a quote."""
    head, _, rest = response.partition('\n  "engine": ')
    _, _, tail = rest.partition('\n  "plan": ')
    assert head and tail, response[:200]
    return head + '\n  "plan": ' + tail


class TestPlanMemo:
    """A sequential repeat is served from the per-digest plan memo."""

    @settings(max_examples=20, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(spelled_requests())
    def test_memo_response_equals_a_fresh_computation(self, request):
        kind, body, _argv = request
        warm = PlanningService()
        cold = warm.plan(kind, body)
        served = warm.plan(kind, body)
        assert json.loads(served)["engine"]["hits"] == 1
        fresh = PlanningService().plan(kind, body)
        assert _without_engine(served) == _without_engine(fresh) == _without_engine(cold)
        # The spliced text is exactly what dumps(payload, indent=2) gives.
        assert served == dumps(json.loads(served), indent=2)

    def test_memo_hit_reports_current_pricing_staleness(self):
        feed, clock = FakeFeed(), FakeClock()
        pricing = LivePricing(feed="fake://feed", ttl_seconds=60, clock=clock, fetch=feed)
        service = PlanningService(pricing=pricing)
        first = service.plan("cluster", dict(MIXTRAL_A40))
        assert json.loads(first)["pricing_stale"] is False
        clock.now += 61  # same prices, now past the TTL
        stale = service.plan("cluster", dict(MIXTRAL_A40))
        pricing.join_refresh(10)
        fresh = service.plan("cluster", dict(MIXTRAL_A40))
        for text, expected in ((stale, True), (fresh, False)):
            response = json.loads(text)
            assert response["engine"]["hits"] == 1 and response["engine"]["misses"] == 0
            assert response["pricing_stale"] is expected
            assert response["pricing"]["stale"] is expected
        assert json.loads(stale)["plan"] == json.loads(first)["plan"]
        assert _without_engine(fresh) == _without_engine(first)

    def test_new_catalog_digest_plans_afresh(self):
        feed, clock = FakeFeed(), FakeClock()
        pricing = LivePricing(feed="fake://feed", ttl_seconds=60, clock=clock, fetch=feed)
        service = PlanningService(pricing=pricing)
        first = json.loads(service.plan("cluster", dict(MIXTRAL_A40)))
        payload = DEFAULT_CATALOG.to_payload()
        for entry in payload["prices"]:
            entry["dollars_per_hour"] *= 3
        feed.payload = payload
        clock.now += 61
        service.plan("cluster", dict(MIXTRAL_A40))  # stale serve + revalidate
        pricing.join_refresh(10)
        repriced = json.loads(service.plan("cluster", dict(MIXTRAL_A40)))
        assert repriced["pricing"]["digest"] != first["pricing"]["digest"]
        assert repriced["engine"]["misses"] > 0
        assert repriced["plan"] != first["plan"]
        again = json.loads(service.plan("cluster", dict(MIXTRAL_A40)))
        assert again["engine"]["hits"] == 1 and again["plan"] == repriced["plan"]

    def test_evicted_memo_entry_recomputes_to_the_same_bytes(self):
        service = PlanningService(capacity=1)
        sparse = {"model": "mixtral", "gpu": ["a40"], "density": "sparse"}
        first = service.plan("cluster", sparse)
        service.plan("cluster", {"model": "mixtral", "gpu": ["a40"], "density": "dense"})
        again = service.plan("cluster", sparse)
        engine = json.loads(again)["engine"]
        assert engine["misses"] > 0 and engine["evictions"] > 0
        assert _without_engine(again) == _without_engine(first)

    def test_concurrent_traffic_plans_each_digest_once(self):
        service = PlanningService()
        plans = []
        plan_entry = service._plan_entry

        def counted(request, catalog, tracer):
            plans.append(request)
            return plan_entry(request, catalog, tracer)

        service._plan_entry = counted
        bodies = [dict(MIXTRAL_A40, density=density) for density in ("sparse", "dense", "both")]
        responses = {i: [] for i in range(len(bodies))}
        errors = []

        def worker(offset):
            try:
                for step in range(12):
                    i = (offset + step) % len(bodies)
                    responses[i].append(_without_engine(service.plan("cluster", bodies[i])))
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(n,)) for n in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not any(thread.is_alive() for thread in threads)
        assert len(plans) == len(bodies)  # one planning run per digest
        assert all(len(set(texts)) == 1 and len(texts) == 24 for texts in responses.values())

    def test_traced_warm_repeat_is_one_memo_lookup(self):
        service = PlanningService(telemetry=True)
        cold = json.loads(service.plan("spot", dict(MIXTRAL_A40)))
        warm = json.loads(service.plan("spot", dict(MIXTRAL_A40)))

        def tree(response):
            spans = response["telemetry"]["spans"]
            names = {span["id"]: span["name"] for span in spans}
            return [(span["name"], names.get(span["parent"])) for span in spans]

        assert tree(warm) == [("service.request", None),
                              ("service.plan_memo", "service.request")]
        cold_tree = tree(cold)
        assert cold_tree[:2] == tree(warm)
        assert len(cold_tree) > 2  # the planner's phases, under the memo span
        assert [name for name, parent in cold_tree if parent == "service.request"] \
            == ["service.plan_memo"]
        grid = cold["telemetry"]["manifest"]["grid_digest"]
        assert grid is not None
        assert warm["telemetry"]["manifest"]["grid_digest"] == grid

    def test_untraced_entries_never_serve_a_traced_service(self):
        """An untraced service memoizes no grid digest; a traced service
        on the same cache must not read its entry."""
        cache = SimulationCache()
        plain = PlanningService(cache=cache).plan("cluster", dict(MIXTRAL_A40))
        traced = json.loads(PlanningService(cache=cache, telemetry=True)
                            .plan("cluster", dict(MIXTRAL_A40)))
        assert traced["engine"]["misses"] == 1 and traced["engine"]["simulations"] == 0
        assert traced["telemetry"]["manifest"]["grid_digest"] is not None
        del traced["telemetry"]
        assert _without_engine(dumps(traced, indent=2)) == _without_engine(plain)


# Fields that shape a sweep: (values to draw from, the default). A
# neighbor differs from its request in one of them, so it must never
# share the request's sweep.
SWEEP_FIELDS = {
    "provider": (("cudo", "runpod"), None),
    "epochs": ((3, 10), 10),
    "dataset": (("math14k", "commonsense15k"), "math14k"),
    "density": (("sparse", "dense", "both"), "both"),
    "num_queries": ((500, 2000), None),
    "seq_len": ((128, 256), None),
}
SPOT_SWEEP_FIELDS = {
    "spot": (("both", "only", "off"), "both"),
    "mtbp_hours": ((4.0, 12.0), None),
    "checkpoint_minutes": ((15.0, 90.0), None),
    "risk_mode": (("analytic", "both"), "analytic"),
    "trials": ((64, 128), 512),
    "seed": ((1, 2), 20240724),
}


@st.composite
def sibling_requests(draw):
    """A spelled request body, a sibling — the same request with another
    deadline, budget or confidence, so both share one sweep — and its
    neighbors, each differing from it in one field that shapes the sweep."""
    kind, body, _argv = draw(spelled_requests())
    targets = {"deadline_hours": (12.0, 36.0), "budget_dollars": (100.0, 250.0)}
    fields = dict(SWEEP_FIELDS)
    if kind == "spot":
        targets["confidence"] = (0.8, 0.99)
        fields.update(SPOT_SWEEP_FIELDS)
        if draw(st.booleans()):
            body["risk_mode"] = "both"  # so the Monte Carlo seed and trials count
    name = draw(st.sampled_from(sorted(targets)))
    sibling = dict(body, **{name: draw(st.sampled_from(targets[name]))})
    neighbors = []
    for name, (pool, default) in fields.items():
        other = [value for value in pool if value != body.get(name, default)]
        neighbors.append(dict(body, **{name: draw(st.sampled_from(other))}))
    return kind, body, sibling, neighbors


def _fresh_plan_text(kind, body) -> str:
    """The plan of ``body`` computed on a fresh cache, as the CLIs print it."""
    _planner, plan = REQUEST_TYPES[kind].from_body(body).run(cache=SimulationCache())
    return dumps(plan.to_payload(), indent=2)


@pytest.fixture(scope="module")
def sweep_service():
    """One warm service kept across examples."""
    return PlanningService()


class TestSweepMemo:
    """A re-plan that changes only the target reuses the memoized sweep."""

    @settings(max_examples=15, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(sibling_requests())
    def test_replan_of_a_memoized_sweep_is_a_fresh_plan(self, sweep_service, request):
        kind, body, sibling, neighbors = request
        for neighbor in neighbors:
            sweep_service.plan(kind, neighbor)
        sweep_service.plan(kind, sibling)
        response = json.loads(sweep_service.plan(kind, body))
        engine = response["engine"]
        # One hit: the sweep memo (or the plan memo, for a body an earlier
        # example already planned). Either way nothing is simulated and
        # the risk bundles are never read.
        assert engine["hits"] == 1
        assert engine["simulations"] == 0
        assert engine["risk_hits"] == 0 == engine["risk_misses"]
        assert dumps(response["plan"], indent=2) == _fresh_plan_text(kind, body)

    @pytest.mark.parametrize("kind", ["cluster", "spot"])
    def test_evicted_sweep_replans_to_the_same_bytes(self, kind):
        service = PlanningService(capacity=1)
        service.plan(kind, dict(MIXTRAL_A40))
        replan = dict(MIXTRAL_A40, deadline_hours=48)
        # Capacity 1 keeps only the last plan-memo entry, so the sweep it
        # was built from is gone and the re-plan sweeps again.
        response = json.loads(service.plan(kind, replan))
        assert response["engine"]["misses"] > 1 and response["engine"]["evictions"] > 0
        assert dumps(response["plan"], indent=2) == _fresh_plan_text(kind, replan)

    def test_sweep_outlives_its_evicted_risk_bundles(self):
        """Capacity 2 keeps the spot sweep and the plan-memo entry but
        drops every risk bundle: the sweep holds its own distributions."""
        service = PlanningService(capacity=2)
        service.plan("spot", dict(MIXTRAL_A40))
        replan = dict(MIXTRAL_A40, deadline_hours=48)
        response = json.loads(service.plan("spot", replan))
        engine = response["engine"]
        assert engine["hits"] == 1 and engine["misses"] == 1
        assert engine["risk_hits"] == 0 == engine["risk_misses"]
        assert dumps(response["plan"], indent=2) == _fresh_plan_text("spot", replan)

    def test_concurrent_replans_run_each_sweep_once(self, monkeypatch):
        sweeps = []
        for owner, name in ((ClusterPlanner, "_run_sweep"), (RiskAdjustedPlanner, "_price_tiers")):
            original = getattr(owner, name)

            def counted(planner, *args, _original=original, _name=name, **kwargs):
                sweeps.append(_name)
                return _original(planner, *args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        service = PlanningService()
        requests = [(kind, dict(MIXTRAL_A40, deadline_hours=hours))
                    for kind in ("cluster", "spot") for hours in (12, 24, 36, 48)]
        plans = {i: [] for i in range(len(requests))}
        errors = []

        def worker(offset):
            try:
                for step in range(len(requests)):
                    i = (offset + step) % len(requests)
                    plans[i].append(json.loads(service.plan(*requests[i]))["plan"])
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(n,)) for n in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not any(thread.is_alive() for thread in threads)
        # One cluster sweep, shared by the spot sweep, and one spot sweep.
        assert sorted(sweeps) == ["_price_tiers", "_run_sweep"]
        for i, (kind, body) in enumerate(requests):
            fresh = _fresh_plan_text(kind, body)
            assert len(plans[i]) == 6
            assert all(dumps(plan, indent=2) == fresh for plan in plans[i])

    def test_traced_replans_digest_each_cell_once(self, monkeypatch):
        request = REQUEST_TYPES["cluster"].from_body(dict(MIXTRAL_A40))
        planner, _plan = request.run(cache=SimulationCache())
        cells = len(planner.last_sweep.grid)
        calls = []
        digest = Scenario.digest

        def counted(scenario):
            calls.append(scenario)
            return digest(scenario)

        monkeypatch.setattr(Scenario, "digest", counted)
        service = PlanningService(telemetry=True)
        first = json.loads(service.plan("cluster", dict(MIXTRAL_A40)))
        second = json.loads(service.plan("cluster", dict(MIXTRAL_A40, deadline_hours=48)))
        assert second["engine"]["hits"] == 1 and second["engine"]["misses"] == 1
        assert len(calls) == cells > 0
        grid = first["telemetry"]["manifest"]["grid_digest"]
        assert grid is not None
        assert second["telemetry"]["manifest"]["grid_digest"] == grid


@pytest.fixture(scope="module")
def template_services():
    """One service per (traced, stale feed, capacity), built on first use
    and kept across examples, so later examples also see warm repeats."""
    services = {}

    def get(traced, stale, capacity):
        key = (traced, stale, capacity)
        if key not in services:
            pricing = None
            if stale:
                feed = FakeFeed()
                feed.error = OSError("feed unreachable")
                pricing = LivePricing(feed="fake://feed", clock=FakeClock(), fetch=feed)
            services[key] = PlanningService(
                capacity=capacity, pricing=pricing, telemetry=traced)
        return services[key]

    return get


class TestResponseTemplate:
    """Every response, cold or served from the memo's pre-rendered text,
    is exactly ``json.dumps(payload, indent=2)`` of what it parses to."""

    @staticmethod
    def assert_canonical(raw):
        assert raw == json.dumps(json.loads(raw), indent=2)

    @settings(max_examples=40, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(spelled_requests(), st.booleans(), st.booleans(), st.sampled_from((None, 1)))
    def test_every_response_is_indent2_json(self, template_services, request,
                                           traced, stale, capacity):
        kind, body, _argv = request
        service = template_services(traced, stale, capacity)
        for _ in range(2):  # the second one is a memo hit
            raw = service.plan(kind, dict(body))
            self.assert_canonical(raw)
            response = json.loads(raw)
            assert response["pricing_stale"] is stale is response["pricing"]["stale"]
            assert ("telemetry" in response) is traced
        assert response["engine"]["hits"] == 1

    @pytest.mark.parametrize("traced", [False, True])
    def test_multi_digit_engine_deltas_under_capacity_one(self, traced):
        service = PlanningService(capacity=1, telemetry=traced)
        body = {"model": "mixtral", "gpu": ["a40", "h100"], "num_gpus": [1, 2]}
        raw = service.plan("spot", body)
        self.assert_canonical(raw)
        engine = json.loads(raw)["engine"]
        assert engine["evictions"] >= 10 and engine["risk_misses"] >= 10
        self.assert_canonical(service.plan("spot", body))


class TestServiceStalePricing:
    def test_plans_served_from_stale_catalog_when_feed_is_down(self):
        feed = FakeFeed()
        feed.error = OSError("feed unreachable")
        pricing = LivePricing(feed="fake://feed", clock=FakeClock(), fetch=feed)
        service = PlanningService(pricing=pricing)
        response = json.loads(service.plan("cluster", dict(MIXTRAL_A40)))
        assert response["pricing_stale"] is True
        assert response["pricing"]["stale"] is True
        assert response["plan"]["frontier"]  # still a real plan
        stats = service.stats_payload()
        assert stats["pricing"]["stale"] is True
        assert stats["pricing"]["failures"] >= 1

    def test_price_refresh_splits_the_coalescing_key(self):
        feed, clock = FakeFeed(), FakeClock()
        pricing = LivePricing(feed="fake://feed", ttl_seconds=60,
                              clock=clock, fetch=feed)
        service = PlanningService(pricing=pricing)
        first = json.loads(service.plan("cluster", dict(MIXTRAL_A40)))
        payload = DEFAULT_CATALOG.to_payload()
        for entry in payload["prices"]:
            entry["dollars_per_hour"] *= 2
        for entry in payload["spot_prices"]:
            entry["dollars_per_hour"] *= 2
        feed.payload = payload
        clock.now += 61
        service.plan("cluster", dict(MIXTRAL_A40))  # stale serve + revalidate
        pricing.join_refresh(10)
        third = json.loads(service.plan("cluster", dict(MIXTRAL_A40)))
        assert third["pricing"]["digest"] != first["pricing"]["digest"]
        assert third["request_digest"] != first["request_digest"]
        # Doubled prices, same sweep: the frontier costs doubled too.
        cheapest_first = first["plan"]["cheapest"]["dollars"]
        cheapest_third = third["plan"]["cheapest"]["dollars"]
        assert cheapest_third == pytest.approx(2 * cheapest_first)


# ---------------------------------------------------------------------------
# HTTP surface
# ---------------------------------------------------------------------------

def test_serve_module_runs_once_under_dash_m():
    """``python -m repro.service.serve`` must not find the module already
    imported (runpy warns, then executes it a second time)."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src") + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "repro.service.serve", "--help"],
        capture_output=True, text=True, env=env, cwd=root, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert "RuntimeWarning" not in out.stderr


def test_make_server_stays_importable_from_the_package():
    import repro.service

    assert repro.service.make_server is make_server

@contextlib.contextmanager
def running(service):
    """``service`` behind a live server on an ephemeral port."""
    server = make_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()


@pytest.fixture
def served(tmp_path):
    """A live server on an ephemeral port with telemetry sinks wired."""
    events = tmp_path / "events.jsonl"
    service = PlanningService(
        telemetry_out=str(events),
        run_store=RunStore(tmp_path / "runs"),
    )
    with running(service) as server:
        host, port = server.server_address[:2]
        yield f"http://{host}:{port}", service, events, tmp_path / "runs"


def _get(url):
    with urllib.request.urlopen(url, timeout=30) as response:
        return response.status, json.loads(response.read())


def _post(url, body):
    request = urllib.request.Request(
        url, data=json.dumps(body).encode("utf-8"), method="POST",
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=120) as response:
        return response.status, json.loads(response.read())


class TestHTTP:
    def test_round_trip_with_telemetry(self, served):
        base, _service, events, runs = served
        assert _get(base + "/healthz") == (200, {"status": "ok"})

        status, body = _post(base + "/plan/cluster", MIXTRAL_A40)
        assert status == 200
        assert body["kind"] == "cluster"
        assert body["engine"]["simulations"] > 0
        assert "telemetry" in body

        status, warm = _post(base + "/plan/cluster", MIXTRAL_A40)
        assert warm["engine"]["simulations"] == 0
        assert warm["telemetry"]["manifest"]["cache"]["hits"] > 0

        status, stats = _get(base + "/stats")
        assert stats["requests"]["total"] == 2
        assert stats["cache"]["simulations"] > 0

        counts = validate_file(events)
        assert counts["manifest"] == 1 and counts["span"] >= 2
        assert len(RunStore(runs).records()) == 2

    def test_http_errors(self, served):
        base, service, _events, _runs = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(base + "/plan/cluster", {"model": "nope"})
        assert excinfo.value.code == 400
        assert "unknown model" in json.loads(excinfo.value.read())["error"]

        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(base + "/plan/teleport", {"model": "mixtral"})
        assert excinfo.value.code == 404

        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(base + "/nope")
        assert excinfo.value.code == 404

        request = urllib.request.Request(
            base + "/plan/cluster", data=b"not json", method="POST")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400

        request = urllib.request.Request(
            base + "/plan/cluster", data=b"[1, 2]", method="POST")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400
        assert service.stats_payload()["requests"]["errors"] == 1

    def test_non_integer_num_gpus_is_a_400_not_a_500(self, served):
        """``Infinity`` used to reach int() and come back as a 500
        "planning bug"; it is a malformed request naming its field."""
        base, service, _events, _runs = served
        for value in (float("inf"), 2.5):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(base + "/plan/cluster", {"model": "mixtral", "num_gpus": [value]})
            assert excinfo.value.code == 400
            assert "'num_gpus'" in json.loads(excinfo.value.read())["error"]
        assert service.stats_payload()["requests"]["errors"] == 2

    def test_accepted_sockets_disable_nagle(self):
        with running(PlanningService()) as server:
            handler = server.RequestHandlerClass  # per-server subclass
            nodelay = []
            original_setup = handler.setup

            def setup(self):
                original_setup(self)
                nodelay.append(self.connection.getsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY))

            handler.setup = setup
            conn = http.client.HTTPConnection(*server.server_address[:2], timeout=30)
            try:
                conn.request("GET", "/healthz")
                assert conn.getresponse().status == 200
            finally:
                conn.close()
        assert nodelay == [1]

    def test_keep_alive_connection_survives_every_reply(self):
        """One connection carries a cold plan, its warm repeat, a 400, a
        404 that carries a body, /healthz and /stats: each reply must
        leave the stream at the next request's first byte."""

        def exchange(method, path, body=None):
            data = None if body is None else json.dumps(body).encode("utf-8")
            conn.request(method, path, body=data)
            response = conn.getresponse()
            assert response.getheader("Content-Type") == "application/json"
            return response.status, json.loads(response.read())

        service = PlanningService()
        with running(service) as server:
            conn = http.client.HTTPConnection(*server.server_address[:2], timeout=120)
            try:
                status, cold = exchange("POST", "/plan/cluster", MIXTRAL_A40)
                assert status == 200 and cold["engine"]["simulations"] > 0
                sock = conn.sock

                status, warm = exchange("POST", "/plan/cluster", MIXTRAL_A40)
                assert status == 200 and warm["engine"]["simulations"] == 0
                del cold["engine"], warm["engine"]
                assert warm == cold

                status, body = exchange("POST", "/plan/cluster", {"model": "nope"})
                assert status == 400 and "unknown model" in body["error"]

                status, body = exchange("POST", "/plan/nope", MIXTRAL_A40)
                assert (status, body) == (404, {"error": "unknown path '/plan/nope'"})

                assert exchange("GET", "/healthz") == (200, {"status": "ok"})

                status, stats = exchange("GET", "/stats")
                assert status == 200
                assert stats["requests"]["total"] == 3
                assert stats["requests"]["errors"] == 1  # planning failures only
                assert conn.sock is sock  # never reconnected
            finally:
                conn.close()

    @pytest.mark.parametrize("declared", ["-2", "twelve"])
    def test_unframeable_body_gets_400_then_close(self, declared):
        with running(PlanningService()) as server:
            with socket.create_connection(server.server_address[:2], timeout=30) as sock:
                sock.sendall(
                    f"POST /plan/cluster HTTP/1.1\r\nHost: x\r\n"
                    f"Content-Length: {declared}\r\n\r\n"
                    "{}GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n".encode("ascii")
                )
                received = b""
                # Until the server closes; a reset still means closed.
                with contextlib.suppress(ConnectionResetError):
                    while chunk := sock.recv(65536):
                        received += chunk
        head, _, body = received.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"\r\nConnection: close" in head
        error = json.loads(body)["error"]
        assert "Content-Length" in error and repr(declared) in error

    @staticmethod
    def _raw_exchange(server, data, half_close=False):
        """Send ``data`` on a fresh socket and read until the server
        closes; returns (head, body)."""
        with socket.create_connection(server.server_address[:2], timeout=30) as sock:
            sock.sendall(data)
            if half_close:
                sock.shutdown(socket.SHUT_WR)
            received = b""
            # Until the server closes; a reset still means closed.
            with contextlib.suppress(ConnectionResetError):
                while chunk := sock.recv(65536):
                    received += chunk
        head, _, body = received.partition(b"\r\n\r\n")
        return head, body

    @pytest.mark.parametrize("declared", [
        str(MAX_BODY_BYTES + 1), "10000000000000", "9" * 5000,
    ])
    def test_oversized_body_gets_413_then_close_unread(self, declared):
        service = PlanningService()
        with running(service) as server:
            head, body = self._raw_exchange(server, (
                f"POST /plan/cluster HTTP/1.1\r\nHost: x\r\n"
                f"Content-Length: {declared}\r\n\r\n").encode("ascii"))
        assert head.startswith(b"HTTP/1.1 413 ")
        assert b"\r\nConnection: close" in head
        assert "Content-Length" in json.loads(body)["error"]
        assert service.stats_payload()["requests"]["total"] == 0

    def test_short_body_gets_400_then_close(self):
        data = json.dumps(MIXTRAL_A40).encode("utf-8")
        service = PlanningService()
        with running(service) as server:
            head, body = self._raw_exchange(server, (
                f"POST /plan/cluster HTTP/1.1\r\nHost: x\r\n"
                f"Content-Length: {len(data) + 10}\r\n\r\n").encode("ascii") + data,
                half_close=True)
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"\r\nConnection: close" in head
        error = json.loads(body)["error"]
        assert "Content-Length" in error and str(len(data)) in error
        assert service.stats_payload()["requests"]["total"] == 0  # never planned

    def test_body_at_the_limit_is_planned(self):
        data = json.dumps(MIXTRAL_A40).ljust(MAX_BODY_BYTES).encode("utf-8")
        with running(PlanningService()) as server:
            conn = http.client.HTTPConnection(*server.server_address[:2], timeout=120)
            try:
                conn.request("POST", "/plan/cluster", body=data)
                response = conn.getresponse()
                assert response.status == 200
                assert json.loads(response.read())["kind"] == "cluster"
            finally:
                conn.close()

    # -- the request parser ---------------------------------------------
    def _rejected(self, data, status):
        """``data`` gets one JSON error reply with ``status``, then close;
        returns the error message."""
        service = PlanningService()
        with running(service) as server:
            head, body = self._raw_exchange(server, data)
        assert head.startswith(f"HTTP/1.1 {status} ".encode("ascii"))
        assert b"\r\nContent-Type: application/json\r\n" in head
        assert b"\r\nConnection: close" in head
        assert service.stats_payload()["requests"]["total"] == 0  # never planned
        return json.loads(body)["error"]  # one JSON object, nothing after it

    def test_chunked_body_gets_one_json_501_then_close(self):
        """The chunk bytes used to be planned as ``{}`` and then read as a
        second request: two replies to one request."""
        data = json.dumps(MIXTRAL_A40).encode("utf-8")
        error = self._rejected(
            b"POST /plan/cluster HTTP/1.1\r\nHost: x\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n"
            + b"%x\r\n" % len(data) + data + b"\r\n0\r\n\r\n", 501)
        assert "Transfer-Encoding" in error

    def test_conflicting_content_lengths_get_400_then_close(self):
        data = json.dumps(MIXTRAL_A40).encode("utf-8")
        error = self._rejected(
            f"POST /plan/cluster HTTP/1.1\r\nHost: x\r\n"
            f"Content-Length: {len(data)}\r\nContent-Length: 2\r\n\r\n"
            .encode("ascii") + data, 400)
        assert "Content-Length" in error and repr(str(len(data))) in error

    def test_repeated_equal_content_length_is_planned(self):
        data = json.dumps(MIXTRAL_A40).encode("utf-8")
        with running(PlanningService()) as server:
            head, body = self._raw_exchange(server, (
                f"POST /plan/cluster HTTP/1.1\r\nHost: x\r\nConnection: close\r\n"
                f"Content-Length: {len(data)}\r\nContent-Length: {len(data)}\r\n\r\n"
            ).encode("ascii") + data)
        assert head.startswith(b"HTTP/1.1 200 ")
        assert json.loads(body)["kind"] == "cluster"

    def test_folded_header_line_gets_400(self):
        error = self._rejected(
            b"GET /healthz HTTP/1.1\r\nHost: x\r\nX-Note: one\r\n  two\r\n\r\n", 400)
        assert "obs-fold" in error

    @pytest.mark.parametrize("line, status", [
        ("GET /healthz HTTP/2.0", 505),
        ("GET /healthz HTTP/0.9", 505),
        ("GET /healthz", 400),  # HTTP/0.9's two-word form
        ("GET /healthz HTTP/1.1 extra", 400),
        ("GET /healthz HTTP/one", 400),
    ])
    def test_bad_request_line_gets_json_error(self, line, status):
        error = self._rejected(f"{line}\r\nHost: x\r\n\r\n".encode("ascii"), status)
        assert line.split()[-1] in error

    def test_unknown_method_gets_json_501(self):
        assert "'PUT'" in self._rejected(b"PUT /healthz HTTP/1.1\r\nHost: x\r\n\r\n", 501)

    def test_101_header_lines_get_431(self):
        headers = "".join(f"X-Field-{i}: {i}\r\n" for i in range(101))
        error = self._rejected(
            f"GET /healthz HTTP/1.1\r\n{headers}\r\n".encode("ascii"), 431)
        assert "100 header lines" in error

    def test_100_header_lines_are_accepted(self):
        headers = "".join(f"X-Field-{i}: {i}\r\n" for i in range(99))
        with running(PlanningService()) as server:
            head, body = self._raw_exchange(server, (
                f"GET /healthz HTTP/1.1\r\n{headers}Connection: close\r\n\r\n"
            ).encode("ascii"))
        assert head.startswith(b"HTTP/1.1 200 ")
        assert json.loads(body) == {"status": "ok"}

    def test_70kb_header_line_gets_431(self):
        error = self._rejected(
            b"GET /healthz HTTP/1.1\r\nX-Big: " + b"a" * 70_000 + b"\r\n\r\n", 431)
        assert "65536 bytes" in error

    def test_header_names_are_case_insensitive(self):
        data = json.dumps(MIXTRAL_A40).encode("utf-8")
        with running(PlanningService()) as server:
            # CONNECTION must be honoured too, or the read below never ends.
            head, body = self._raw_exchange(server, (
                f"POST /plan/cluster HTTP/1.1\r\nhost: x\r\nCONNECTION: close\r\n"
                f"content-LENGTH: {len(data)}\r\n\r\n").encode("ascii") + data)
        assert head.startswith(b"HTTP/1.1 200 ")
        assert json.loads(body)["kind"] == "cluster"

    def test_http10_closes_unless_kept_alive(self):
        with running(PlanningService()) as server:
            head, body = self._raw_exchange(
                server, b"GET /healthz HTTP/1.0\r\n\r\nGET /healthz HTTP/1.0\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 200 ")
            assert json.loads(body) == {"status": "ok"}  # only the first is answered

            head, body = self._raw_exchange(
                server, b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
                        b"GET /healthz HTTP/1.0\r\n\r\n")
        assert body.count(b"HTTP/1.1 200 ") == 1  # the second reply, after the first body

    def test_expect_100_continue_arrives_before_the_body(self):
        data = json.dumps(MIXTRAL_A40).encode("utf-8")
        with running(PlanningService()) as server:
            with socket.create_connection(server.server_address[:2], timeout=30) as sock:
                sock.sendall((
                    f"POST /plan/cluster HTTP/1.1\r\nHost: x\r\nConnection: close\r\n"
                    f"Expect: 100-continue\r\nContent-Length: {len(data)}\r\n\r\n"
                ).encode("ascii"))
                # An interim reply held in a write buffer would never
                # arrive: the server would wait for the body, the client
                # for the reply.
                sock.settimeout(5.0)
                interim = b""
                while not interim.endswith(b"\r\n\r\n"):
                    interim += sock.recv(1)
                assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
                sock.settimeout(30)
                sock.sendall(data)
                received = b""
                with contextlib.suppress(ConnectionResetError):
                    while chunk := sock.recv(65536):
                        received += chunk
        head, _, body = received.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 ")
        assert json.loads(body)["kind"] == "cluster"

    def test_each_reply_leaves_in_one_send(self):
        """Status line, headers and body of a warm reply are one socket
        send, a spot plan's ~10 KB included."""
        sends = []

        class CountingSocket:
            """The accepted socket, recording the size of each send."""
            makefile = socket.socket.makefile  # so the handler's streams send through here

            def __init__(self, sock):
                self._sock = sock

            def __getattr__(self, name):
                return getattr(self._sock, name)

            def send(self, data):
                sends.append(len(data))
                return self._sock.send(data)

            def sendall(self, data):
                sends.append(len(data))
                return self._sock.sendall(data)

        with running(PlanningService()) as server:
            handler = server.RequestHandlerClass  # per-server subclass
            original_setup = handler.setup

            def setup(self):
                self.request = CountingSocket(self.request)
                original_setup(self)

            handler.setup = setup
            conn = http.client.HTTPConnection(*server.server_address[:2], timeout=120)
            try:
                for path, body in [("/plan/cluster", MIXTRAL_A40),
                                   ("/plan/spot", {"model": "mixtral"})]:
                    for _ in range(2):  # cold, then warm
                        sends.clear()
                        conn.request("POST", path, body=json.dumps(body).encode("utf-8"))
                        response = conn.getresponse()
                        data = response.read()
                        assert response.status == 200
                    assert len(sends) == 1 and sends[0] > len(data) > 4000, (path, sends)
            finally:
                conn.close()
