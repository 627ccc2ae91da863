"""Cloud GPU rental pricing.

The paper prices GPU hours from CUDO Compute because, at the time, other
major clouds did not list the A40. The catalog structure supports
additional providers; prices are inputs to the cost model, not results.
Table IV's printed rates: A40 $0.79/h, A100-80GB $1.67/h, H100 $2.10/h.

Two price tiers per (provider, GPU) pair:

* **on-demand** — uninterrupted capacity, the tier the paper's Eq. 2
  assumes. All the original lookup APIs (``price``, ``dollars_per_hour``,
  ``providers_for``, ``gpus``) read this tier, so pre-spot callers are
  unchanged.
* **spot** — discounted preemptible capacity. Spot listings are reached
  through the explicit ``spot_*`` APIs; the interruption hazard that
  makes the discount risky lives in :mod:`repro.spot.market`, not here —
  prices are market quotes, risk is a model.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

#: Version of the JSON interchange layout (:meth:`PriceCatalog.to_payload`).
#: Bump on any structural change so a feed emitting the old shape is
#: rejected loudly instead of half-parsed.
PAYLOAD_VERSION = 1


@dataclass(frozen=True)
class GPUPrice:
    """Hourly rental price of one GPU model at one provider."""

    gpu_name: str
    provider: str
    dollars_per_hour: float

    def __post_init__(self) -> None:
        if self.dollars_per_hour <= 0:
            raise ValueError(f"price must be positive, got {self.dollars_per_hour}")


class PriceCatalog:
    """Provider -> GPU -> hourly price lookup, with an optional spot tier."""

    def __init__(
        self,
        prices: Iterable[GPUPrice],
        spot_prices: Iterable[GPUPrice] = (),
    ) -> None:
        self._digest: Optional[str] = None  # digest() memo; add()/add_spot() clear it
        self._prices: Dict[Tuple[str, str], GPUPrice] = {}
        for price in prices:
            self._prices[(price.provider, price.gpu_name)] = price
        self._spot_prices: Dict[Tuple[str, str], GPUPrice] = {}
        for price in spot_prices:
            self.add_spot(price)

    def price(self, gpu_name: str, provider: str = "cudo") -> GPUPrice:
        key = (provider, gpu_name)
        if key not in self._prices:
            available = sorted(f"{p}/{g}" for p, g in self._prices)
            raise KeyError(f"no price for {provider}/{gpu_name}; available: {available}")
        return self._prices[key]

    def dollars_per_hour(self, gpu_name: str, provider: str = "cudo") -> float:
        return self.price(gpu_name, provider).dollars_per_hour

    def providers(self) -> List[str]:
        return sorted({p for p, _g in self._prices})

    def gpus(self, provider: str = "cudo") -> List[str]:
        return sorted(g for p, g in self._prices if p == provider)

    def providers_for(self, gpu_name: str) -> List[str]:
        """Providers renting ``gpu_name`` on demand, sorted for
        deterministic iteration (the cluster planner sweeps these). Spot
        listings do not appear here — a spot quote without on-demand
        capacity is not a plannable baseline."""
        return sorted(p for p, g in self._prices if g == gpu_name)

    def add(self, price: GPUPrice) -> None:
        """Register (or update) an on-demand listing. An existing spot
        listing for the pair must stay at or below the new on-demand
        price — the same discount-tier invariant ``add_spot`` enforces
        from the other side."""
        key = (price.provider, price.gpu_name)
        spot = self._spot_prices.get(key)
        if spot is not None and spot.dollars_per_hour > price.dollars_per_hour:
            raise ValueError(
                f"on-demand price ${price.dollars_per_hour}/h for "
                f"{price.provider}/{price.gpu_name} undercuts the existing spot "
                f"${spot.dollars_per_hour}/h"
            )
        self._prices[key] = price
        self._digest = None

    # ------------------------------------------------------------------
    # Spot tier
    # ------------------------------------------------------------------
    def add_spot(self, price: GPUPrice) -> None:
        """Register a spot listing. When the same (provider, GPU) pair has
        an on-demand price, the spot quote must not exceed it — spot is a
        discount tier, and the risk planner's "spot is excluded unless its
        expected cost beats on-demand" invariant builds on that."""
        key = (price.provider, price.gpu_name)
        ondemand = self._prices.get(key)
        if ondemand is not None and price.dollars_per_hour > ondemand.dollars_per_hour:
            raise ValueError(
                f"spot price ${price.dollars_per_hour}/h for "
                f"{price.provider}/{price.gpu_name} exceeds the on-demand "
                f"${ondemand.dollars_per_hour}/h"
            )
        self._spot_prices[key] = price
        self._digest = None

    def has_spot(self, gpu_name: str, provider: str = "cudo") -> bool:
        return (provider, gpu_name) in self._spot_prices

    def spot_price_for(self, gpu_name: str, provider: str = "cudo") -> GPUPrice:
        key = (provider, gpu_name)
        if key not in self._spot_prices:
            available = sorted(f"{p}/{g}" for p, g in self._spot_prices)
            raise KeyError(
                f"no spot price for {provider}/{gpu_name}; available: {available}"
            )
        return self._spot_prices[key]

    def spot_dollars_per_hour(self, gpu_name: str, provider: str = "cudo") -> float:
        return self.spot_price_for(gpu_name, provider).dollars_per_hour

    def spot_providers_for(self, gpu_name: str) -> List[str]:
        """Providers with a spot listing for ``gpu_name``, sorted."""
        return sorted(p for p, g in self._spot_prices if g == gpu_name)

    def spot_discount(self, gpu_name: str, provider: str = "cudo") -> float:
        """Spot price as a fraction of on-demand (0.5 = half price)."""
        return self.spot_dollars_per_hour(gpu_name, provider) / self.dollars_per_hour(
            gpu_name, provider
        )

    # ------------------------------------------------------------------
    # JSON interchange — what a live pricing feed speaks
    # ------------------------------------------------------------------
    def to_payload(self) -> Dict[str, object]:
        """The catalog as a JSON-safe dict: versioned, with both tiers'
        listings in sorted (provider, gpu) order so equal catalogs
        serialize to equal bytes (which is what :meth:`digest` hashes)."""

        def tier(prices: Dict[Tuple[str, str], GPUPrice]) -> List[Dict[str, object]]:
            return [
                {
                    "gpu": price.gpu_name,
                    "provider": price.provider,
                    "dollars_per_hour": price.dollars_per_hour,
                }
                for _key, price in sorted(prices.items())
            ]

        return {
            "version": PAYLOAD_VERSION,
            "prices": tier(self._prices),
            "spot_prices": tier(self._spot_prices),
        }

    @classmethod
    def from_payload(cls, payload: object) -> "PriceCatalog":
        """Parse a feed payload back into a catalog. Malformed payloads
        (wrong version, missing keys, non-numeric prices, spot quotes
        above on-demand) raise ``ValueError`` — a feed that cannot be
        parsed must read as "refresh failed", never as a partial or
        silently-empty catalog."""
        if not isinstance(payload, dict):
            raise ValueError(f"pricing payload must be an object, got {type(payload).__name__}")
        version = payload.get("version")
        if version != PAYLOAD_VERSION:
            raise ValueError(f"unsupported pricing payload version {version!r}")

        def tier(name: str) -> List[GPUPrice]:
            entries = payload.get(name, [])
            if not isinstance(entries, list):
                raise ValueError(f"pricing payload {name!r} must be a list")
            prices = []
            for index, entry in enumerate(entries):
                if not isinstance(entry, dict):
                    raise ValueError(f"{name}[{index}] must be an object")
                try:
                    prices.append(
                        GPUPrice(
                            gpu_name=str(entry["gpu"]),
                            provider=str(entry["provider"]),
                            dollars_per_hour=float(entry["dollars_per_hour"]),
                        )
                    )
                except (KeyError, TypeError, ValueError) as exc:
                    raise ValueError(f"{name}[{index}] is malformed: {exc}") from exc
            return prices

        prices = tier("prices")
        spot_prices = tier("spot_prices")
        try:
            return cls(prices, spot_prices=spot_prices)
        except ValueError as exc:
            # add_spot's discount-tier invariant, re-tagged as a payload error
            raise ValueError(f"pricing payload violates catalog invariants: {exc}") from exc

    def digest(self) -> str:
        """sha256 over the canonical payload JSON — one stable identity
        for "which prices produced this plan", used by the planning
        service's request digest so a price refresh correctly splits
        otherwise-identical requests into distinct coalescing keys.
        Computed once per catalog state: the service asks on every
        request, and ``add``/``add_spot`` are the only mutators."""
        if self._digest is None:
            text = json.dumps(self.to_payload(), sort_keys=True, separators=(",", ":"))
            self._digest = hashlib.sha256(text.encode("ascii")).hexdigest()
        return self._digest


DEFAULT_CATALOG = PriceCatalog(
    [
        # CUDO Compute rates as printed in the paper's Table IV.
        GPUPrice("A40", "cudo", 0.79),
        GPUPrice("A100-80GB", "cudo", 1.67),
        GPUPrice("H100-80GB", "cudo", 2.10),
        # A100-40GB is not in Table IV; contemporary CUDO listing.
        GPUPrice("A100-40GB", "cudo", 1.29),
        # Representative on-demand rates for alternative providers, to
        # demonstrate the paper's "easily adjust the renting cost" claim
        # and give the cluster planner a real provider axis.
        GPUPrice("A100-80GB", "lambda", 1.79),
        GPUPrice("H100-80GB", "lambda", 2.49),
        GPUPrice("A40", "runpod", 0.44),
        GPUPrice("A100-80GB", "runpod", 1.59),
    ],
    spot_prices=[
        # Representative preemptible discounts (~50% of on-demand for the
        # reserved-capacity providers, deeper on the community cloud).
        # Lambda lists no spot tier, which exercises the has_spot() miss
        # path in the risk planner.
        GPUPrice("A40", "cudo", 0.40),
        GPUPrice("A100-80GB", "cudo", 0.84),
        GPUPrice("H100-80GB", "cudo", 1.05),
        GPUPrice("A100-40GB", "cudo", 0.65),
        GPUPrice("A40", "runpod", 0.22),
        GPUPrice("A100-80GB", "runpod", 0.80),
    ],
)
