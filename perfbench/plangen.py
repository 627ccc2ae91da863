"""Seeded plan-request generator shared by the cold-cli and serve-mixed workloads.

A request is built in three steps, in the style of a schema-driven
synthetic-data pipeline:

1. **Field values.** Each field of the plan request has a pool of values;
   ``None`` means "leave the field out, use the default". The fields that
   set what a cold plan costs — the sweep grid (``SHAPE_FIELDS``) and the
   job it prices (``CARD_DATASETS``, ``COST_FIELDS``) — come from a fixed
   deck of cards per kind, one in ``MC_EVERY`` spot cards a Monte Carlo one. The
   seed shuffles the deck and draws the fields that change the answer but
   not its cost (``FREE_FIELDS``). So every seed plans the same cold work
   in another order, and the slowest requests, and the service's memory,
   do not depend on which cards a seed happened to draw.
2. **Spellings.** The same canonical request is rendered many ways: model
   aliases and case, a scalar or a one-element list, explicit defaults or
   omitted ones, and on the command line a comma list or a repeated flag.
   Spellings change the bytes sent, never the plan.
3. **Stream shape.** A stream interleaves new requests with repeats of
   earlier ones (re-spelled), concurrent identical pairs, and malformed
   probes that break exactly one field and expect a 400 naming it. Their
   shares are kept exactly, not drawn: every window of the stream holds
   the same count of each.

Everything else derives from one ``random.Random(seed)``, so a seed fixes
the stream. The generator imports nothing from the program under test: it
emits plain dicts (service bodies) and argv lists (CLI invocations).
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

# Canonical model keys and the spellings a user may type for them.
MODEL_SPELLINGS = {
    "mixtral-8x7b": ("mixtral", "Mixtral", "mixtral-8x7b", "MIXTRAL"),
    "blackmamba-2.8b": ("blackmamba", "BlackMamba", "blackmamba-2.8b"),
}

GPU_SPELLINGS = {
    "A40": ("a40", "A40"),
    "H100-80GB": ("h100", "H100-80GB", "h100-80gb"),
    "A100-80GB": ("a100-80", "A100-80GB"),
}

# Value pools. A tuple entry is a list-valued field; None means "omitted".
SHAPE_FIELDS: Dict[str, Tuple] = {
    "model": ("mixtral-8x7b", "blackmamba-2.8b"),
    "gpu": (None, ("A40",), ("H100-80GB",), ("A100-80GB", "H100-80GB")),
    "num_gpus": (None, (1, 2), (4,)),
    "density": (None, "sparse"),
}

# Fields that size the job, and with it the risk a spot plan prices.
COST_FIELDS: Dict[str, Dict[str, Tuple]] = {"cluster": {"epochs": (None, 3)}}
COST_FIELDS["spot"] = dict(
    COST_FIELDS["cluster"],
    mtbp_hours=(None, 4.0, 12.0),
    checkpoint_minutes=(None, (30.0, 60.0)),
)

# Fields that change the answer, not the work: a card's later deals stay warm.
FREE_FIELDS: Dict[str, Dict[str, Tuple]] = {
    "cluster": {"deadline_hours": (None, 24.0, 48.0, 72.0), "budget_dollars": (None, 150.0, 400.0)},
}
FREE_FIELDS["spot"] = dict(FREE_FIELDS["cluster"], confidence=(None, 0.9))

# Each kind gets half of the grid shapes, and a card for each of them
# with each dataset: the dataset sets the simulated sequence lengths and
# the job's length, so every card simulates and prices risk afresh. The
# serve-mixed stream deals its 48 spot cards within a run; that first,
# cold deal, with its concurrent twins, is the slowest 3.5% of requests.
CARD_DATASETS = (None, "commonsense15k")
CARD_SEED = 0  # fixes which cards there are; the run seed only orders them
# Free-field draws tried for a card before the card counts as used up.
FREE_TRIES = 16

# Defaults the CLIs and the service share; a spelling may state them.
DEFAULTS = {"dataset": "math14k", "density": "both", "epochs": 10}

CLI_FLAGS = {
    "dataset": "--dataset",
    "density": "--density",
    "epochs": "--epochs",
    "deadline_hours": "--deadline-hours",
    "budget_dollars": "--budget",
    "mtbp_hours": "--mtbp-hours",
    "confidence": "--confidence",
}

# Every MC_EVERY-th spot card uses the Monte Carlo risk engine, with few
# trials so one stays cheap, on one narrow grid and one job: its sample
# arrays, and with them the service's peak memory, are the same for all.
MC_EVERY = 8
MC_TRIALS = 64
MC_FIELDS = {"gpu": ("A40",), "num_gpus": (1, 2), "epochs": 3, "risk_mode": "mc", "trials": MC_TRIALS}

# Malformed probes: (field, bad value, kinds it applies to). Each breaks
# exactly one field of an otherwise valid body.
MALFORMED = (
    ("num_gpus", [0, 2], ("cluster", "spot")),
    ("gpu", 7, ("cluster", "spot")),
    ("density", "sideways", ("cluster", "spot")),
    ("epochs", "ten", ("cluster", "spot")),
    ("deadline_hours", -5, ("cluster", "spot")),
    ("interconnect", "carrier-pigeon", ("cluster", "spot")),
    ("gpus", ["A40"], ("cluster", "spot")),
    ("confidence", 1.5, ("spot",)),
    ("mtbp_hours", "often", ("spot",)),
)


@dataclass(frozen=True)
class PlanRequest:
    """One canonical plan request: the plan's identity, spelling-free."""

    kind: str  # "cluster" or "spot"
    fields: Tuple[Tuple[str, object], ...]  # sorted (name, value), omitted fields absent

    @property
    def key(self) -> str:
        return json.dumps([self.kind, self.fields], sort_keys=True)

    def get(self, name: str, default=None):
        return dict(self.fields).get(name, default)


@dataclass
class Item:
    """One stream entry: a request spelled for the wire and the command line."""

    index: int
    request: PlanRequest
    body: Dict[str, object]
    argv: List[str]
    new: bool  # first occurrence of this canonical request
    pair: bool = False  # sent concurrently with an identical twin
    malformed_field: Optional[str] = None  # set for probes expecting a 400

    @property
    def path(self) -> str:
        return f"/plan/{self.request.kind}"

    def body_bytes(self) -> bytes:
        return json.dumps(self.body).encode("utf-8")


@dataclass
class StreamStats:
    """The property every cache claim depends on: how much the stream repeats."""

    items: int = 0
    distinct: int = 0
    repeats: int = 0
    pairs: int = 0
    malformed: int = 0
    spellings: set = field(default_factory=set)

    @property
    def repeat_share(self) -> float:
        valid = self.items - self.malformed
        return self.repeats / valid if valid else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "items": self.items,
            "distinct_requests": self.distinct,
            "distinct_spellings": len(self.spellings),
            "repeat_share": round(self.repeat_share, 4),
            "concurrent_pairs": self.pairs,
            "malformed_probes": self.malformed,
        }


class Deck:
    """Deals every card once, in a shuffled order, then reshuffles."""

    def __init__(self, rng: random.Random, cards) -> None:
        self.rng = rng
        self.cards = list(cards)
        self.pile: List = []

    def draw(self):
        if not self.pile:
            self.pile = list(self.cards)
            self.rng.shuffle(self.pile)
        return self.pile.pop()


def card_deck() -> Dict[str, List[Dict[str, object]]]:
    """The fixed cards of each kind: grid shape and job, the same for
    every seed. The two kinds get disjoint halves of the grid shapes, so
    fewer spot cards find their simulations warmed by a cluster card."""
    rng = random.Random(CARD_SEED)
    shapes = list(itertools.product(*SHAPE_FIELDS.values()))
    rng.shuffle(shapes)
    half = len(shapes) // 2
    deck = {}
    for k, kind in enumerate(("cluster", "spot")):
        costs = list(itertools.product(*COST_FIELDS[kind].values()))
        cards: List[Dict[str, object]] = []
        for shape in shapes[k * half:(k + 1) * half]:
            for dataset in CARD_DATASETS:
                card = dict(zip(SHAPE_FIELDS, shape), dataset=dataset)
                card.update(zip(COST_FIELDS[kind], rng.choice(costs)))
                if kind == "spot" and len(cards) % MC_EVERY == MC_EVERY - 1:
                    card.update(dict.fromkeys(COST_FIELDS[kind]), **MC_FIELDS)
                cards.append(card)
        deck[kind] = cards
    return deck


class PlanRequestGenerator:
    """Seeded source of canonical requests and their spellings."""

    def __init__(self, seed: int, kinds: Tuple[str, ...] = ("cluster", "spot")) -> None:
        self.rng = random.Random(seed)
        self.kinds = Deck(self.rng, kinds)
        cards = card_deck()
        self.cards = {kind: Deck(self.rng, cards[kind]) for kind in kinds}

    # -- field values ---------------------------------------------------
    def request(self, seen: Set[PlanRequest]) -> Optional[PlanRequest]:
        """The next card with free fields drawn so the request is not in
        ``seen``; ``None`` if this card's free draws found none."""
        kind = self.kinds.draw()
        card = self.cards[kind].draw()
        for _ in range(FREE_TRIES):
            values = dict(card)
            for name, pool in FREE_FIELDS[kind].items():
                values[name] = self.rng.choice(pool)
            fields = tuple(sorted((k, v) for k, v in values.items() if v is not None))
            request = PlanRequest(kind, fields)
            if request not in seen:
                return request
        return None

    # -- spellings ------------------------------------------------------
    def _spell_names(self, names, table) -> List[str]:
        return [self.rng.choice(table[name]) for name in names]

    def body(self, request: PlanRequest) -> Dict[str, object]:
        """The request as a service body: aliases, scalar-vs-list and
        explicit-or-omitted defaults drawn at random."""
        rng = self.rng
        model = request.get("model")
        body: Dict[str, object] = {"model": rng.choice(MODEL_SPELLINGS[model])}
        for name, value in request.fields:
            if name == "model":
                continue
            if name == "gpu":
                value = self._spell_names(value, GPU_SPELLINGS)
            if isinstance(value, tuple):
                value = list(value)
            if isinstance(value, list) and len(value) == 1 and rng.random() < 0.5:
                value = value[0]  # scalar spelling of a one-element list
            elif isinstance(value, float) and value.is_integer() and rng.random() < 0.5:
                value = int(value)  # 24 and 24.0 are one request
            body[name] = value
        for name, default in DEFAULTS.items():
            if name not in body and rng.random() < 0.3:
                body[name] = default
        keys = list(body)
        rng.shuffle(keys)
        return {key: body[key] for key in keys}

    def argv(self, request: PlanRequest) -> List[str]:
        """The request as ``python -m repro.<kind>.plan ... --json`` argv."""
        rng = self.rng
        module = "repro.spot.plan" if request.kind == "spot" else "repro.cluster.plan"
        argv = ["-m", module, "--model", rng.choice(MODEL_SPELLINGS[request.get("model")])]
        for name, value in request.fields:
            if name == "model":
                continue
            if name == "gpu":
                for spelled in self._spell_names(value, GPU_SPELLINGS):
                    argv += ["--gpu", spelled]
            elif name in ("num_gpus", "checkpoint_minutes"):
                flag = "--num-gpus" if name == "num_gpus" else "--checkpoint-minutes"
                text = [_number(v) for v in value]
                if rng.random() < 0.5:
                    argv += [flag, ",".join(text)]
                else:
                    for part in text:
                        argv += [flag, part]
            elif name == "risk_mode":
                argv += ["--risk-mode", value]
            elif name == "trials":
                argv += ["--trials", str(value)]
            else:
                argv += [CLI_FLAGS[name], _number(value)]
        for name, default in DEFAULTS.items():
            if request.get(name) is None and rng.random() < 0.3:
                argv += [CLI_FLAGS[name], _number(default)]
        return argv + ["--json"]

    def malformed(self, request: PlanRequest) -> Tuple[Dict[str, object], str]:
        """A body breaking exactly one field, and that field's name."""
        probes = [p for p in MALFORMED if request.kind in p[2]]
        name, bad, _ = self.rng.choice(probes)
        body = self.body(request)
        body[name] = bad
        return body, name

    # -- streams --------------------------------------------------------
    def stream(
        self,
        new_share: float,
        pair_share: float = 0.0,
        malformed_share: float = 0.0,
        stats: Optional[StreamStats] = None,
        limit: Optional[int] = None,
    ) -> Iterator[Item]:
        """An endless (or ``limit``-long) stream of items.

        A ``new_share`` of the items are new (the first always is), the
        rest re-spelled repeats of earlier requests; a ``pair_share`` of
        the new ones become concurrent pairs, yielded twice in a row with
        ``pair=True``; malformed probes replace a ``malformed_share`` of
        the items. Each share is kept by a credit that grows by the share
        at every draw and spends one per use, so it holds in every window.
        A new item whose card is used up becomes a repeat.
        """
        stats = stats if stats is not None else StreamStats()
        seen: List[PlanRequest] = []
        seen_set: Set[PlanRequest] = set()
        new_credit = pair_credit = malformed_credit = 0.0
        index = 0
        while limit is None or index < limit:
            malformed_credit += malformed_share
            new_credit += new_share
            malformed = bool(seen) and malformed_credit >= 1.0
            request = None
            if not malformed and (not seen or new_credit >= 1.0):
                request = self.request(seen_set)
            if malformed:
                malformed_credit -= 1.0
                request = self.rng.choice(seen)
                body, bad = self.malformed(request)
                item = Item(index, request, body, [], new=False, malformed_field=bad)
                stats.malformed += 1
                batch = [item]
            elif request is not None:
                new_credit -= 1.0
                seen.append(request)
                seen_set.add(request)
                stats.distinct += 1
                pair_credit += pair_share
                pair = pair_credit >= 1.0
                if pair:
                    pair_credit -= 1.0
                item = Item(index, request, self.body(request), self.argv(request), new=True, pair=pair)
                if pair:
                    stats.pairs += 1
                    twin = Item(index + 1, request, dict(item.body), item.argv, new=False, pair=True)
                    stats.repeats += 1
                    batch = [item, twin]
                else:
                    batch = [item]
            else:
                if not seen:
                    raise RuntimeError("the card deck yields no request")
                request = self.rng.choice(seen)
                item = Item(index, request, self.body(request), self.argv(request), new=False)
                stats.repeats += 1
                batch = [item]
            for entry in batch:
                stats.items += 1
                stats.spellings.add(json.dumps(entry.body, sort_keys=False))
                index += 1
                yield entry


def _number(value) -> str:
    """A number as the CLI would be given it: ``24`` not ``24.0``."""
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)
