"""The cluster plan request, defined once.

:class:`ClusterPlanRequest` is the request behind both
``python -m repro.cluster.plan`` and ``POST /plan/cluster``. Each field's
:func:`option` metadata says once what the field is: its type, default
and bound, whether it is a list, the resolver that canonicalizes it
(model alias, GPU prefix, known dataset), its CLI flag and its help.
That one table drives:

* :meth:`~ClusterPlanRequest.build_parser` — the CLI's argparse flags;
* :meth:`~ClusterPlanRequest.from_args` / :meth:`~ClusterPlanRequest.from_body`
  — validation of an argparse ``Namespace`` or a JSON body, with one
  message per rule, naming the field the way its surface spells it
  (``--num-gpus`` on the command line, ``'num_gpus'`` in a body);
* :meth:`~ClusterPlanRequest.normalized` — the canonical echo the
  service digests and returns;
* :meth:`~ClusterPlanRequest.run` — the planner call.

Lists accept a scalar (bodies), repeated flags and, where the flag says
``N[,N...]``, comma-separated values; entries are resolved, validated
and then deduped in order, so two spellings of one sweep are one
request. A JSON ``null`` means the field's default.
"""

from __future__ import annotations

import argparse
import functools
from dataclasses import MISSING, dataclass, field, fields
from typing import Callable, ClassVar, Dict, Mapping, Optional, Tuple

from ..gpu.multigpu import INTERCONNECTS
from ..gpu.specs import GPU_REGISTRY
from ..memory.estimator import EFFECTIVE_SEQ_LEN
from ..models.registry import MODEL_REGISTRY
from ..telemetry import add_telemetry_arguments
from .planner import (
    DEFAULT_INTERCONNECTS,
    DEFAULT_MAX_TP,
    DEFAULT_NUM_GPUS,
    PARALLELISM_MODES,
    ClusterPlan,
    ClusterPlanner,
)


class RequestError(Exception):
    """A malformed request: reported as the HTTP ``status`` (default
    400) with the message as the ``error`` body, or as ``parser.error``
    on the command line — never a traceback."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


# Family shorthands resolve to the paper-scale configs (never the tiny
# training stand-ins, which share the family prefix).
MODEL_ALIASES = {
    "mixtral": "mixtral-8x7b",
    "blackmamba": "blackmamba-2.8b",
}

#: ``density`` choices and the expert routings (dense?) each sweeps.
DENSITIES: Dict[str, Tuple[bool, ...]] = {
    "sparse": (False,),
    "dense": (True,),
    "both": (False, True),
}


def _resolve(name: str, registry, kind: str, aliases=None) -> str:
    """Registry entry for ``name``: alias, exact (case-insensitive)
    match, or unique prefix — with an ambiguity/availability hint."""
    lowered = name.lower()
    if aliases and lowered in aliases:
        return aliases[lowered]
    table = {entry.lower(): entry for entry in registry}
    if lowered in table:
        return table[lowered]
    matches = sorted(entry for low, entry in table.items() if low.startswith(lowered))
    if len(matches) == 1:
        return matches[0]
    hint = f"ambiguous between {matches}" if matches else f"available: {sorted(registry)}"
    raise KeyError(f"unknown {kind} {name!r}; {hint}")


def resolve_model_key(name: str) -> str:
    """Model registry key: family alias ('mixtral'), exact key, or
    unique prefix."""
    return _resolve(name, MODEL_REGISTRY, "model", MODEL_ALIASES)


def resolve_gpu_name(name: str) -> str:
    """GPU registry name: exact or unique prefix, so ``a40`` and ``h100``
    work while ``a100`` demands a suffix."""
    return _resolve(name, GPU_REGISTRY, "GPU")


def resolve_dataset(name: str) -> str:
    """A dataset the planner knows the padded length and query count of."""
    if name not in EFFECTIVE_SEQ_LEN:
        raise KeyError(f"unknown dataset {name!r}; known: {sorted(EFFECTIVE_SEQ_LEN)}")
    return name


POSITIVE = "positive"  # > 0, which for integers is >= 1; rejects NaN
UNIT = "unit"  # in [0, 1]

_NOUNS = {
    str: ("a non-empty string", "non-empty strings"),
    int: ("an integer", "whole numbers"),
    float: ("a number", "numbers"),
}


@dataclass(frozen=True)
class Option:
    """What one request field is, on every surface."""

    flag: str
    help: Optional[str]
    kind: type = str  # str, int or float: the type of one value
    many: bool = False  # a list: scalar bodies and repeated flags accepted
    csv: bool = False  # the flag also takes comma-separated values
    choices: Optional[Tuple[str, ...]] = None
    resolve: Optional[Callable[[str], str]] = None  # raises KeyError
    bound: Optional[str] = None  # POSITIVE or UNIT
    noun: Optional[str] = None  # what a list's entries are, for its bound message
    metavar: Optional[str] = None

    def normalize(self, value, name: str, text: bool):
        """A given ``value`` validated and canonicalized, errors naming the
        field ``name``; ``text`` marks argparse values, whose comma lists
        are still strings."""
        if not self.many:
            return self._value(value, name, False)
        items = value if isinstance(value, list) else [value]
        if text and self.csv:
            items = [self._parse(part, name) for item in items for part in item.split(",") if part]
        if not items:
            raise RequestError(f"{name} must not be an empty list")
        return tuple(dict.fromkeys(self._value(item, name, True) for item in items))

    def _parse(self, text: str, name: str):
        try:
            return self.kind(text)
        except ValueError as exc:
            raise RequestError(f"{name} entries must be {_NOUNS[self.kind][1]}: {exc}") from exc

    def _value(self, value, name: str, entry: bool):
        subject = f"{name} entries" if entry else name
        if self.choices is not None:
            if value not in self.choices:
                raise RequestError(f"{name} must be one of {list(self.choices)}, got {value!r}")
            return value
        kind = self.kind
        accepted = (int, float) if kind is float else kind
        if isinstance(value, bool) or not isinstance(value, accepted) or value == "":
            raise RequestError(f"{subject} must be {_NOUNS[kind][entry]}, got {value!r}")
        value = kind(value)
        if self.resolve is not None:
            try:
                value = self.resolve(value)
            except KeyError as exc:
                raise RequestError(f"{name}: {exc.args[0]}") from exc
        if self.bound == POSITIVE and not value > 0:
            least = ">= 1" if kind is int else "> 0"
            hint = f" ({self.noun} must be {least})" if self.noun else ""
            raise RequestError(f"{subject} must be positive{hint}, got {value}")
        if self.bound == UNIT and not 0.0 <= value <= 1.0:
            raise RequestError(f"{subject} must be in [0, 1], got {value}")
        return value


@functools.cache
def _options(request_type) -> Dict[str, Tuple[Option, object]]:
    """Field name -> (option, default), in field order, once per request
    type; a required field's default is ``MISSING``."""
    return {f.name: (f.metadata["option"], f.default) for f in fields(request_type)}


def option(flag: str, help: Optional[str] = None, default=None, required: bool = False, **spec):
    """A request field: its dataclass default plus its :class:`Option`."""
    metadata = {"option": Option(flag, help, **spec)}
    if required:
        return field(metadata=metadata)
    return field(default=default, metadata=metadata)


@dataclass(frozen=True)
class ClusterPlanRequest:
    """One ``/plan/cluster`` request, resolved and validated."""

    command: ClassVar[str] = "repro.cluster.plan"
    kind: ClassVar[str] = "cluster"

    model: str = option(
        "--model", "model to plan for (family alias like 'mixtral' or registry key)",
        resolve=resolve_model_key, required=True)
    dataset: str = option(
        "--dataset", "dataset supplying seq_len and query count (default: math14k)",
        default="math14k", resolve=resolve_dataset)
    gpu: Optional[Tuple[str, ...]] = option(
        "--gpu", "candidate GPU (repeatable; default: every priced GPU)",
        many=True, resolve=resolve_gpu_name, metavar="NAME")
    provider: Optional[Tuple[str, ...]] = option(
        "--provider", "cloud provider (repeatable; default: all in the catalog)",
        many=True, metavar="NAME")
    num_gpus: Tuple[int, ...] = option(
        "--num-gpus", f"cluster sizes to sweep (default: {','.join(map(str, DEFAULT_NUM_GPUS))})",
        default=DEFAULT_NUM_GPUS, kind=int, many=True, csv=True, bound=POSITIVE,
        noun="cluster sizes", metavar="N[,N...]")
    interconnect: Tuple[str, ...] = option(
        "--interconnect", "interconnect(s) to sweep (default: all)",
        default=DEFAULT_INTERCONNECTS, many=True, choices=tuple(sorted(INTERCONNECTS)))
    density: str = option(
        "--density", "expert routing(s) to sweep (default: both)",
        default="both", choices=tuple(DENSITIES))
    batch_size: Optional[Tuple[int, ...]] = option(
        "--batch-size", "explicit per-GPU batch size(s); default: per-cell memory maximum",
        kind=int, many=True, bound=POSITIVE, noun="batch sizes", metavar="B")
    parallelism: str = option(
        "--parallelism",
        "layout axis: dp (full replicas, the classic sweep), tp (tensor-parallel only), "
        "auto (both; cells that fit no single device are priced at the TP degrees that "
        "shard them into fitting) (default: dp)",
        default="dp", choices=PARALLELISM_MODES)
    max_tp: int = option(
        "--max-tp",
        f"largest tensor-parallel degree to enumerate (powers of two; default: {DEFAULT_MAX_TP})",
        default=DEFAULT_MAX_TP, kind=int, bound=POSITIVE, metavar="N")
    grad_accum: Tuple[int, ...] = option(
        "--grad-accum",
        "gradient-accumulation depth(s) to sweep — trades per-device micro-batch for "
        "global batch at fixed memory (default: 1)",
        default=(1,), kind=int, many=True, csv=True, bound=POSITIVE,
        noun="gradient-accumulation depths", metavar="K[,K...]")
    epochs: int = option("--epochs", default=10, kind=int, bound=POSITIVE)
    num_queries: Optional[int] = option(
        "--num-queries", "override the dataset's query count", kind=int, bound=POSITIVE)
    seq_len: Optional[int] = option(
        "--seq-len", "override the dataset's padded sequence length", kind=int, bound=POSITIVE)
    deadline_hours: Optional[float] = option(
        "--deadline-hours", "wall-clock target the recommendation must meet",
        kind=float, bound=POSITIVE)
    budget_dollars: Optional[float] = option(
        "--budget", "dollar target the recommendation must meet", kind=float, bound=POSITIVE)

    # -- surfaces -------------------------------------------------------
    @classmethod
    def build_parser(cls, description: str) -> argparse.ArgumentParser:
        """The CLI: one flag per field, then the telemetry and output flags."""
        parser = argparse.ArgumentParser(prog=f"python -m {cls.command}", description=description)
        for name, (opt, default) in _options(cls).items():
            kwargs = dict(dest=name, help=opt.help, choices=opt.choices)
            if opt.metavar is not None:
                kwargs["metavar"] = opt.metavar
            if opt.kind is not str and not opt.csv:
                kwargs["type"] = opt.kind
            if opt.many:
                kwargs["action"] = "append"
            elif default is MISSING:
                kwargs["required"] = True
            else:
                kwargs["default"] = default
            parser.add_argument(opt.flag, **kwargs)
        add_telemetry_arguments(parser)
        parser.add_argument("--top", type=int, default=10,
                            help="frontier rows in the text table (default: 10)")
        parser.add_argument("--json", action="store_true", dest="as_json",
                            help="emit the plan as JSON instead of a table")
        return parser

    @classmethod
    def from_args(cls, args: argparse.Namespace):
        """The request ``build_parser`` parsed; errors name the flag."""
        options = _options(cls)
        return cls._build(vars(args), lambda name: options[name][0].flag, text=True)

    @classmethod
    def from_body(cls, body: Mapping[str, object]):
        """The request a JSON body spells; errors name the field."""
        options = _options(cls)
        unknown = sorted(name for name in body if name not in options)
        if unknown:
            raise RequestError(
                f"unknown {cls.kind} request field(s) {unknown}; known: {sorted(options)}"
            )
        return cls._build(body, repr, text=False)

    @classmethod
    def _build(cls, values: Mapping[str, object], spell: Callable[[str], str], text: bool):
        kwargs = {}
        for name, (opt, default) in _options(cls).items():
            value = values.get(name)
            if value is not None:
                value = opt.normalize(value, spell(name), text)
            elif default is MISSING:
                raise RequestError(f"{spell(name)} is required")
            else:
                value = default
            kwargs[name] = value
        if kwargs["parallelism"] == "tp" and kwargs["max_tp"] < 2:
            raise RequestError(f"{spell('parallelism')} tp needs {spell('max_tp')} >= 2")
        return cls(**kwargs)

    def normalized(self) -> Dict[str, object]:
        """The canonical JSON form: every field, lists as lists. It is the
        service's ``request`` echo and its coalescing-digest input."""
        return {
            name: list(value) if isinstance(value, tuple) else value
            for name, value in vars(self).items()
        }

    # -- planning -------------------------------------------------------
    def _planner_args(self) -> Dict[str, object]:
        return dict(dataset=self.dataset, epochs=self.epochs,
                    num_queries=self.num_queries, seq_len=self.seq_len)

    def _plan_args(self) -> Dict[str, object]:
        return dict(
            gpus=self.gpu,
            providers=self.provider,
            num_gpus=self.num_gpus,
            interconnects=self.interconnect,
            densities=DENSITIES[self.density],
            batch_sizes=self.batch_size,
            deadline_hours=self.deadline_hours,
            budget_dollars=self.budget_dollars,
            parallelism=self.parallelism,
            max_tp=self.max_tp,
            grad_accums=self.grad_accum,
        )

    def run(self, cache=None, catalog=None, tracer=None) -> Tuple[ClusterPlanner, ClusterPlan]:
        """Plan this request: ``(planner, plan)``. ``None`` arguments take
        the planner's defaults (the process-global cache and tracer, the
        built-in pricing catalog)."""
        planner = ClusterPlanner(self.model, catalog=catalog, cache=cache, tracer=tracer,
                                 **self._planner_args())
        return planner, planner.plan(**self._plan_args())
