"""The repo-specific contract rules.

Each rule is one hand-enforced invariant from the ROADMAP contracts,
promoted to a machine check. The ``rationale`` strings double as the
``--list-rules`` documentation and name the contract each rule mirrors.
"""

from __future__ import annotations

import ast
from collections import deque
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from .framework import FileContext, Finding, Rule, rule

# ---------------------------------------------------------------------------
# Import resolution (shared by several rules)
# ---------------------------------------------------------------------------


class ImportMap:
    """Resolves local names back to their dotted import origins, so
    ``np.random.default_rng`` is recognized however numpy was imported
    (``import numpy as np``, ``from numpy import random``, ...).
    Relative imports resolve against the file's module name."""

    def __init__(self, ctx: FileContext) -> None:
        self.names: Dict[str, str] = {}
        parts = ctx.module.split(".") if ctx.module else []
        is_package = ctx.path.endswith("__init__.py")
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self.names[alias.asname] = alias.name
                    else:
                        root = alias.name.split(".")[0]
                        self.names[root] = root
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    # ``from ..x import y`` in repro.a.b → base repro;
                    # a package __init__ counts as one level shallower.
                    keep = len(parts) - node.level + (1 if is_package else 0)
                    base = parts[: max(0, keep)]
                else:
                    base = []
                origin = ".".join(base + (node.module.split(".") if node.module else []))
                for alias in node.names:
                    local = alias.asname or alias.name
                    self.names[local] = f"{origin}.{alias.name}" if origin else alias.name

    def resolve(self, node: ast.AST) -> str:
        """Dotted origin of a Name/Attribute chain (root substituted
        through the import map), or ``""`` for anything else."""
        chain: List[str] = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return ""
        chain.append(self.names.get(node.id, node.id))
        return ".".join(reversed(chain))

    def imported_modules(
        self, ctx: FileContext, module_level: bool = False
    ) -> List[Tuple[str, ast.AST]]:
        """Every imported module as its resolved dotted name + node.
        ``module_level`` keeps only the imports that run when the module
        is imported: none inside a function body."""
        parts = ctx.module.split(".") if ctx.module else []
        is_package = ctx.path.endswith("__init__.py")
        out: List[Tuple[str, ast.AST]] = []
        for node in _walk_module_level(ctx.tree) if module_level else ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    out.append((alias.name, node))
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    keep = len(parts) - node.level + (1 if is_package else 0)
                    base = parts[: max(0, keep)]
                else:
                    base = []
                origin = ".".join(base + (node.module.split(".") if node.module else []))
                for alias in node.names:
                    # ``from pkg import name`` may bind a submodule or an
                    # object; report both spellings and let the caller's
                    # prefix match decide.
                    out.append((f"{origin}.{alias.name}" if origin else alias.name, node))
                if origin:
                    out.append((origin, node))
        return out


def _is_type_checking(test: ast.AST) -> bool:
    """``TYPE_CHECKING`` or ``typing.TYPE_CHECKING``: false at run time."""
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    return (
        isinstance(test, ast.Attribute)
        and test.attr == "TYPE_CHECKING"
        and isinstance(test.value, ast.Name)
        and test.value.id == "typing"
    )


def _walk_module_level(tree: ast.AST) -> Iterator[ast.AST]:
    """``ast.walk`` (same breadth-first order) that never enters a
    function or lambda, nor the body of an ``if TYPE_CHECKING:`` (its
    ``else:`` runs): the nodes executed when the module is imported."""
    todo = deque([tree])
    while todo:
        node = todo.popleft()
        yield node
        if isinstance(node, ast.If) and _is_type_checking(node.test):
            children = node.orelse
        else:
            children = ast.iter_child_nodes(node)
        todo.extend(
            child for child in children
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        )


def _module_in(module: str, prefixes: Iterable[str]) -> bool:
    return any(module == p or module.startswith(p + ".") for p in prefixes)


# ---------------------------------------------------------------------------
# 1. no-wall-clock
# ---------------------------------------------------------------------------

WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: The measurement layer: the only modules allowed to read the clock.
#: ``repro.service`` joins it because a server legitimately reads the
#: clock — pricing-catalog TTLs, stale-while-revalidate age checks, run
#: store ingest timestamps — while the *plans it serves* stay clock-free
#: (the engine underneath is still linted).
WALL_CLOCK_ALLOWED = (
    "repro.telemetry",
    "repro.profiling",
    "repro.training.trainer",
    "repro.service",
)


@rule
class NoWallClock(Rule):
    id = "no-wall-clock"
    summary = "no wall-clock reads outside the measurement layer"
    rationale = (
        "Deterministic paths must take timestamps as arguments: the run "
        "store 'never reads the clock' (run ids are functions of their "
        "inputs, so tests and replays are deterministic), and results "
        "must be byte-identical from run to run. Only the "
        "measurement layer (telemetry, profiling, training.trainer) may "
        "call time.time()/perf_counter()/datetime.now()."
    )

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        if _module_in(ctx.module, WALL_CLOCK_ALLOWED):
            return []
        imports = ImportMap(ctx)
        findings = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                name = imports.resolve(node.func)
                if name in WALL_CLOCK_CALLS:
                    findings.append(
                        ctx.finding(
                            node,
                            self.id,
                            f"wall-clock read {name}() outside the measurement "
                            "layer; deterministic paths take timestamps as "
                            "arguments (run-store contract)",
                        )
                    )
        return findings


# ---------------------------------------------------------------------------
# 2. no-unseeded-rng
# ---------------------------------------------------------------------------

#: stdlib ``random`` module-level functions — process-global hidden state.
STDLIB_RANDOM_FNS = frozenset(
    {
        "betavariate",
        "choice",
        "choices",
        "gauss",
        "getrandbits",
        "normalvariate",
        "randint",
        "random",
        "randrange",
        "sample",
        "seed",
        "shuffle",
        "uniform",
    }
)

#: Legacy numpy global-state RNG entry points (np.random.seed and friends).
NUMPY_GLOBAL_RNG_FNS = frozenset(
    {
        "seed",
        "rand",
        "randn",
        "randint",
        "random",
        "random_sample",
        "uniform",
        "normal",
        "standard_normal",
        "choice",
        "shuffle",
        "permutation",
    }
)


@rule
class NoUnseededRng(Rule):
    id = "no-unseeded-rng"
    summary = "no unseeded or global-state random generators"
    rationale = (
        "Reproducible-by-default: np.random.default_rng() with no seed "
        "draws fresh OS entropy, so two runs silently diverge — pass an "
        "explicit seed, thread an injected generator, or fall back via "
        "repro.rng.resolve_rng. The stdlib random module and legacy "
        "np.random.* functions share hidden process-global state and are "
        "banned outright (cf. the seeded PCG64-per-candidate contract in "
        "the spot Monte Carlo)."
    )

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        imports = ImportMap(ctx)
        findings = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = imports.resolve(node.func)
            if name == "numpy.random.default_rng":
                if not node.args and not node.keywords:
                    findings.append(
                        ctx.finding(
                            node,
                            self.id,
                            "np.random.default_rng() without a seed — pass a "
                            "seed/generator or use repro.rng.resolve_rng "
                            "(reproducible-by-default contract)",
                        )
                    )
            elif name.startswith("numpy.random."):
                fn = name[len("numpy.random.") :]
                if fn in NUMPY_GLOBAL_RNG_FNS:
                    findings.append(
                        ctx.finding(
                            node,
                            self.id,
                            f"legacy global-state RNG np.random.{fn}() — use an "
                            "explicit np.random.Generator",
                        )
                    )
            elif name.startswith("random."):
                fn = name[len("random.") :]
                if fn in STDLIB_RANDOM_FNS:
                    findings.append(
                        ctx.finding(
                            node,
                            self.id,
                            f"stdlib random.{fn}() uses unseeded process-global "
                            "state — use an injected np.random.Generator",
                        )
                    )
        return findings


# ---------------------------------------------------------------------------
# 3. no-builtin-hash-persistence
# ---------------------------------------------------------------------------


@rule
class NoBuiltinHashPersistence(Rule):
    id = "no-builtin-hash-persistence"
    summary = "builtin hash() only inside __hash__"
    rationale = (
        "hash() is salted per interpreter process (PYTHONHASHSEED), so "
        "any key, digest, or filename derived from it breaks across "
        "runs — the bug class Scenario.digest() (sha256 over canonical "
        "text) was built to kill, and what keeps run-manifest grid "
        "digests stable between processes. Builtin hash() is "
        "legitimate only when implementing __hash__ for in-process "
        "dict/set use."
    )

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        findings: List[Finding] = []
        rule_id = self.id
        make = ctx.finding

        class Visitor(ast.NodeVisitor):
            def __init__(self) -> None:
                self.stack: List[str] = []

            def _visit_func(self, node) -> None:
                self.stack.append(node.name)
                self.generic_visit(node)
                self.stack.pop()

            visit_FunctionDef = _visit_func
            visit_AsyncFunctionDef = _visit_func

            def visit_Call(self, node: ast.Call) -> None:
                if isinstance(node.func, ast.Name) and node.func.id == "hash":
                    if not self.stack or self.stack[-1] != "__hash__":
                        findings.append(
                            make(
                                node,
                                rule_id,
                                "builtin hash() outside __hash__ is salted per "
                                "process — use sha256 over canonical text for "
                                "persisted keys/digests/filenames "
                                "(Scenario.digest contract)",
                            )
                        )
                self.generic_visit(node)

        Visitor().visit(ctx.tree)
        return findings


# ---------------------------------------------------------------------------
# 4. atomic-writes
# ---------------------------------------------------------------------------

#: Persistence layers whose on-disk artifacts other processes read
#: concurrently; everything they write must be write-then-rename.
ATOMIC_WRITE_SCOPE = ("repro.scenarios", "repro.telemetry")

_PATH_WRITERS = frozenset({"write_text", "write_bytes"})


def _write_mode(node: ast.Call) -> Optional[str]:
    """The mode-string literal of an ``open()`` call, or None when the
    call has no literal mode (default ``"r"`` returns ``"r"``)."""
    mode_node: Optional[ast.AST] = None
    if len(node.args) >= 2:
        mode_node = node.args[1]
    for keyword in node.keywords:
        if keyword.arg == "mode":
            mode_node = keyword.value
    if mode_node is None:
        return "r"
    if isinstance(mode_node, ast.Constant) and isinstance(mode_node.value, str):
        return mode_node.value
    return None


@rule
class AtomicWrites(Rule):
    id = "atomic-writes"
    summary = "persistence-layer writes go through temp-file + os.replace"
    rationale = (
        "RunStore/telemetry-export contract: concurrent readers (and "
        "crashed writers) must only ever see complete entries, so every "
        "truncating write under repro.scenarios / repro.telemetry uses "
        "the temp-file + os.replace idiom. A bare open(path, 'w') that "
        "dies mid-write leaves a truncated artifact the corruption-"
        "tolerant readers then count as corrupt. Append-only files "
        "(mode 'a', e.g. the run-store index) are their own contract "
        "and stay allowed."
    )

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        if not _module_in(ctx.module, ATOMIC_WRITE_SCOPE):
            return []
        imports = ImportMap(ctx)

        # Calls blessed by an os.replace in the same (or an enclosing)
        # function: the write lands on a temp name and is renamed.
        blessed: Set[int] = set()
        for func in ast.walk(ctx.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            has_replace = any(
                isinstance(sub, ast.Call)
                and imports.resolve(sub.func) == "os.replace"
                for sub in ast.walk(func)
            )
            if has_replace:
                blessed.update(id(sub) for sub in ast.walk(func))

        findings = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call) or id(node) in blessed:
                continue
            name = imports.resolve(node.func)
            if name in ("open", "io.open"):
                mode = _write_mode(node)
                if mode is not None and not ("w" in mode or "x" in mode):
                    continue
                spelled = mode if mode is not None else "<dynamic>"
                findings.append(
                    ctx.finding(
                        node,
                        self.id,
                        f"non-atomic write open(..., {spelled!r}) with no "
                        "os.replace in the enclosing function — use the "
                        "temp-file + os.replace idiom (RunStore/"
                        "telemetry-export contract)",
                    )
                )
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _PATH_WRITERS
            ):
                findings.append(
                    ctx.finding(
                        node,
                        self.id,
                        f".{node.func.attr}() truncates in place with no "
                        "os.replace in the enclosing function — use the "
                        "temp-file + os.replace idiom (RunStore/"
                        "telemetry-export contract)",
                    )
                )
        return findings


# ---------------------------------------------------------------------------
# 5. lock-discipline
# ---------------------------------------------------------------------------

#: Method calls that mutate their receiver in place.
MUTATING_METHODS = frozenset(
    {
        "add",
        "append",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popitem",
        "remove",
        "setdefault",
        "update",
    }
)

_CONSTRUCTORS = ("__init__", "__new__", "__post_init__")


def _self_attr(node: ast.AST) -> Optional[str]:
    """``attr`` when ``node`` is ``self.attr`` (possibly subscripted)."""
    if isinstance(node, ast.Subscript):
        node = node.value
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _mutations(node: ast.AST) -> List[Tuple[str, ast.AST]]:
    """(attr, node) for each ``self.attr`` mutated by this statement."""
    out: List[Tuple[str, ast.AST]] = []
    if isinstance(node, ast.Assign):
        targets: List[ast.AST] = []
        for target in node.targets:
            targets.extend(target.elts if isinstance(target, ast.Tuple) else [target])
        for target in targets:
            attr = _self_attr(target)
            if attr is not None:
                out.append((attr, node))
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        attr = _self_attr(node.target)
        if attr is not None:
            out.append((attr, node))
    elif isinstance(node, ast.Delete):
        for target in node.targets:
            attr = _self_attr(target)
            if attr is not None:
                out.append((attr, node))
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        if node.func.attr in MUTATING_METHODS:
            attr = _self_attr(node.func.value)
            if attr is not None:
                out.append((attr, node))
    return out


@rule
class LockDiscipline(Rule):
    id = "lock-discipline"
    summary = "lock-guarded shared state is only mutated under its lock"
    rationale = (
        "Tracer/MetricsRegistry/SimulationCache share state across "
        "sweep threads; their records, instrument tables and trace maps "
        "are mutated only inside 'with self._lock:'. A class that takes "
        "a threading.Lock and guards an attribute somewhere must guard "
        "it everywhere (outside __init__, where the object is not yet "
        "shared) — a single unlocked append is the race that corrupts "
        "span order or drops counter increments."
    )

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        imports = ImportMap(ctx)
        findings: List[Finding] = []
        for cls in [n for n in ast.walk(ctx.tree) if isinstance(n, ast.ClassDef)]:
            lock_attrs = {
                attr
                for node in ast.walk(cls)
                if isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Call)
                and imports.resolve(node.value.func)
                in ("threading.Lock", "threading.RLock")
                for target in node.targets
                if (attr := _self_attr(target)) is not None
            }
            if not lock_attrs:
                continue
            # (attr, node, locked, method) for every self-mutation in the class.
            sites: List[Tuple[str, ast.AST, bool, str]] = []

            class Visitor(ast.NodeVisitor):
                def __init__(self, method: str) -> None:
                    self.method = method
                    self.depth = 0

                def visit_With(self, node: ast.With) -> None:
                    locked = any(
                        _self_attr(item.context_expr) in lock_attrs
                        for item in node.items
                    )
                    self.depth += 1 if locked else 0
                    self.generic_visit(node)
                    self.depth -= 1 if locked else 0

                def generic_visit(self, node: ast.AST) -> None:
                    for attr, site in _mutations(node):
                        sites.append((attr, site, self.depth > 0, self.method))
                    super().generic_visit(node)

            for method in cls.body:
                if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    Visitor(method.name).visit(method)

            guarded = {attr for attr, _, locked, _ in sites if locked}
            for attr, site, locked, method in sites:
                if locked or method in _CONSTRUCTORS or attr not in guarded:
                    continue
                lock_name = sorted(lock_attrs)[0]
                findings.append(
                    ctx.finding(
                        site,
                        self.id,
                        f"{cls.name}.{method} mutates self.{attr} outside "
                        f"'with self.{lock_name}:' but {cls.name} guards "
                        f"self.{attr} with that lock elsewhere "
                        "(shared-state discipline)",
                    )
                )
        return findings


# ---------------------------------------------------------------------------
# 6. import-layering
# ---------------------------------------------------------------------------

#: Substrate layers: importable with zero observability/CLI machinery.
LOW_LAYERS = (
    "repro.core",
    "repro.gpu",
    "repro.nn",
    "repro.tensor",
    "repro.quant",
    "repro.memory",
    "repro.models",
    "repro.optim",
    "repro.data",
)

#: What the substrate must never depend on: observability, experiment
#: drivers, CLI entry points, and this linter.
HIGH_LAYERS = (
    "repro.telemetry",
    "repro.experiments",
    "repro.devtools",
    "repro.cluster.plan",
    "repro.spot.plan",
    "repro.service",
)

#: What the scenario engine must never depend on: the experiments,
#: planners and service that run their sweeps through it.
SCENARIO_CONSUMERS = (
    "repro.experiments",
    "repro.cluster",
    "repro.spot",
    "repro.service",
)

#: What a plan runs on: the scenario engine, the analytic substrates, the
#: planners and the service.
PLANNING_LAYERS = (
    "repro.scenarios",
    "repro.gpu",
    "repro.core",
    "repro.memory",
    "repro.cloud",
    "repro.cluster",
    "repro.spot",
    "repro.service",
)

#: What no plan runs: the training stack, the dataset builders, the
#: trainable models and telemetry's export, persistence and consume
#: side. A planning module may still import one inside the function that
#: uses it.
PLAN_UNUSED = (
    "repro.nn",
    "repro.tensor",
    "repro.quant",
    "repro.optim",
    "repro.training",
    "repro.data.datasets",
    "repro.data.dataloader",
    "repro.data.tokenizer",
    "repro.data.world",
    "repro.data.distributions",
    "repro.models.mixtral",
    "repro.models.blackmamba",
    "repro.telemetry.runstore",
    "repro.telemetry.analyze",
    "repro.telemetry.compare",
    "repro.telemetry.cli",
    "repro.telemetry.export",
    "repro.telemetry.manifest",
    "repro.telemetry.schema",
    "repro.core.batchsize",
    "repro.core.fitting",
    "repro.core.throughput",
)

#: (low, high, why, module_level): no module under a ``low`` prefix
#: imports one under a ``high`` prefix, unless the importer is itself
#: under a ``high`` prefix (the Eq. 1/Eq. 2 fit modules import each
#: other). With ``module_level`` only the imports that run at import
#: time count; otherwise an import inside a function counts too.
LAYER_PAIRS = (
    (LOW_LAYERS, HIGH_LAYERS,
     "substrates must stay importable without telemetry/experiments/CLI layers",
     False),
    (("repro.scenarios",), SCENARIO_CONSUMERS,
     "the scenario engine must stay importable without the experiments, "
     "planners and service built on it",
     False),
    (PLANNING_LAYERS, PLAN_UNUSED,
     "the plan CLIs and the service must start without loading code no "
     "plan runs; import it inside the function that needs it",
     True),
)


@rule
class ImportLayering(Rule):
    id = "import-layering"
    summary = "lower layers never import the layers built on them"
    rationale = (
        "The dependency direction the subsystems already follow: "
        "core/gpu/nn (and the other substrates) are leaf libraries that "
        "the scenario engine, planners and telemetry build on, and the "
        "scenario engine in turn sits under the experiments, the cluster "
        "and spot planners and the service. A substrate importing "
        "repro.telemetry or an experiment/CLI module, or the engine "
        "importing one of its consumers (even inside a function), inverts "
        "the layering, drags the upper layer into every consumer of the "
        "lower one, and invites import cycles. Separately, the planning "
        "layers (the engine, gpu, core, memory, cloud, cluster, spot and "
        "service) never import the training stack, the dataset builders, "
        "the trainable models, the Eq. 1/Eq. 2 fit code or telemetry's "
        "cli/export/manifest/runstore/analyze/compare at module level, so "
        "the plan CLIs and the service start without them; a function that "
        "needs one imports it inside. A module on the far side of a pair "
        "may import its peers."
    )

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        findings = []
        for low, high, why, module_level in LAYER_PAIRS:
            if not _module_in(ctx.module, low) or _module_in(ctx.module, high):
                continue
            # One finding per import statement: ``from repro.telemetry
            # import Tracer`` resolves to both the module and the bound
            # name — keep the shortest matching target per node.
            per_node: Dict[Tuple[int, str], Tuple[str, ast.AST]] = {}
            for target, node in ImportMap(ctx).imported_modules(ctx, module_level):
                if not _module_in(target, high):
                    continue
                key = (id(node), ".".join(target.split(".")[:2]))
                held = per_node.get(key)
                if held is None or len(target) < len(held[0]):
                    per_node[key] = (target, node)
            layer = next(p for p in low if _module_in(ctx.module, (p,)))
            for target, node in per_node.values():
                findings.append(
                    ctx.finding(
                        node,
                        self.id,
                        f"layer violation: {ctx.module} ({layer}) imports "
                        f"{target} — {why}",
                    )
                )
        return findings
