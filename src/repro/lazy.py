"""Package attributes resolved on first access: one rule for the repo.

A package ``__init__`` that re-exports its whole surface eagerly makes
every importer pay for every submodule. The plan CLIs and the service
read a few names of ``repro.models``, ``repro.data`` and
``repro.telemetry``, and would otherwise load the autograd stack, the
dataset builders and the telemetry run store, none of which a plan runs.
:func:`lazy_exports` builds the module-level ``__getattr__`` (PEP 562)
and ``__dir__`` that resolve such names when they are first read::

    __getattr__, __dir__ = lazy_exports(globals(), {"MixtralModel": ".mixtral"})

A resolved name is stored in the package namespace, so each is looked up
once. ``from package import name`` and ``from package import *`` work
unchanged.
"""

from __future__ import annotations

from importlib import import_module
from typing import Callable, Dict, Iterable, List, MutableMapping, Tuple


def lazy_exports(
    namespace: MutableMapping[str, object],
    names: Dict[str, str],
    submodules: Iterable[str] = (),
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for the package whose ``globals()`` is
    ``namespace``: each key of ``names`` resolves from the relative
    submodule it maps to, and each of ``submodules`` resolves to that
    submodule itself."""
    package = namespace["__name__"]
    submodules = frozenset(submodules)

    def __getattr__(name: str) -> object:
        if name in submodules:
            return import_module(f".{name}", package)
        module = names.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(names) | submodules)

    return __getattr__, __dir__
