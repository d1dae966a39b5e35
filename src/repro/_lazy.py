"""Lazy module namespaces (PEP 562) — the ``lazy_loader`` idiom of
Scientific Python SPEC 1.

A package ``__init__`` names the submodule that defines each of its public
names; the submodule is imported the first time the name is read.  So
``import repro.server.daemon`` pays for the modules the daemon executes,
not for every sibling its packages re-export::

    __getattr__, __dir__, __all__ = attach(
        __name__, submodules=["reflect"], submod_attrs={".lang.system": ["TycoonSystem"]}
    )

Inside ``src`` a module imports a name from the submodule that defines it,
never through a package: these tables serve ``from repro import
TycoonSystem`` and ``repro.reflect.optimize_function(...)``.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Iterable, Mapping

__all__ = ["attach"]


def attach(
    module_name: str,
    submodules: Iterable[str] = (),
    submod_attrs: Mapping[str, Iterable[str]] | None = None,
) -> tuple[Callable[[str], object], Callable[[], list[str]], list[str]]:
    """``(__getattr__, __dir__, __all__)`` for the module ``module_name``.

    ``submodules`` are names bound to a submodule of the same name;
    ``submod_attrs`` maps a module path — relative to the module's package
    (``".heap"``) — to the names of it that ``module_name`` exposes.  A
    name is imported on first read and then bound in the module, so each
    is resolved once; a binding already there wins.
    """
    module = sys.modules[module_name]
    modules = {name: f".{name}" for name in submodules}
    origin = dict(modules)
    for path, names in (submod_attrs or {}).items():
        origin.update((name, path) for name in names)

    def __getattr__(name: str) -> object:
        path = origin.get(name)
        if path is None:
            raise AttributeError(f"module {module_name!r} has no attribute {name!r}")
        target = importlib.import_module(path, module.__package__)
        value = target if name in modules else getattr(target, name)
        setattr(module, name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(module)) | set(origin))

    return __getattr__, __dir__, sorted(origin)
