"""Lazy re-exports for the package ``__init__`` files (PEP 562).

A package lists its public names in an export table — public name -> the
module defining it — and takes its module-level ``__getattr__`` and
``__dir__`` from :func:`lazy_exports`.  A name is imported on first access
and then cached in the package namespace, so importing the package loads
none of the modules it re-exports: a process pays only for the layers it
touches (a spawned pool worker never loads the coordinator side, an ingest
front that never builds an :class:`~repro.ingest.AsyncRepairService` never
loads asyncio).
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Mapping


def lazy_exports(package: str, exports: Mapping[str, str]
                 ) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """The ``(__getattr__, __dir__)`` pair resolving ``exports`` for the
    package named ``package``.

    A name that maps to its own submodule (``"codec":
    "repro.durability.codec"``) resolves to that submodule; any other name
    to the attribute of that name in its module.
    """

    def __getattr__(name: str):
        module_name = exports.get(name)
        if module_name is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module = importlib.import_module(module_name)
        value = module if module_name == f"{package}.{name}" else getattr(module, name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        namespace = vars(sys.modules[package])
        return sorted(set(namespace) | set(namespace.get("__all__", ())))

    return __getattr__, __dir__
