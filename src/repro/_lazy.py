"""Lazy package namespaces (PEP 562).

Every package ``__init__`` in :mod:`repro` (except :mod:`repro.engine`)
declares its exports as one table, public name → the module that
defines it (relative to the package), and hands the table to
:func:`lazy_exports`.  Nothing behind a name is imported until the name
is first read; the value is then stored in the package namespace, so
later reads are plain attribute lookups.  ``__all__`` is the table's
keys, so ``from package import *`` resolves every export as before.

This keeps a worker process (``python -m repro.worker``) from paying for
the whole package: unpickling a ``repro.core.bdm`` class imports
``repro.core`` and ``repro.core.bdm``'s own imports, nothing else.

:mod:`repro.engine` stays eager: its backends register themselves in
``BACKENDS`` when their modules are imported.
"""

from __future__ import annotations

import importlib
import sys
from types import ModuleType
from typing import Any, Callable, Mapping


class _LazyPackage(ModuleType):
    """A package whose exports are never replaced by its submodules.

    The import system binds each submodule it loads on the package.  An
    export named like the submodule that defines it
    (``repro.core.sorted_neighborhood``, ``repro.mapreduce.shuffle``)
    must stay the export whichever is imported first, as it did when the
    package imported its exports eagerly.
    """

    def __setattr__(self, name: str, value: Any) -> None:
        if (
            isinstance(value, ModuleType)
            and value.__name__ == f"{self.__name__}.{name}"
            and name in self.__dict__.get("__all__", ())
        ):
            return
        super().__setattr__(name, value)


def lazy_exports(
    package: str, exports: Mapping[str, str]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """The module-level ``__getattr__`` and ``__dir__`` of ``package``.

    ``exports`` maps each public name to the module defining it, relative
    to ``package``.  A direct submodule named in ``exports`` also
    resolves as an attribute on first access, as it did when the package
    imported it eagerly.  ``package`` becomes a :class:`_LazyPackage`.
    """
    module = sys.modules[package]
    module.__class__ = _LazyPackage
    namespace = vars(module)
    submodules = {
        source[1:] for source in exports.values() if source.count(".") == 1
    }

    def __getattr__(name: str) -> Any:
        if name in exports:
            value = getattr(importlib.import_module(exports[name], package), name)
        elif name in submodules:
            value = importlib.import_module(f".{name}", package)
        else:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | exports.keys())

    return __getattr__, __dir__
