"""Lazy package exports: a package names its public surface in one map.

Every package ``__init__`` hands :func:`lazy_exports` a map from each
submodule to the public names it provides.  Importing the package then
loads none of its submodules: a name's submodule is imported the first
time the name is read (PEP 562 module ``__getattr__``), and the value is
cached in the package namespace, so later reads are plain attribute
lookups.  A simulation therefore loads only the modules it runs, and a
TCP node process none of the simulator.
"""

from __future__ import annotations

import importlib
import sys
from types import ModuleType
from typing import Dict, List, Sequence


class _Package(ModuleType):
    """A package whose exports win over its submodules of the same name.

    The import system binds every loaded submodule as an attribute of its
    package.  ``repro.topology`` exports the function ``hierarchical``
    from the submodule ``hierarchical``; without this guard, whichever
    import loaded that submodule first would leave the package attribute
    pointing at the module instead of the function.
    """

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, ModuleType) and name in self.__dict__.get("__all__", ()):
            return  # the submodule stays reachable through sys.modules
        super().__setattr__(name, value)


def lazy_exports(package: str, modules: Dict[str, Sequence[str]]) -> List[str]:
    """Export ``modules``' names from ``package`` lazily; return ``__all__``.

    ``modules`` maps a module path relative to ``package`` (``".graph"``,
    ``"..port.rng"``) to the names read from it.  Installs ``__getattr__``
    and ``__dir__`` in the package; the caller assigns the returned list
    to ``__all__``.
    """
    where = {name: module for module, names in modules.items() for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str):
        module = where.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(where))

    namespace["__getattr__"] = __getattr__
    namespace["__dir__"] = __dir__
    sys.modules[package].__class__ = _Package
    return list(where)
