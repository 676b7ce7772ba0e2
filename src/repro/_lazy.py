"""Lazy package exports (PEP 562 module ``__getattr__`` and ``__dir__``).

A package ``__init__`` that only re-exports names hands :func:`lazy_exports`
a table of ``module -> names`` and keeps the same ``from ... import``
lines under ``if TYPE_CHECKING:``, so type checkers and the lint call
graph still see every re-export.  A name's module is imported on its
first attribute access (``from pkg import name`` included) and the value
is cached in the package globals, so later lookups never reach
``__getattr__``.  A submodule that is not loaded yet is imported on
attribute access too, so ``repro.faults.campaign`` works after a bare
``import repro``.
"""

from __future__ import annotations

import importlib
import importlib.util
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str, namespace: Dict[str, Any], table: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The ``__getattr__`` and ``__dir__`` of ``package`` for ``table``.

    A table entry whose module is ``package`` itself re-exports the
    submodules it names.
    """
    origins = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = origins.get(name)
        if module is not None and module != package:
            value = getattr(importlib.import_module(module), name)
            namespace[name] = value
            return value
        submodule = f"{package}.{name}"
        if module is None and (
            name.startswith("_") or importlib.util.find_spec(submodule) is None
        ):
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        return importlib.import_module(submodule)

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(origins))

    return __getattr__, __dir__
