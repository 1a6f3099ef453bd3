"""Package re-exports that import their submodule on first use (PEP 562).

A package ``__init__`` names which submodule defines each public name and
binds what :func:`lazy_exports` returns::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        "model": ["FileAllocationProblem"],
        "kkt": ["check_kkt", "optimal_allocation"],
    })

Importing the package then imports none of its submodules.  The first
``package.check_kkt`` imports ``package.kkt`` and stores the value in the
package's namespace, so every later lookup is a plain attribute read that
never reaches ``__getattr__``.

A name outside the table raises :class:`AttributeError`.  That is what
``hasattr`` and pickle expect, and what makes ``from package import
submodule`` fall back to importing the submodule.

A re-exported name must not equal the name of one of the package's own
submodules: importing that submodule sets the package attribute to the
module, and ``__getattr__`` is never asked again.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Sequence, Tuple


def lazy_exports(
    package: str, table: Dict[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]], List[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package``, which re-exports
    each name of ``table[submodule]`` from ``package.submodule``."""
    owner = {name: f"{package}.{module}" for module, names in table.items() for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> object:
        if name not in owner:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(owner[name]), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(owner))

    return __getattr__, __dir__, sorted(owner)
