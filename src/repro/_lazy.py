"""PEP 562 re-exports for package ``__init__`` modules.

A package states what it re-exports and from which submodule; a
submodule is imported when one of its names is first read.  Importing the
package, or one of its submodules, then no longer imports every sibling,
so a process loads only the modules it uses.
"""

from __future__ import annotations

import importlib
import sys


def lazy_exports(package: str, exports: "dict[str, tuple[str, ...]]"):
    """The module ``__getattr__`` of ``package``.  ``exports`` maps each
    submodule to the names the package re-exports from it."""
    home = {
        name: submodule
        for submodule, names in exports.items()
        for name in names
    }

    def __getattr__(name: str):
        submodule = home.get(name)
        if submodule is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(f"{package}.{submodule}"), name)
        # From now on a plain module attribute: this runs once per name.
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__
