"""Lazy package exports (PEP 562) shared by every ``repro`` package init.

A package init names its public API per submodule and hands that table to
:func:`export_lazily`.  A public name is imported on first attribute
access, so ``import repro.core`` — or any ``from repro.x.y import z``,
which runs every init above ``y`` — loads no submodule that the caller
does not use.

Resolved names are never cached in the package namespace: every access
reads the submodule's current binding, so a function re-bound in its
defining module (by a tracer or a test double) is seen through the
package as well.
"""

from __future__ import annotations

import sys
from importlib import import_module
from types import ModuleType

__all__ = ["export_lazily"]


class _LazyPackage(ModuleType):
    """A package whose public names win over same-named submodules."""

    def __setattr__(self, name: str, value) -> None:
        # ``import pkg.sub`` binds the submodule on its package; a public
        # name shared with a submodule (``dse.explore``) keeps meaning the
        # function or class, as it did when the inits imported eagerly
        if name in self._lazy_exports and isinstance(value, ModuleType):
            return
        super().__setattr__(name, value)


def export_lazily(package: str, exports: dict[str, tuple[str, ...]]) -> list[str]:
    """Serve *exports* (``{submodule: public names}``) lazily from *package*.

    Installs the package's module ``__getattr__`` and ``__dir__`` and
    returns the public names in table order, for its ``__all__``.
    """
    names = {name: sub for sub, members in exports.items() for name in members}
    module = sys.modules[package]

    def __getattr__(name: str):
        try:
            submodule = f"{package}.{names[name]}"
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        return getattr(import_module(submodule), name)

    def __dir__() -> list[str]:
        return sorted(module.__dict__.keys() | names.keys())

    module.__dict__.update(
        __getattr__=__getattr__, __dir__=__dir__, _lazy_exports=names
    )
    module.__class__ = _LazyPackage
    return list(names)
