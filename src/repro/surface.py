"""Lazy package surfaces (PEP 562).

A package whose ``__init__`` imports every module it re-exports loads them
all in every session that imports it, whatever that session then calls.
:func:`lazy_surface` gives a package a module-level ``__getattr__`` that
imports the module behind a public name on its first access instead, so
a session loads only the stages it uses.
"""

from __future__ import annotations

import sys
from importlib import import_module


def lazy_surface(package: str, exports: dict[str, str]):
    """``(__getattr__, __dir__)`` for *package*, whose public names live in
    the modules *exports* maps them to.  A name is resolved once and then
    bound in the package's namespace like an eager import would."""
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str):
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        value = getattr(import_module(module), name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
