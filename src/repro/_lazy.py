"""Lazy package re-exports (PEP 562), shared by ``repro`` and ``repro.obs``:
names resolve on first access, so ``import repro.core.runner`` -- all a
solve needs -- does not execute the tuner, the experiments and the whole
telemetry stack in every process."""

from __future__ import annotations

import importlib


def lazy_exports(namespace: dict, exports: dict[str, str]) -> tuple:
    """``(__getattr__, __dir__)`` for the package whose globals are
    ``namespace``: ``exports`` maps a re-exported name to the sub-module
    that defines it; any other attribute is tried as a sub-module, so
    ``package.submodule`` keeps working without an eager import."""
    package = namespace["__name__"]

    def __getattr__(name: str):
        target = f"{package}.{exports.get(name, name)}"
        try:
            module = importlib.import_module(target)
        except ModuleNotFoundError as exc:
            if exc.name != target:  # a real missing dependency further down
                raise
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        value = namespace[name] = getattr(module, name) if name in exports else module
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *namespace["__all__"]})

    return __getattr__, __dir__
