"""The pinned ``counters`` name ``benchmarks/e19/layers.py`` imports.

Hot-path counters live on :data:`repro.obs.metrics.process_registry`;
nothing under ``src/`` imports this module.  :data:`counters` answers
the four calls E19 makes, over that registry.  :meth:`enable` and
:meth:`disable` are no-ops: the registry has one flag, shared with the
default panel, and E19 times that panel right after its ``disable()``.
E19 v2 (a) reads the registry directly and deletes this module.
"""

from __future__ import annotations

from repro.obs.metrics import process_registry

__all__ = ["counters"]


class _Counters:
    __slots__ = ("registry",)

    def __init__(self, registry) -> None:
        self.registry = registry

    def reset(self) -> None:
        self.registry.reset()

    def enable(self) -> None:
        """No-op (see the module docstring)."""

    def disable(self) -> None:
        """No-op (see the module docstring)."""

    def get(self, name: str) -> float:
        return self.registry.counter(name)


counters = _Counters(process_registry)
