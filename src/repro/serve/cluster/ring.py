"""Consistent-hash ring: document keys → worker names.

The supervisor routes every document key to exactly one worker (its
primary) and, with replication, to the next distinct workers clockwise
(its replicas).  A process collection's worker set is fixed when it
opens, so the ring is built once and never changes; it stays a ring
rather than ``hash(key) % N`` for two reasons:

* placement is stable across processes and runs: SHA-1 of the key, not
  :func:`hash`, which is salted per process and would reroute every
  document on restart;
* placement is balanced: each worker contributes
  :data:`VIRTUAL_POINTS` virtual points (SHA-1 of ``"name#i"``) on a
  2^64 circle, and a key routes to the first worker point at or past
  its own hash.  The same 64-bit SHA-1 point taken modulo 2 splits
  E19's eight ``cluster_mixed`` documents 6 / 2 across two workers;
  the ring splits them 4 / 4.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right

from repro.errors import WarehouseError
from repro.serve.pool import check_count

__all__ = ["HashRing"]

#: Virtual points per worker on the circle.
VIRTUAL_POINTS = 64


def _point(data: str) -> int:
    return int.from_bytes(hashlib.sha1(data.encode("utf-8")).digest()[:8], "big")


class HashRing:
    """A consistent-hash ring over worker names.

    Built before a collection serves and only read afterwards, so
    concurrent lookups need no lock.
    """

    __slots__ = ("_nodes", "_points", "_owners")

    def __init__(self, nodes: tuple[str, ...] | list[str] = ()) -> None:
        self._nodes: set[str] = set()
        self._points: list[int] = []
        self._owners: dict[int, str] = {}
        for node in nodes:
            self.add(node)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    def add(self, node: str) -> None:
        """Add a worker's virtual points (idempotent-hostile: re-adding
        an existing node raises — a double-add hides a routing bug)."""
        if node in self._nodes:
            raise WarehouseError(f"ring already contains {node!r}")
        self._nodes.add(node)
        for i in range(VIRTUAL_POINTS):
            point = _point(f"{node}#{i}")
            # SHA-1 collisions across 64-bit prefixes are effectively
            # impossible; keep the first owner if one ever happens.
            if point not in self._owners:
                self._owners[point] = node
                self._points.append(point)
        self._points.sort()

    def route(self, key: str) -> str:
        """The worker owning *key* (first point clockwise from its hash)."""
        return self.successors(key, 1)[0]

    def successors(self, key: str, n: int) -> list[str]:
        """The first *n* distinct workers clockwise from *key*'s hash.

        Element 0 is the primary (what :meth:`route` returns); the rest
        is the replica set.  Capped at the worker count — asking for
        more successors than workers returns them all, so a
        replication factor above the cluster size degrades gracefully
        instead of failing placement.
        """
        if not self._points:
            raise WarehouseError("cannot route on an empty ring")
        check_count("successor count", n)
        wanted = min(n, len(self._nodes))
        start = bisect_right(self._points, _point(key))
        owners: list[str] = []
        for step in range(len(self._points)):
            point = self._points[(start + step) % len(self._points)]
            owner = self._owners[point]
            if owner not in owners:
                owners.append(owner)
                if len(owners) == wanted:
                    break
        return owners

    def placement(self, keys, n: int) -> dict[str, list[str]]:
        """Replica placement for many keys: ``{key: [primary, *replicas]}``."""
        return {key: self.successors(key, n) for key in keys}

    def __repr__(self) -> str:
        return f"HashRing({sorted(self._nodes)!r})"
