"""A span recorder for the traced pass — in the benchmark, not in ``src/``.

Every span is ``(name, start, end, parent, op)``: the layer boundary it
brackets, its clock readings, the span that caused it and the
operation both belong to.  Spans stay in memory and are written out
once, when the pass ends; spans *inside* the library are a later issue.
"""

from __future__ import annotations

import json
from time import perf_counter


class Recorder:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int | None, int]] = []
        self._op = 0

    def next_op(self) -> int:
        self._op += 1
        return self._op

    def add(self, name: str, start: float, end: float, op: int, parent=None) -> int:
        self.spans.append((name, start, end, parent, op))
        return len(self.spans) - 1

    def call(self, name: str, op: int, action, parent: int | None = None):
        """Run ``action()`` inside a span; returns its result."""
        start = perf_counter()
        result = action()
        self.add(name, start, perf_counter(), op, parent)
        return result

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                record = {"id": index, "name": name, "start": start, "end": end,
                          "parent": parent, "op": op}  # fmt: skip
                out.write(json.dumps(record) + "\n")
