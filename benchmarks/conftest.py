"""Shared infrastructure for the experiment benchmarks.

Each benchmark module regenerates one experiment: E1–E8 reproduce the
paper's claims, E9 onward measure this implementation.  Timing goes
through pytest-benchmark; the paper-style series and tables are both
printed (visible with ``-s``) and appended to
``benchmarks/out/report.txt`` so a plain ``pytest benchmarks/
--benchmark-only`` run leaves the rows on disk.
"""

from __future__ import annotations

from pathlib import Path

import pytest

OUT_DIR = Path(__file__).parent / "out"


class Reporter:
    """Collects experiment tables and writes them out."""

    def __init__(self) -> None:
        OUT_DIR.mkdir(exist_ok=True)
        self.path = OUT_DIR / "report.txt"

    def table(self, title: str, headers: list[str], rows: list[list[object]]) -> None:
        widths = [
            max(len(str(headers[i])), *(len(str(row[i])) for row in rows)) if rows else len(str(headers[i]))
            for i in range(len(headers))
        ]
        lines = [title, "-" * len(title)]
        lines.append("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
        for row in rows:
            lines.append("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
        block = "\n".join(lines) + "\n\n"
        print("\n" + block, end="")
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(block)


@pytest.fixture(scope="session")
def report() -> Reporter:
    reporter = Reporter()
    # Start each session's report fresh.
    reporter.path.write_text("")
    return reporter


def fmt(value: float, digits: int = 4) -> str:
    """Compact float formatting for table cells."""
    return f"{value:.{digits}g}"
