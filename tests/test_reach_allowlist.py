"""The reach census's allowlist names only definitions that still exist
(``benchmarks/reach_allowlist.txt`` against ``benchmarks/reach.py``).

An entry whose ``def`` was deleted or renamed would otherwise sit in
the list silently, ready to excuse a later function of the same name.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
sys.path.insert(0, str(BENCHMARKS))

from reach import definitions  # noqa: E402


def test_every_allowlist_entry_names_a_live_definition():
    entries = [
        line.split("#")[0].strip()
        for line in (BENCHMARKS / "reach_allowlist.txt").read_text().splitlines()
    ]
    entries = [entry for entry in entries if entry]
    assert entries
    live = set(definitions().values())
    assert [entry for entry in entries if entry not in live] == []
    assert len(entries) == len(set(entries)), "duplicate allowlist entries"
