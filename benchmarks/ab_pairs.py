"""Alternating parent/change pairs of one E19 workload, with a verdict.

Runs the E19 single-pass command ::

    python3 benchmarks/e19/run.py --workload W --seed i --seconds S --trace 0

with ``S`` the manifest's ``run_seconds``, from two checkouts (the
parent commit and the change), *N* pairs, the side that goes first
alternating from pair to pair so a drifting host penalises neither.
Each side runs its own checkout's ``run.py`` on its own ``src/``.  Then,
per end-to-end metric, it prints both sides' median and quartiles, the
fraction of pairs the change wins (ties count for neither) and a
verdict:

* ``gain`` — at least 10 pairs, the change wins at least 9 in 10, and
  the medians differ, in the better direction, by more than the parent's
  own quartile spread (q3 − q1);
* ``within bound`` — no gain claimed, and the change's median is no
  worse than the parent's by more than the metric's ``BENCHMARK.json``
  bound, and both sides' quartile spreads fit inside the bound (or
  every change run reads better than every parent run);
* ``outside bound`` — the change's median is worse by more than the
  bound, and every change run is worse than every parent run;
* ``unresolved`` — anything else: a spread wider than the bound, or a
  median worse by more than the bound while the runs overlap, so the
  series cannot tell.

A change that failed a larger share of its operations than the parent
gets neither ``gain`` nor ``within bound`` on any metric: its figures
are ``unresolved`` (or ``outside bound``).

After the pairs, one traced pass (``--trace 1``) per side at the first
pair's seed gives a parent → change table of the manifest's
``per_layer`` metrics: where the end-to-end change came from.  These
are single shots, printed for reading, never given a verdict.

Usage::

    python3 benchmarks/ab_pairs.py --parent ../parent --change . \\
        --workload embedded_probability --pairs 10 [--first-seed 101]

A run takes ``run_seconds`` plus set-up, so ten pairs of one workload
take several minutes; no CI job runs this.  Every run's values are
printed before the summary.  Exits 1 when a run failed, timed out or
was incorrect, or when the change failed a larger share of operations
than the parent.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
from pathlib import Path

__all__ = ["verdict", "layer_table", "main"]

#: The gain rule's minimum series and win fraction.
MIN_PAIRS = 10
MIN_WIN_FRACTION = 0.9


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def wins(parent: list[float], change: list[float], better: str) -> int:
    """Pairs in which the change reads strictly better."""
    sign = 1.0 if better == "lower" else -1.0
    return sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)


def failure_totals(runs: list[dict]) -> tuple[int, int]:
    """Failed and attempted operations, summed over *runs*."""
    failed = sum(r.get("failed", 1) for r in runs)
    attempted = sum(r.get("attempted", 1) for r in runs)
    return failed, attempted


def verdict(
    parent: list[float],
    change: list[float],
    better: str,
    bound: float,
    failed_shares: tuple[float, float] = (0.0, 0.0),
) -> str:
    """The verdict for one metric over paired runs (``parent[i]`` and
    ``change[i]`` ran as one pair); *failed_shares* is ``(parent,
    change)`` failed/attempted over the series.  See the module
    docstring."""
    sign = 1.0 if better == "lower" else -1.0
    p1, p_median, p3 = quartiles(parent)
    c1, c_median, c3 = quartiles(change)
    improvement = sign * (p_median - c_median)
    failures_ok = failed_shares[1] <= failed_shares[0]
    if (
        failures_ok
        and len(parent) >= MIN_PAIRS
        and wins(parent, change, better) >= MIN_WIN_FRACTION * len(parent)
        and improvement > p3 - p1
    ):
        return "gain"
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    all_worse = all(sign * (c - p) > 0 for p in parent for c in change)
    scale = abs(p_median) or 1.0
    worse = -improvement / scale
    spread = max(p3 - p1, c3 - c1) / scale
    if failures_ok and worse <= bound and (spread <= bound or all_better):
        return "within bound"
    if worse > bound and all_worse:
        return "outside bound"
    return "unresolved"


def layer_table(per_layer: list[dict], parent: dict, change: dict) -> list[str]:
    """Markdown lines comparing one traced pass per side over the
    manifest's *per_layer* metrics; a value a side lacks is left blank."""
    lines = ["| metric | unit | parent | change | change |", "|---|---|---|---|---|"]
    for spec in per_layer:
        name = spec["name"]
        p, c = (side["metrics"].get(name, {}).get("value") for side in (parent, change))
        delta = f"{(c - p) / p:+.1%}" if p and c is not None else ""
        shown = ("" if v is None else f"{v:.6g}" for v in (p, c))
        lines.append(f"| {name} | {spec['unit']} | {' | '.join(shown)} | {delta} |")
    return lines


def run_once(
    checkout: Path, workload: str, seed: int, seconds: int, trace: int = 0
) -> dict:
    """One E19 pass from *checkout*; its final JSON line."""
    command = [
        sys.executable, str(checkout / "benchmarks" / "e19" / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]  # fmt: skip
    failed = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    try:
        done = subprocess.run(
            command, cwd=checkout, capture_output=True, text=True, timeout=600
        )
    except subprocess.TimeoutExpired:
        return failed
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return failed
    result["correct"] = result.get("correct", False) and done.returncode == 0
    return result


def _format(values: list[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.6g} [{q1:.6g}–{q3:.6g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="change checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    manifest = json.loads((change / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = manifest["run_seconds"]
    # A SIGTERM unwinds like ^C: subprocess.run then kills the pass in
    # flight, and that pass's own sweep reaps its workers.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))

    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    sides = {"parent": parent, "change": change}
    for k in range(args.pairs):
        seed = args.first_seed + k
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(sides[side], args.workload, seed, seconds)
            runs[side].append(result)
            values = " ".join(
                f"{name}={entry['value']:.6g}"
                for name, entry in sorted(result["metrics"].items())
                if entry.get("value") is not None
            )
            print(
                f"pair {k + 1} seed {seed} {side}: correct={result['correct']} "
                f"failed={result.get('failed')}/{result.get('attempted')} {values}",
                flush=True,
            )
    traced = {
        side: run_once(sides[side], args.workload, args.first_seed, seconds, trace=1)
        for side in ("parent", "change")
    }
    for side, result in traced.items():
        print(f"traced seed {args.first_seed} {side}: correct={result['correct']}", flush=True)

    ok = all(r["correct"] for side in (*runs.values(), traced.values()) for r in side)
    totals = {side: failure_totals(rs) for side, rs in runs.items()}
    shares = tuple(f / a if a else 1.0 for f, a in (totals["parent"], totals["change"]))
    print(f"\n## {args.workload}: {args.pairs} alternating pairs, {seconds} s runs\n")
    print("| metric | unit | parent median [q1–q3] | change median [q1–q3] | change | wins | verdict |")
    print("|---|---|---|---|---|---|---|")
    for spec in manifest["end_to_end"]:
        name = spec["name"]
        try:
            p = [r["metrics"][name]["value"] for r in runs["parent"]]
            c = [r["metrics"][name]["value"] for r in runs["change"]]
        except KeyError:
            print(f"| {name} | {spec['unit']} | | | | | missing |")
            continue
        p_median = statistics.median(p)
        delta = (statistics.median(c) - p_median) / p_median if p_median else 0.0
        print(
            f"| {name} | {spec['unit']} | {_format(p)} | {_format(c)} | {delta:+.1%} "
            f"| {wins(p, c, spec['better'])}/{len(p)} "
            f"| {verdict(p, c, spec['better'], spec['bound'], shares)} |"
        )
    print(
        f"\n## {args.workload}: per layer, one traced pass per side at seed "
        f"{args.first_seed} (single shots, no verdict)\n"
    )
    for line in layer_table(manifest["per_layer"], traced["parent"], traced["change"]):
        print(line)
    more_failures = shares[1] > shares[0]
    print(
        "\nfailed/attempted: parent {}/{}, change {}/{}".format(*totals["parent"], *totals["change"])
        + f"; all correct: {ok}"
        + ("; the change failed a larger share of operations" if more_failures else "")
    )
    return 0 if ok and not more_failures else 1


if __name__ == "__main__":
    sys.exit(main())
