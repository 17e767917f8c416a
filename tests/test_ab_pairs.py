"""The verdict every performance claim rests on (``benchmarks/ab_pairs.py``)."""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

from ab_pairs import layer_table, quartiles, verdict, wins  # noqa: E402

BOUND = 0.1


def series(base: float, step: float, n: int = 10) -> list[float]:
    return [base + step * i for i in range(n)]


def test_quartiles():
    assert quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)


def test_wins_count_strictly_better_pairs_only():
    parent, change = [5.0, 5.0, 5.0, 5.0], [4.0, 5.0, 6.0, 4.5]
    assert wins(parent, change, "lower") == 2
    assert wins(parent, change, "higher") == 1  # the tie counts for neither


def test_a_gain_needs_ten_pairs_nine_wins_and_a_gap_over_the_parent_iqr():
    parent = series(7.2, 0.02)  # q1–q3 spread 0.09
    change = series(5.8, 0.02)
    assert verdict(parent, change, "lower", BOUND) == "gain"
    # Four pairs at −19 %, all won: too short a series to claim.
    assert verdict(parent[:4], change[:4], "lower", BOUND) == "within bound"
    # Eight wins in ten are not nine.
    lost = change[:8] + [7.9, 7.9]
    assert wins(parent, lost, "lower") == 8
    assert verdict(parent, lost, "lower", BOUND) != "gain"
    # Ten wins, but the medians differ by less than the parent's spread.
    noisy = [7.0, 7.1, 7.2, 7.3, 7.4, 7.5, 7.6, 7.7, 7.8, 7.9]
    close = [p - 0.05 for p in noisy]
    assert wins(noisy, close, "lower") == 10
    assert verdict(noisy, close, "lower", BOUND) == "within bound"


def test_outside_bound_needs_every_change_run_worse():
    parent = series(5.0, 0.01)
    worse = series(6.0, 0.01)
    assert verdict(parent, worse, "lower", BOUND) == "outside bound"
    # The same median, but one change run reads better than a parent run.
    overlapping = worse[:9] + [4.0]
    assert verdict(parent, overlapping, "lower", BOUND) == "unresolved"


def test_a_higher_failure_share_blocks_gain_and_within_bound():
    parent = series(7.2, 0.02)
    gain, same = series(5.8, 0.02), series(7.2, 0.02)
    assert verdict(parent, gain, "lower", BOUND, (0.0, 0.0)) == "gain"
    assert verdict(parent, same, "lower", BOUND, (0.0, 0.0)) == "within bound"
    assert verdict(parent, gain, "lower", BOUND, (0.0, 0.01)) == "unresolved"
    assert verdict(parent, same, "lower", BOUND, (0.0, 0.01)) == "unresolved"
    # An equal share blocks nothing.
    assert verdict(parent, gain, "lower", BOUND, (0.02, 0.02)) == "gain"


def test_higher_is_better_metrics():
    parent = series(136.0, 0.5)
    assert verdict(parent, series(170.0, 0.5), "higher", BOUND) == "gain"
    assert verdict(parent, series(100.0, 0.5), "higher", BOUND) == "outside bound"
    assert verdict(parent, series(131.0, 0.5), "higher", BOUND) == "within bound"


def test_a_one_run_series():
    assert verdict([5.0], [4.0], "lower", BOUND) == "within bound"
    assert verdict([5.0], [6.0], "lower", BOUND) == "outside bound"
    assert verdict([5.0], [5.2], "lower", BOUND) == "within bound"


def test_layer_table_compares_one_traced_pass_per_side_in_manifest_order():
    per_layer = [
        {"name": "engine.match_us", "unit": "us"},
        {"name": "engine.matches_per_query", "unit": "count"},
        {"name": "http.floor_us", "unit": "us"},
        {"name": "engine.view_rebuild_us", "unit": "us"},
    ]

    def run(**values):
        return {"metrics": {n.replace("_", ".", 1): {"value": v} for n, v in values.items()}}

    parent = run(engine_match_us=2190.0, engine_matches_per_query=21, engine_view_rebuild_us=0.0)
    change = run(engine_match_us=219.0, engine_matches_per_query=21)
    assert layer_table(per_layer, [parent], [change]) == [
        "| metric | unit | parent | change | change |",
        "|---|---|---|---|---|",
        "| engine.match_us | us | 2190 | 219 | -90.0% |",
        "| engine.matches_per_query | count | 21 | 21 | +0.0% |",
        "| http.floor_us | us |  |  |  |",  # measured on neither side
        "| engine.view_rebuild_us | us | 0 |  |  |",  # no ratio from 0 or a blank
    ]
    # A failed pass carries no metrics at all.
    assert layer_table(per_layer[:1], [{"metrics": {}}], [change])[-1] == (
        "| engine.match_us | us |  | 219 |  |"
    )


def test_layer_table_reads_the_median_of_each_sides_traced_passes():
    per_layer = [{"name": "engine.match_us", "unit": "us"}]

    def run(value):
        return {"metrics": {} if value is None else {"engine.match_us": {"value": value}}}

    parent = [run(79.0), run(67.9), run(70.0)]
    change = [run(66.8), run(None), run(79.1)]  # a failed pass is skipped
    assert layer_table(per_layer, parent, change)[-1] == (
        "| engine.match_us | us | 70 | 72.95 | +4.2% |"
    )
