import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import bench_pairs  # noqa: E402

METRICS = [
    {"name": "ops_per_s", "better": "higher", "bound": 0.25},
    {"name": "op_tail_s", "better": "lower", "bound": 0.25},
]


def runs_of(parent: list[tuple], change: list[tuple]) -> list[dict]:
    # one run per (ops_per_s, op_tail_s), seeds 10, 11, ... on both sides
    return [
        {"seed": 10 + k, "version": version, "ops_per_s": ops, "op_tail_s": tail}
        for version, values in (("parent", parent), ("change", change))
        for k, (ops, tail) in enumerate(values)
    ]


def test_medians_quartiles_wins_and_bounds():
    parent = [(100.0, 0.010), (104.0, 0.011), (102.0, 0.012), (98.0, 0.013), (106.0, 0.014)]
    change = [(110.0, 0.013), (103.0, 0.015), (112.0, 0.015), (111.0, 0.016), (108.0, 0.020)]
    summary = bench_pairs.summarize(runs_of(parent, change), METRICS)

    ops = summary["ops_per_s"]
    assert ops["parent_median"] == 102.0 and ops["change_median"] == 110.0
    # inclusive quartiles of 98, 100, 102, 104, 106
    assert ops["parent_quartiles"] == [100.0, 104.0]
    assert ops["parent_iqr_rel"] == pytest.approx(4.0 / 102.0)
    # higher is better: a faster change is worse by a negative amount
    assert ops["change_worse_by"] == pytest.approx(-8.0 / 102.0)
    # seed 11 reads 103 against 104: the change loses that pair
    assert ops["pairs_change_better"] == 4
    assert ops["within_bound"]

    tail = summary["op_tail_s"]
    assert tail["parent_median"] == 0.012 and tail["change_median"] == 0.015
    assert tail["change_worse_by"] == pytest.approx(0.25)
    assert tail["pairs_change_better"] == 0
    assert tail["within_bound"]


def test_a_worsening_past_the_bound_and_ties():
    parent = [(100.0, 0.010), (100.0, 0.010)]
    change = [(74.0, 0.010), (100.0, 0.0126)]
    summary = bench_pairs.summarize(runs_of(parent, change), METRICS)
    assert summary["ops_per_s"]["change_worse_by"] == pytest.approx(0.13)
    assert summary["ops_per_s"]["within_bound"]
    assert summary["op_tail_s"]["change_worse_by"] == pytest.approx(0.13)
    # equal readings are ties, which count for neither side
    assert summary["ops_per_s"]["pairs_change_better"] == 0
    assert summary["op_tail_s"]["pairs_change_better"] == 0

    change = [(70.0, 0.013), (74.0, 0.014)]
    summary = bench_pairs.summarize(runs_of(parent, change), METRICS)
    assert summary["ops_per_s"]["change_worse_by"] == pytest.approx(0.28)
    assert not summary["ops_per_s"]["within_bound"]
    assert not summary["op_tail_s"]["within_bound"]


def test_one_pair_and_an_unpaired_run():
    # quartiles of one parent run are that run; a seed only one side ran
    # counts towards its medians but not towards the pairs
    runs = runs_of([(100.0, 0.01)], [(120.0, 0.009), (10.0, 0.02)])
    summary = bench_pairs.summarize(runs, METRICS)
    assert summary["ops_per_s"]["parent_quartiles"] == [100.0, 100.0]
    assert summary["ops_per_s"]["change_median"] == 65.0
    assert summary["ops_per_s"]["pairs_change_better"] == 1
    assert summary["op_tail_s"]["pairs_change_better"] == 1


def test_the_benchmark_metrics_are_summarized():
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    run = {name: 1.0 for name in (metric["name"] for metric in metrics)}
    runs = [{"seed": 1, "version": version, **run} for version in bench_pairs.SIDES]
    summary = bench_pairs.summarize(runs, metrics)
    assert list(summary) == [metric["name"] for metric in metrics]
    assert all(s["change_worse_by"] == 0.0 and s["within_bound"] for s in summary.values())
    lines = bench_pairs.report_lines("snr", 1, summary)
    assert len(lines) == 1 + len(metrics)


PARENT_OPS = [100.0, 101.0, 102.0, 103.0, 104.0, 100.0, 101.0, 102.0, 103.0, 104.0]


@pytest.mark.parametrize(
    "deltas, shown",
    [
        # better in 9 of 10 pairs, the medians 3 apart against an IQR of 2
        ([3.0] * 9 + [-1.0], True),
        ([3.0] * 8 + [-1.0] * 2, False),
        # a tie counts for neither side: 9 wins of 10 pairs, then 8
        ([3.0] * 9 + [0.0], True),
        ([3.0] * 8 + [0.0] * 2, False),
        # better in every pair, by less than the parent's IQR
        ([1.0] * 10, False),
        # better in every pair, by 3, but only 9 pairs ran
        ([3.0] * 9, False),
    ],
)
def test_gain_shown_needs_nine_tenths_and_the_iqr(deltas, shown):
    # parent quartiles 101 and 103; op_tail_s mirrors ops_per_s, lower being better there
    change = [ops + delta for ops, delta in zip(PARENT_OPS, deltas)]
    runs = runs_of([(ops, 0.02 - ops / 1e4) for ops in PARENT_OPS], [(ops, 0.02 - ops / 1e4) for ops in change])
    summary = bench_pairs.summarize(runs, METRICS)
    assert summary["ops_per_s"]["parent_quartiles"] == [101.0, 103.0]
    assert summary["ops_per_s"]["gain_shown"] is shown
    assert summary["op_tail_s"]["gain_shown"] is shown
    assert not summary["ops_per_s"]["unresolved"]
    assert ("gain shown" in bench_pairs.report_lines("drop", 10, summary)[1]) is shown


@pytest.mark.parametrize(
    "change, unresolved",
    [
        # the parent's IQR is 40 % of its median, past the 0.25 bound
        ([90.0, 100.0, 110.0, 95.0, 105.0], True),
        # ... unless every change run beats every parent run
        ([150.0, 160.0, 170.0, 155.0, 165.0], False),
        ([30.0, 40.0, 50.0, 35.0, 45.0], True),
    ],
)
def test_unresolved_where_the_parent_spreads_past_the_bound(change, unresolved):
    parent = [60.0, 80.0, 100.0, 120.0, 140.0]
    # op_tail_s = 1/ops_per_s, lower being better there, spreads alike (42 %)
    runs = runs_of([(ops, 1.0 / ops) for ops in parent], [(ops, 1.0 / ops) for ops in change])
    summary = bench_pairs.summarize(runs, METRICS)
    assert summary["ops_per_s"]["parent_iqr_rel"] == pytest.approx(0.4)
    assert summary["ops_per_s"]["unresolved"] is unresolved
    assert summary["op_tail_s"]["unresolved"] is unresolved
    assert ("UNRESOLVED" in bench_pairs.report_lines("drop", 5, summary)[1]) is unresolved
    # 5 pairs are too few to show a gain, even where every change run is better
    assert not summary["ops_per_s"]["gain_shown"]


def test_a_narrow_parent_is_resolved():
    # an IQR of 4 % of the median: each reading is resolved, better or worse
    parent = [(98.0, 0.010), (100.0, 0.010), (102.0, 0.010), (104.0, 0.010), (106.0, 0.010)]
    for change in ([(90.0, 0.011)] * 5, [(110.0, 0.009)] * 5):
        summary = bench_pairs.summarize(runs_of(parent, change), METRICS)
        assert not summary["ops_per_s"]["unresolved"] and not summary["op_tail_s"]["unresolved"]


@pytest.mark.parametrize("text, seeds", [("801-803", [801, 802, 803]), ("7", [7]), ("5-5", [5])])
def test_seed_range(text, seeds):
    assert bench_pairs.seed_range(text) == seeds
