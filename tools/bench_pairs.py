"""Alternating parent/change pairs of the benchmark, and their summary.

    python3 tools/bench_pairs.py PARENT_TREE CHANGE_TREE --workload W --seeds A-B
        [--json FILE] [--work DIR]

PARENT_TREE and CHANGE_TREE are checkouts of the two commits (for example
`git archive REV | tar -x -C DIR`).  Each seed A..B is one pair: for each
side, the tree's bench, src and scenarios are copied into a fresh directory
run-<workload>-<seed>-<side>, `bench/run.py --workload W --seed N --seconds S`
runs there unchanged for BENCHMARK.json's run_seconds S, and the directory is
deleted.  The side that runs first alternates from pair to pair, starting
with the parent.

For each end-to-end metric of BENCHMARK.json the summary gives both medians,
the parent's inclusive quartiles, the change's relative worsening
(change_worse_by, negative where the change is better), the number of pairs
the change read better (ties count for neither), whether the worsening is
within the metric's bound, and two verdicts: gain_shown, where at least 10
pairs ran, the change read better in at least 9 of 10 of them and its median
beats the parent's by more than the parent's interquartile range; and
unresolved, where that range is wider than the bound, unless every change
run beats every parent run.
--json FILE stores the runs, the summary and the
first run's environment under end_to_end.<W> of FILE, keeping what FILE
already holds, so that several workloads collect into one record.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: what bench/run.py reads from a tree
COPIED = ("bench", "src", "scenarios")
SIDES = ("parent", "change")


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def run_once(tree: Path, work: Path, workload: str, seed: int, seconds: float, side: str) -> tuple[dict, dict]:
    """One bench/run.py run on a fresh copy of tree; returns its result
    line's flat metrics and its report."""
    run_dir = work / f"run-{workload}-{seed}-{side}"
    run_dir.mkdir()
    try:
        for name in COPIED:
            shutil.copytree(tree / name, run_dir / name)
        done = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)],
            cwd=run_dir,
            capture_output=True,
            text=True,
        )
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if done.returncode != 0:
        raise RuntimeError(f"{side} {workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    *_, report_line, result_line = done.stdout.splitlines()
    result = json.loads(result_line)
    run = {key: result[key] for key in ("attempted", "failed", "correct")}
    run.update((name, metric["value"]) for name, metric in result["metrics"].items())
    return run, json.loads(report_line)["report"]


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per metric: medians, the parent's inclusive quartiles, the change's
    relative worsening, pairs the change read better, the bound test and
    the gain_shown and unresolved verdicts.

    runs holds one dict per run with its seed, version ("parent" or
    "change") and each metric's value; metrics are BENCHMARK.json's
    end_to_end entries (name, better, bound)."""
    by_side = {side: {run["seed"]: run for run in runs if run["version"] == side} for side in SIDES}
    paired = sorted(by_side["parent"].keys() & by_side["change"].keys())
    summary = {}
    for metric in metrics:
        name, sign = metric["name"], 1.0 if metric["better"] == "lower" else -1.0
        parent = [run[name] for run in by_side["parent"].values()]
        change = [run[name] for run in by_side["change"].values()]
        parent_median, change_median = statistics.median(parent), statistics.median(change)
        q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive") if len(parent) > 1 else parent * 3
        worse_by = sign * (change_median - parent_median) / parent_median
        better = sum(sign * (by_side["change"][s][name] - by_side["parent"][s][name]) < 0 for s in paired)
        gain = sign * (parent_median - change_median)
        every_change_run_better = max(sign * v for v in change) < min(sign * v for v in parent)
        summary[name] = {
            "parent_median": parent_median,
            "change_median": change_median,
            "parent_quartiles": [q1, q3],
            "parent_iqr_rel": (q3 - q1) / parent_median,
            "change_worse_by": worse_by,
            "pairs_change_better": better,
            "within_bound": worse_by <= metric["bound"],
            "gain_shown": len(paired) >= 10 and 10 * better >= 9 * len(paired) and gain > q3 - q1,
            "unresolved": (q3 - q1) / parent_median > metric["bound"] and not every_change_run_better,
        }
    return summary


def report_lines(workload: str, pairs: int, summary: dict) -> list[str]:
    lines = [f"{workload}: {pairs} pairs"]
    for name, s in summary.items():
        q1, q3 = s["parent_quartiles"]
        lines.append(
            f"  {name:12s} parent {s['parent_median']:.6g} [{q1:.6g}, {q3:.6g}] -> change {s['change_median']:.6g}"
            f"  worse by {100 * s['change_worse_by']:+.1f} % (parent IQR {100 * s['parent_iqr_rel']:.1f} %)"
            f"  change better in {s['pairs_change_better']}/{pairs}"
            f"  {'within' if s['within_bound'] else 'OUTSIDE'} bound"
            + ("  gain shown" if s["gain_shown"] else "")
            + ("  UNRESOLVED" if s["unresolved"] else "")
        )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_tree", type=Path)
    parser.add_argument("change_tree", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=seed_range, help="A-B, inclusive")
    parser.add_argument("--json", type=Path, help="record to store end_to_end.<workload> in")
    parser.add_argument("--work", type=Path, help="where the run directories go (default: a temporary one)")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = benchmark["run_seconds"]
    trees = {"parent": args.parent_tree.resolve(), "change": args.change_tree.resolve()}
    for side, tree in trees.items():
        if not all((tree / name).is_dir() for name in COPIED):
            parser.error(f"{side} tree {tree} lacks one of {', '.join(COPIED)}")

    work = Path(tempfile.mkdtemp(prefix="bench-pairs-", dir=args.work))
    runs, environment = [], None
    try:
        for k, seed in enumerate(args.seeds):
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            for side in order:
                run, report = run_once(trees[side], work, args.workload, seed, seconds, side)
                run = {"seed": seed, "version": side, **run, "ran_first": side == order[0]}
                runs.append(run)
                environment = environment or report["environment"]
                print(json.dumps(run), flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    summary = summarize(runs, benchmark["end_to_end"])
    print("\n".join(report_lines(args.workload, len(args.seeds), summary)))
    failed = [run for run in runs if run["failed"] or not run["correct"]]
    if failed:
        print(f"  runs with failed operations: {len(failed)}")
    if args.json:
        record = json.loads(args.json.read_text(encoding="utf-8")) if args.json.exists() else {}
        record.setdefault("environment", environment)
        record.setdefault("end_to_end", {})[args.workload] = {
            "pairs": len(args.seeds),
            "seconds": seconds,
            "runs": runs,
            "summary": summary,
        }
        args.json.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
