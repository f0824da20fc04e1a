"""Benchmark of the cavityfall command line, driven in-process.

    python3 bench/run.py --workload {drop,trace,snr} --seed N --seconds S --trace {0,1}

Run from the repository root.  The workload's scenario documents and its
fixed list of operations are generated from the seed (bench/workloads.py).
One client runs a closed loop in this process: each operation is one call to
cavityfall.cli.main([..., "--quiet"]) into a fresh output directory, and the
next starts only after the previous one has finished and its artifacts have
been checked (bench/checks.py).  The first run of each operation is checked
against the oracles; every later run must reproduce its artifacts byte for
byte.  Checks and clean-up are outside the timed region.

--trace 0 cycles through the operation list until the timed operations add
up to S seconds and reports the end-to-end metrics.  Each operation's
latency is the best of its runs: other tenants of a shared machine slow
single runs by up to 1.7x for seconds at a time, and the best of several
runs spread over the loop is what repeats from one run of the benchmark to
the next.  op_p50_s and op_tail_s are the median and tail of those
latencies over the operation list, and ops_per_s is the list's length over
their sum; the report also gives the median and rate of all runs.
peak_rss_mb is the growth of the process's peak resident memory over its
value before the first operation (the report gives that baseline:
interpreter, numpy and the generated workload).  setup_s is the median
start of a fresh interpreter, sampled evenly over the loop.

--trace 1 runs the operation list three times, whatever S is, so that every
count repeats exactly: once to check and warm up, once untraced and once
with every layer wrapped (bench/tracing.py).  It reports per-layer metrics,
the tracing overhead, and the latency of each command on the shipped
scenarios.  The spans go to .bench_out/spans-<workload>-seed<N>.npz.

The last line of stdout is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}};
the line before it is a report with the environment, the tail percentile
and its sample count, the error rate and any failures.
"""

import os

# One BLAS/OpenMP thread, set before numpy loads so that this process and
# every interpreter it starts use the same setting.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCENARIOS = ROOT / "scenarios"

#: Fresh interpreters timed for setup_s, spread evenly over the run (after
#: one untimed start that compiles the bytecode); the median is reported.
SETUP_REPEATS = 21
SHIPPED = (
    ("dispersion", "freefall_caf2.json"),
    ("freefall-analytic", "freefall_caf2.json"),
    ("freefall-numeric", "freefall_caf2.json"),
    ("fig2b", "caf2_wgmc.json"),
    ("qthreshold", "caf2_wgmc.json"),
)
SHIPPED_REPEATS = 3
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import cavityfall.cli; "
    "from cavityfall.scenario import load_scenario; load_scenario(sys.argv[2])"
)

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s", "op_tail_s": "s", "peak_rss_mb": "MiB"}


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(version: str) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "longdouble_nmant": int(np.finfo(np.longdouble).nmant),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": dict(BLAS_THREADS),
        "cavityfall": version,
        "git_commit": _git_commit(),
    }


def start_interpreter(scenario_path: Path) -> float:
    """Wall time of a fresh interpreter importing cavityfall.cli and parsing
    one scenario."""
    # no timeout: with one, subprocess polls the child every 50 ms and the
    # times come out quantised
    command = [sys.executable, "-c", SETUP_CODE, str(SRC), str(scenario_path)]
    started = perf_counter()
    subprocess.run(command, check=True)
    return perf_counter() - started


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten samples beyond it,
    and that percentile (the maximum and 100 with ten samples or fewer)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


class Client:
    """One closed-loop client: runs operations one after another and checks
    each one's artifacts before the next starts."""

    def __init__(self, cli, workload: workloads.Workload, work_dir: Path) -> None:
        self.cli = cli
        self.workload = workload
        self.work_dir = work_dir
        self.paths = []
        scenario_dir = work_dir / "scenarios"
        scenario_dir.mkdir(parents=True)
        for i, doc in enumerate(workload.documents):
            path = scenario_dir / f"s{i:03d}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            self.paths.append(path)
        self.attempted = 0
        self.failures: list[str] = []
        #: checked outcome of the first run of each (operation, scenario file)
        self.first: dict[tuple[workloads.Op, Path], checks.Outcome] = {}

    def run(self, op: workloads.Op, doc: dict, scenario_path: Path):
        """Run and check one operation; returns (seconds, Outcome or None on failure)."""
        self.attempted += 1
        out_dir = self.work_dir / f"op{self.attempted}"
        argv = workloads.argv(op, scenario_path, out_dir)
        outcome = None
        started = perf_counter()
        try:
            code = self.cli.main(argv)
        except (Exception, SystemExit) as exc:  # argparse exits on bad arguments
            code = exc
        elapsed = perf_counter() - started
        first = self.first.get((op, scenario_path))
        try:
            if code != 0:
                raise RuntimeError(f"exit code {code!r}")
            if first is None:
                outcome = checks.check(op, doc, out_dir)
            else:
                outcome = checks.artifacts(out_dir)[0]
                if outcome.shas != first.shas:
                    outcome.problems.append("artifacts differ from the first run of this operation")
            if outcome.problems:
                raise RuntimeError("; ".join(outcome.problems))
        except Exception as exc:  # a failed operation is counted, the loop goes on
            self.failures.append(f"{' '.join(argv[:1] + argv[5:])} on {scenario_path.name}: {exc!r}")
            return elapsed, None
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        if first is None:
            self.first[(op, scenario_path)] = outcome
        return elapsed, first or outcome

    def run_index(self, i: int):
        op = self.workload.ops[i % len(self.workload.ops)]
        return self.run(op, self.workload.documents[op.scenario], self.paths[op.scenario])


def measure(client: Client, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics: untraced closed loop over the operation list until
    the timed operations add up to `seconds`, with the set-up starts spread
    evenly over the loop."""
    baseline_rss = peak_rss_mib()
    start_interpreter(client.paths[0])  # compiles the bytecode; not timed
    setups: list[float] = []
    runs: list[list[float]] = [[] for _ in client.workload.ops]
    busy = 0.0
    i = 0
    while busy < seconds or len(setups) < SETUP_REPEATS:
        if len(setups) < SETUP_REPEATS and busy >= len(setups) * seconds / SETUP_REPEATS:
            setups.append(start_interpreter(client.paths[0]))
            continue
        elapsed = client.run_index(i)[0]
        runs[i % len(runs)].append(elapsed)
        busy += elapsed
        i += 1
    best = [min(r) for r in runs if r]
    tail_s, percentile = tail(best)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(best) / sum(best),
        "op_p50_s": statistics.median(best),
        "op_tail_s": tail_s,
        "peak_rss_mb": peak_rss_mib() - baseline_rss,
    }
    report = {
        "operations": len(best),
        "runs_per_operation": [min(map(len, runs)), max(map(len, runs))],
        "tail_percentile": percentile,
        "all_runs": {"samples": i, "ops_per_s": i / busy, "p50_s": statistics.median(x for r in runs for x in r)},
        "setup_repeats": SETUP_REPEATS,
        "rss_baseline_mb": baseline_rss,
    }
    return {name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in metrics.items()}, report


def shipped_table(client: Client) -> dict[str, float]:
    """Median latency of each command on its shipped scenario (untraced)."""
    table = {}
    for command, file_name in SHIPPED:
        path = SCENARIOS / file_name
        doc = json.loads(path.read_text(encoding="utf-8"))
        op = workloads.Op(command, 0)
        table[f"shipped.{command}_s"] = statistics.median(client.run(op, doc, path)[0] for _ in range(SHIPPED_REPEATS))
    return table


def layer_metrics(tracer: tracing.Tracer, client: Client, outcomes, untraced_s: float, traced_s: float) -> dict:
    """Per-layer metrics of the traced pass over the operation list, which
    traced ops[i] as operation id i."""
    summary = tracer.summary()
    ops = client.workload.ops

    def get(label: str, key: str) -> float:
        return summary.get(label, {}).get(key, 0)

    def layer(name: str, key: str, exclude: str = "") -> float:
        return sum(v[key] for label, v in summary.items() if label.split(".")[0] == name and label != exclude)

    numeric = [i for i, op in enumerate(ops) if op.command == "freefall-numeric"]
    work = sum(workloads.propagation_work(client.workload.documents[ops[i].scenario]) for i in numeric)
    fig2b = [i for i, op in enumerate(ops) if op.command == "fig2b"]
    fig2b_traces = tracer.summary(ops=fig2b).get("interferometry.snr_trace", {}).get("calls", 0) if fig2b else 0
    q_written = sum(outcomes[i].q_values for i in fig2b if outcomes[i] is not None)
    done = [o for o in outcomes if o is not None]
    metrics = {
        "propagator.self_s": ("s", layer("propagator", "self_s", exclude="propagator.observables")),
        "propagator.step_ns_per_point": ("ns", 1e9 * get("propagator.propagate", "self_s") / work if work else 0.0),
        "propagator.observables_s": ("s", get("propagator.observables", "total_s")),
        "propagator.observables_calls": ("count", get("propagator.observables", "calls")),
        "propagator.records": ("count", sum(outcomes[i].rows_written for i in numeric if outcomes[i] is not None)),
        "interferometry.self_s": ("s", layer("interferometry", "self_s")),
        "interferometry.snr_trace_calls": ("count", get("interferometry.snr_trace", "calls")),
        "interferometry.snr_calls": ("count", get("interferometry.snr", "calls")),
        "interferometry.bisection_iters": ("count", sum(o.bisection_iters for o in done)),
        "interferometry.traces_per_q": ("ratio", fig2b_traces / q_written if q_written else 0.0),
        "cli.self_s": ("s", layer("cli", "self_s")),
        "cli.bytes_written": ("bytes", sum(o.bytes_written for o in done)),
        "cli.rows_written": ("count", sum(o.rows_written for o in done)),
    }
    for name in ("scenario", "gravity", "dispersion", "units"):
        metrics[f"{name}.self_s"] = ("s", layer(name, "self_s"))
        metrics[f"{name}.calls"] = ("count", layer(name, "calls"))
    metrics["trace.overhead"] = ("ratio", untraced_s / traced_s)
    return {name: {"value": value, "unit": unit} for name, (unit, value) in metrics.items()}


def traced(client: Client, spans_path: Path) -> tuple[dict, dict]:
    """Per-layer metrics: the operation list run once to check it and warm
    up, then untraced and traced, followed by the shipped-scenario table."""
    n_ops = len(client.workload.ops)
    for i in range(n_ops):
        client.run_index(i)
    untraced_s = sum(client.run_index(i)[0] for i in range(n_ops))
    tracer = tracing.Tracer()
    wrapped = tracer.install("cavityfall")
    outcomes = []
    traced_s = 0.0
    try:
        for i in range(n_ops):
            tracer.current_op = i
            elapsed, outcome = client.run_index(i)
            traced_s += elapsed
            outcomes.append(outcome)
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer, client, outcomes, untraced_s, traced_s)
    for name, value in shipped_table(client).items():
        metrics[name] = {"value": value, "unit": "s"}
    tracer.save(spans_path)
    report = {
        "traced_ops": n_ops,
        "spans": len(tracer.start),
        "wrapped": len(wrapped),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "computed": {"propagator.step_ns_per_point": "propagate self time / sum of n_points * n_steps of the scenarios"},
    }
    return metrics, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    if not (SRC / "cavityfall" / "__init__.py").is_file() or not SCENARIOS.is_dir():
        print(f"bench: no cavityfall sources under {ROOT}; run from a repository checkout", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    import cavityfall
    import cavityfall.cli

    workload = workloads.generate(args.workload, args.seed, SCENARIOS)
    work_dir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        client = Client(cavityfall.cli, workload, work_dir)
        if args.trace:
            spans_path = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.npz"
            metrics, report = traced(client, spans_path)
        else:
            metrics, report = measure(client, args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    report.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        environment=environment(cavityfall.__version__),
        error_rate=len(client.failures) / client.attempted,
        failures=client.failures[:20],
    )
    for name, metric in metrics.items():
        print(f"  {name:32s} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'error_rate':32s} {report['error_rate']:.6g} ratio")
    print(json.dumps({"report": report}))
    result = {
        "correct": not client.failures,
        "attempted": client.attempted,
        "failed": len(client.failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
