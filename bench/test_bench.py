"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from cavityfall.cli import main as cli_main  # noqa: E402
from cavityfall.interferometry import ExperimentConfig, snr_trace  # noqa: E402
from cavityfall.scenario import parse_scenario  # noqa: E402

SCENARIOS = ROOT / "scenarios"
SEEDS = (0, 1, 7)


@pytest.fixture(scope="module", params=[(name, seed) for name in workloads.WORKLOADS for seed in SEEDS])
def generated(request):
    name, seed = request.param
    return workloads.generate(name, seed, SCENARIOS)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(name):
    first = workloads.generate(name, 3, SCENARIOS)
    assert workloads.generate(name, 3, SCENARIOS) == first
    assert workloads.generate(name, 4, SCENARIOS) != first


def test_every_generated_document_parses_and_is_resolved(generated):
    for doc in generated.documents:
        parse_scenario(json.dumps(doc))
        if "propagation" in doc:
            prop = doc["propagation"]
            grid = prop["grid"]
            assert prop["sigma0"] > 4.0 * (grid["y_max"] - grid["y_min"]) / grid["n_points"]
            assert workloads.edge_clearance(doc) >= workloads.CLEARANCE_SIGMAS


def test_every_operation_names_a_document(generated):
    assert generated.ops
    for op in generated.ops:
        assert 0 <= op.scenario < len(generated.documents)
        doc = generated.documents[op.scenario]
        if op.command == "freefall-numeric":
            steps = round(doc["propagation"]["t_final"] / doc["propagation"]["dt"])
            assert 100 <= steps <= 750


def test_qthreshold_brackets_straddle_one(generated):
    for op in generated.ops:
        if op.command != "qthreshold":
            continue
        args = dict(zip(op.args[::2], op.args[1::2]))
        model = "paper_verbatim" if args["--width-model"] == "paper" else "corrected"
        cfg = ExperimentConfig(**dict(generated.documents[op.scenario]["experiment"], width_model=model))
        low = snr_trace(replace(cfg, Q=float(args["--q-lo"]))).sn_peak
        high = snr_trace(replace(cfg, Q=float(args["--q-hi"]))).sn_peak
        assert low < 1.0 < high


def test_fig2b_q_values_have_distinct_file_names(generated):
    for op in generated.ops:
        if op.command == "fig2b":
            qs = [float(q) for q in op.args[op.args.index("--q") + 1 :]]
            assert len({f"{q:g}" for q in qs}) == len(qs)


def test_self_times_on_a_synthetic_span_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; b has child c [6, 8]
    start = np.array([0.0, 1.0, 5.0, 6.0])
    end = np.array([10.0, 4.0, 9.0, 8.0])
    parent = np.array([-1, 0, 0, 2])
    assert tracing.self_times(start, end, parent).tolist() == [3.0, 3.0, 2.0, 2.0]


def test_tail_percentile_keeps_ten_samples_beyond():
    latencies = [float(i) for i in range(1, 101)]
    value, percentile = run.tail(latencies)
    assert value == 90.0
    assert percentile == 90.0
    assert sum(x > value for x in latencies) == 10


@pytest.fixture()
def fake_package(tmp_path, monkeypatch):
    """A package with a propagator layer that lacks observables and no units
    module at all, as after a refactor deletes symbols."""
    pkg = tmp_path / "fakefall"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from .propagator import propagate\n")
    (pkg / "propagator.py").write_text(
        "import time\n"
        "def _spin(seconds):\n"
        "    end = time.perf_counter() + seconds\n"
        "    while time.perf_counter() < end:\n"
        "        pass\n"
        "def step(n):\n"
        "    _spin(0.002)\n"
        "def propagate(n):\n"
        "    for _ in range(n):\n"
        "        step(n)\n"
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    yield "fakefall"
    for name in [m for m in sys.modules if m.split(".")[0] == "fakefall"]:
        del sys.modules[name]


def test_wrapper_skips_missing_symbols_and_nests_spans(fake_package):
    tracer = tracing.Tracer()
    assert sorted(tracer.install(fake_package)) == ["propagator.propagate", "propagator.step"]
    package = sys.modules[fake_package]
    try:
        tracer.current_op = 0
        package.propagate(3)
    finally:
        tracer.uninstall()
    assert not hasattr(package.propagate, "__wrapped__")
    summary = tracer.summary()
    assert summary["propagator.step"]["calls"] == 3
    outer = summary["propagator.propagate"]
    assert outer["calls"] == 1
    assert outer["self_s"] == pytest.approx(outer["total_s"] - summary["propagator.step"]["total_s"])
    assert summary["propagator.step"]["self_s"] >= 0.006
    assert "propagator.observables" not in summary and not any(k.startswith("units.") for k in summary)
    assert set(tracer.arrays()["op"].tolist()) == {0}


def test_sn_oracle_matches_the_frozen_paper_peak():
    # criterion 6 frozen constant (60-digit desk oracle): Q = 7e10, paper model
    exp = dict(
        lambda0=1.064e-6, sigma0=0.1, y_out=0.5, P_avg=1e-3, eta_det=1e-3, T_int=3600.0,
        n_s=1.43, g=9.81, width_model="paper_verbatim",
    )
    assert workloads.sn_peak(exp, 7e10)[1] == pytest.approx(9.57503519976474, rel=1e-9)
    assert math.isclose(workloads.q_star(exp), 36955286105.5196, rel_tol=1e-6)


def _run_op(tmp_path, op, doc):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc))
    out_dir = tmp_path / "out"
    assert cli_main(workloads.argv(op, scenario, out_dir)) == 0
    assert checks.check(op, doc, out_dir).problems == []
    return out_dir


def _rewrite(path, edit):
    path.write_text(edit(path.read_text()))


def test_checks_catch_a_wrong_fig2b_curve_peak_and_file_count(tmp_path):
    doc = json.loads((SCENARIOS / "caf2_wgmc.json").read_text())
    op = workloads.Op("fig2b", 0, ("--width-model", "paper", "--q", "3e10", "7e10"))
    out_dir = _run_op(tmp_path, op, doc)
    summary = json.loads((out_dir / "fig2b_summary.json").read_text())
    summary["width_model_divergence"][1]["sn_peak_corrected"] *= 1 + 1e-7
    (out_dir / "fig2b_summary.json").write_text(json.dumps(summary))
    # the Q=7e10 curve under the Q=3e10 name still satisfies the sn identity
    (out_dir / "fig2b_Q3e+10.csv").write_text((out_dir / "fig2b_Q7e+10.csv").read_text())
    problems = checks.check(op, doc, out_dir).problems
    assert any(p.startswith("Q=7e+10 sn_peak_corrected vs oracle") for p in problems)
    assert any(p.startswith("Q=3e+10 sn vs oracle") for p in problems)
    assert not any("sn identity" in p for p in problems)
    (out_dir / "fig2b_Q3e+10.csv").unlink()
    outcome = checks.Outcome()
    checks._fig2b(doc, out_dir, outcome, "paper_verbatim", [3e10, 7e10])
    assert outcome.problems == ["1 fig2b CSVs for 2 Q values"]


def test_checks_catch_a_wrong_width_and_momentum(tmp_path):
    workload = workloads.generate("trace", 0, SCENARIOS)
    op = next(op for op in workload.ops if op.command == "freefall-numeric")
    doc = workload.documents[op.scenario]
    out_dir = _run_op(tmp_path, op, doc)
    csv = out_dir / "freefall_numeric.csv"
    header, *rows = csv.read_text().splitlines()
    cells = [row.split(",") for row in rows]
    cells[-1][2] = repr(float(cells[-1][2]) * (1 + 1e-5))
    cells[-1][3] = repr(float(cells[-1][3]) * (1 + 1e-5))
    csv.write_text("\n".join([header] + [",".join(c) for c in cells]) + "\n")
    problems = checks.check(op, doc, out_dir).problems
    assert any(p.startswith("width vs spreading law") for p in problems)
    assert any(p.startswith("mean k vs -m g_tilde t/hbar") for p in problems)
    assert any("sha256 differs from the manifest" in p for p in problems)
