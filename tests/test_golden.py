"""The shipped runs' artifacts, byte for byte, against golden_sha256.json,
and those of the benchmark's operations against golden_bench_sha256.json.

Artifact bytes are fixed per numpy version and per CPU target of numpy's
ufunc kernels, which numpy picks at run time: its transcendental kernels
round differently from one target to the next.  Each golden file is keyed
by both, and on a host where either differs the test is skipped, naming the
difference; only the values are portable there, to a few ulps.

The benchmark file holds, for each workload, seed in BENCH_SEEDS and
operation index, the exit code, the stderr and the artifact digests of the
operation that bench/workloads.py generates, run through cli.main.  Each
operation must also pass bench/checks.py, the benchmark's own oracles, so
that the file is judged, not only pinned: an operation that fails them
fails the test, and the rewrite below then writes neither file.

A documented artifact change rewrites both files:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from cavityfall import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).with_name("golden_sha256.json")
BENCH_GOLDEN = Path(__file__).with_name("golden_bench_sha256.json")
SCENARIOS = ROOT / "scenarios"
BENCH_SEEDS = (1, 2, 3)
sys.path.insert(0, str(ROOT / "bench"))

import checks  # noqa: E402
import workloads  # noqa: E402

#: the shipped runs, as command and options, and their scenario files
SHIPPED = {
    "dispersion": "freefall_caf2.json",
    "freefall-analytic": "freefall_caf2.json",
    "freefall-numeric": "freefall_caf2.json",
    "fig2b": "caf2_wgmc.json",
    "fig2b --width-model paper": "caf2_wgmc.json",
    "fig2b --q 4e10 9e10": "caf2_wgmc.json",
    "qthreshold": "caf2_wgmc.json",
    "qthreshold --width-model paper": "caf2_wgmc.json",
}


def golden_key() -> dict:
    return {"numpy": np.__version__, "ufunc_dispatch": cli._ufunc_dispatch()}


def _digests(out: Path) -> dict:
    """sha256 of each artifact in out; of the manifest without duration_s
    and environment, which change from run to run and host to host."""
    digests = {}
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.name == "run_manifest.json":
            manifest = json.loads(data)
            del manifest["duration_s"], manifest["environment"]
            data = json.dumps(manifest, indent=2, sort_keys=True).encode()
        digests[path.name] = hashlib.sha256(data).hexdigest()
    return digests


def shipped_digests(work: Path) -> dict:
    digests = {}
    for run, scenario in SHIPPED.items():
        out = work / run.replace(" ", "_")
        assert cli.main([*run.split(), "--scenario", str(SCENARIOS / scenario), "--out", str(out), "--quiet"]) == 0
        digests[run] = _digests(out)
    return digests


def bench_outcomes(work: Path) -> dict:
    """{workload: {seed: [{exit, stderr, sha256} of each operation]}}; each
    output directory is removed once checked by bench/checks.py and
    digested.  An operation that exits other than 0 or fails its checks
    raises AssertionError naming it."""
    outcomes: dict = {}
    for name in workloads.WORKLOADS:
        for seed in BENCH_SEEDS:
            workload = workloads.generate(name, seed, SCENARIOS)
            paths = [work / f"{name}{seed}-s{i:03d}.json" for i in range(len(workload.documents))]
            for path, doc in zip(paths, workload.documents):
                path.write_text(json.dumps(doc), encoding="utf-8")
            runs = outcomes.setdefault(name, {}).setdefault(str(seed), [])
            for j, op in enumerate(workload.ops):
                out = work / f"{name}{seed}-op{j}"
                stderr = io.StringIO()
                with contextlib.redirect_stderr(stderr):
                    code = cli.main(workloads.argv(op, paths[op.scenario], out))
                doc = workload.documents[op.scenario]
                problems = checks.check(op, doc, out).problems if code == 0 else [f"exit code {code}"]
                assert not problems, f"{name} seed {seed} operation {j}: {'; '.join(problems)}"
                runs.append({"exit": code, "stderr": stderr.getvalue(), "sha256": _digests(out)})
                shutil.rmtree(out)
    return outcomes


def test_a_peak_between_the_last_two_samples_passes_the_checks(tmp_path):
    # snr seed 101, document 1: at Q = 8.86e10 the corrected model's Sn peaks
    # at 9.99855 lifetimes, between the last two of the trace's samples
    workload = workloads.generate("snr", 101, SCENARIOS)
    op = workloads.Op("fig2b", 1, ("--width-model", "paper", "--q", "23500000000.0", "41700000000.0", "88600000000.0"))
    assert op in workload.ops
    doc = workload.documents[op.scenario]
    path, out = tmp_path / "s001.json", tmp_path / "out"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(workloads.argv(op, path, out)) == 0
    assert checks.check(op, doc, out).problems == []


def _golden(path: Path) -> dict:
    golden = json.loads(path.read_text())
    if golden["key"] != golden_key():
        pytest.skip(f"golden bytes are for {golden['key']}, this host runs {golden_key()}")
    return golden


def test_shipped_runs_match_the_golden_file(tmp_path):
    assert shipped_digests(tmp_path) == _golden(GOLDEN)["sha256"]


def test_bench_operations_match_the_golden_file(tmp_path):
    golden = _golden(BENCH_GOLDEN)["outcomes"]
    outcomes = bench_outcomes(tmp_path)
    for name, seeds in golden.items():
        for seed, runs in seeds.items():
            for j, expected in enumerate(runs):
                assert outcomes[name][seed][j] == expected, f"{name} seed {seed} operation {j}"
    assert outcomes == golden


if __name__ == "__main__":
    # both collected before either is written: a failed run writes neither
    goldens = {}
    for path, field, collect in ((GOLDEN, "sha256", shipped_digests), (BENCH_GOLDEN, "outcomes", bench_outcomes)):
        with tempfile.TemporaryDirectory() as work:
            goldens[path] = {"key": golden_key(), field: collect(Path(work))}
    for path, golden in goldens.items():
        path.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
