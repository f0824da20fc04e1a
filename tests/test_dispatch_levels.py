"""The shipped runs' values across numpy's ufunc dispatch levels.

numpy picks the CPU target of each ufunc kernel at run time, and its
transcendental kernels round differently from one target to the next, so the
artifact bytes are fixed per dispatch level (test_golden.py) and only the
values are portable.  This runs the eight shipped runs at the host's best level
and, in one child process each, at every level below it, chosen by disabling
dispatch targets with NPY_DISABLE_CPU_FEATURES.  Exit codes and JSON results
must be identical; each CSV column may move by a stated fraction of its
largest value.

The runs of one level, into a directory:

    PYTHONPATH=src python tests/test_dispatch_levels.py OUT
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_dispatch__

from test_golden import SCENARIOS, SHIPPED

from cavityfall import cli

#: the largest move of a CSV column across levels, as a fraction of the
#: column's largest magnitude.  Measured on an AVX-512 host (numpy 2.4.6,
#: best level "AVX512_SPR X86_V3 X86_V4 baseline(X86_V2)"): at X86_V3 the
#: fig2b columns move by up to 3.0e-16 on 37-108 of 2001 rows, and
#: sn_peak_mid by 7e-19 on 1-2 rows; at the X86_V2 baseline also y_si by
#: 7.3e-14 and phase_grad_si by 8.8e-13 (the roundoff of the propagator's
#: FFTs and of its 5-sample phase fit), sigma_si and norm by 1 ulp.  The
#: bounds leave ten times that or more.
DEFAULT_BOUND = 4e-15
BOUNDS = {"y_si": 1e-12, "phase_grad_si": 1e-11}


def run_shipped(out: Path) -> dict:
    """Exit code of each shipped run, each into its own directory under out."""
    codes = {}
    for run, scenario in SHIPPED.items():
        argv = [*run.split(), "--scenario", str(SCENARIOS / scenario), "--out", str(out / run.replace(" ", "_"))]
        codes[run] = cli.main([*argv, "--quiet"])
    return codes


def lower_levels() -> list[str]:
    """NPY_DISABLE_CPU_FEATURES values, one per dispatch level below the
    host's best: each disables a target that some ufunc loop can use here,
    and every dispatch target above it."""
    usable = {
        target
        for signatures in np.lib.introspect.opt_func_info().values()
        for loop in signatures.values()
        for target in loop["available"].split()
    }
    steps = [i for i, target in enumerate(__cpu_dispatch__) if target in usable]
    return [" ".join(__cpu_dispatch__[i:]) for i in steps]


def _results(out: Path) -> dict:
    """Per run, file name -> the JSON value, or the CSV as (header, table);
    a manifest without its host, its time, or its artifacts' bytes."""
    results = {}
    for run_dir in sorted(out.iterdir()):
        files = {}
        for path in sorted(run_dir.iterdir()):
            if path.suffix == ".csv":
                header, *rows = path.read_text().splitlines()
                header = header.split(",")
                table = np.array([row.split(",") for row in rows], dtype=float).reshape(len(rows), len(header))
                files[path.name] = (header, table)
            else:
                files[path.name] = json.loads(path.read_text())
        manifest = files["run_manifest.json"]
        del manifest["duration_s"], manifest["environment"]
        manifest["outputs"] = [entry["file"] for entry in manifest["outputs"]]
        results[run_dir.name] = files
    return results


def _column_moves(best: dict, lower: dict) -> list[str]:
    """Every CSV column that moved by more than its bound."""
    faults = []
    for run, files in best.items():
        for name, value in files.items():
            if not name.endswith(".csv"):
                continue
            header, table = value
            other_header, other = lower[run][name]
            assert other_header == header and other.shape == table.shape, (run, name)
            for j, column in enumerate(header):
                scale = np.max(np.abs(table[:, j]), initial=0.0)
                move = np.max(np.abs(other[:, j] - table[:, j]), initial=0.0)
                if move > BOUNDS.get(column, DEFAULT_BOUND) * scale:
                    faults.append(f"{run}/{name} {column}: moved {move!r} of {scale!r}")
    return faults


def test_shipped_runs_agree_across_dispatch_levels(tmp_path):
    levels = lower_levels()
    if not levels:
        pytest.skip(f"numpy dispatches no ufunc target above its baseline on this host ({cli._ufunc_dispatch()})")
    assert set(run_shipped(tmp_path / "best").values()) == {0}
    best = _results(tmp_path / "best")
    src = str(Path(cli.__file__).resolve().parent.parent)
    seen = {cli._ufunc_dispatch()}
    for i, disabled in enumerate(levels):
        out = tmp_path / f"level{i}"
        env = {
            **os.environ,
            "NPY_DISABLE_CPU_FEATURES": disabled,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        }
        child = subprocess.run(
            [sys.executable, __file__, str(out)], env=env, capture_output=True, text=True, check=True
        )
        report = json.loads(child.stdout)
        # each child ran at a level of its own, below the best
        assert report["ufunc_dispatch"] not in seen, (disabled, report)
        seen.add(report["ufunc_dispatch"])
        assert set(report["codes"].values()) == {0}, report
        lower = _results(out)
        assert lower.keys() == best.keys()
        for run, files in best.items():
            json_files = {name: value for name, value in files.items() if not name.endswith(".csv")}
            assert {name: lower[run][name] for name in json_files} == json_files, (disabled, run)
        assert _column_moves(best, lower) == [], disabled


if __name__ == "__main__":
    codes = run_shipped(Path(sys.argv[1]))
    print(json.dumps({"ufunc_dispatch": cli._ufunc_dispatch(), "codes": codes}))
