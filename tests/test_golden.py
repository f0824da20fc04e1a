"""The shipped runs' artifacts, byte for byte, against golden_sha256.json.

Artifact bytes are fixed per numpy version and per CPU target of numpy's
ufunc kernels, which numpy picks at run time: its transcendental kernels
round differently from one target to the next.  The golden file is keyed by
both, and on a host where either differs the test is skipped, naming the
difference; only the values are portable there, to a few ulps.

A documented artifact change rewrites the file:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from cavityfall import cli

GOLDEN = Path(__file__).with_name("golden_sha256.json")
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
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


def test_shipped_runs_match_the_golden_file(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    if golden["key"] != golden_key():
        pytest.skip(f"golden bytes are for {golden['key']}, this host runs {golden_key()}")
    assert shipped_digests(tmp_path) == golden["sha256"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        golden = {"key": golden_key(), "sha256": shipped_digests(Path(work))}
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
