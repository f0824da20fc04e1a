import contextlib
import functools
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import fields
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cavityfall
from cavityfall import (
    CavityFallError,
    CavitySpec,
    ExperimentConfig,
    GravityProfile,
    Grid1D,
    OutputSettings,
    PropagationSettings,
    cli,
    load_scenario,
    parse_scenario,
    scenario_to_dict,
)
from cavityfall.cli import DEFAULT_Q_SWEEP, _write_csv, main, run
from cavityfall.units import c as c_si


def read_csv(path):
    header, *rows = Path(path).read_text().splitlines()
    header = header.split(",")
    # a header-only file is an empty table, which loadtxt warns about
    data = np.loadtxt(rows, delimiter=",", ndmin=2) if rows else np.empty((0, len(header)))
    return header, data


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


# domain sized for ~12 sigma of edge clearance at t_final, where periodic
# wrap bias on the centroid is negligible against the 1e-6 criteria
SMALL_FREEFALL = {
    "cavity": {"lambda0": 1.064e-6, "n_s": 1.43, "Q": 7e10},
    "gravity": {"g": 9.81, "n_s": 1.43},
    "propagation": {
        "grid": {"y_min": -6.4, "y_max": 6.4, "n_points": 1024},
        "dt": 2e-5,
        "t_final": 4e-3,
        "sigma0": 0.1,
    },
    "output": {"directory": "out", "stride": 20},
}


@pytest.fixture()
def small_scenario():
    return parse_scenario(json.dumps(SMALL_FREEFALL))


@pytest.fixture()
def reference_scenario(scenario_dir):
    return load_scenario(scenario_dir / "caf2_wgmc.json")


class TestDispersionCommand:
    def test_csv_layout_and_values(self, small_scenario, tmp_path):
        manifest = run("dispersion", small_scenario, tmp_path, k_points=64)
        header, data = read_csv(tmp_path / "dispersion.csv")
        assert header == ["k_par", "omega", "v_g"]
        assert data.shape == (64, 3)
        assert data[0, 0] == 0.0
        assert data[0, 2] == 0.0
        assert data[0, 1] == pytest.approx(small_scenario.cavity.omega0, rel=1e-15)
        assert np.all(np.diff(data[:, 1]) > 0)
        assert manifest["derived"]["m_s_parallel"] == pytest.approx(4.25e-36, rel=1e-3)

    def test_requires_cavity(self, reference_scenario, tmp_path):
        from cavityfall import ValidationError

        with pytest.raises(ValidationError, match="cavity"):
            run("dispersion", reference_scenario, tmp_path)


class TestFreefallCommands:
    def test_analytic_matches_closed_form(self, small_scenario, tmp_path):
        run("freefall-analytic", small_scenario, tmp_path)
        header, data = read_csv(tmp_path / "freefall_analytic.csv")
        assert header == ["t_si", "y_si", "v_si", "k_si", "phase_grad_si"]
        t = data[:, 0]
        g_tilde = 9.81 / 1.43**2
        assert np.allclose(data[:, 1], -0.5 * g_tilde * t**2, rtol=1e-14, atol=0.0)
        assert np.allclose(data[:, 2], -g_tilde * t, rtol=1e-14, atol=0.0)
        omega0 = small_scenario.cavity.omega0
        assert np.allclose(data[:, 4], omega0 * 9.81 * t / c_si**2, rtol=1e-14, atol=0.0)

    def test_numeric_trace_and_manifest(self, small_scenario, tmp_path):
        manifest = run("freefall-numeric", small_scenario, tmp_path)
        header, data = read_csv(tmp_path / "freefall_numeric.csv")
        assert header == ["t_si", "y_si", "sigma_si", "k_si", "norm", "energy_si", "phase_grad_si"]
        t = data[:, 0]
        assert t[0] == 0.0
        assert t[-1] == pytest.approx(4e-3, rel=1e-12)
        g_tilde = 9.81 / 1.43**2
        final_drop = 0.5 * g_tilde * t[-1] ** 2
        assert np.max(np.abs(data[:, 1] + 0.5 * g_tilde * t**2)) < 1e-6 * final_drop
        assert np.all(np.abs(data[:, 4] - 1.0) < 1e-12)
        conv = manifest["convergence"]
        assert conv["n_steps"] == 200
        assert conv["record_stride"] == 20
        assert conv["norm_drift"] < 1e-12
        assert conv["energy_drift"] < 1e-10

    def test_numeric_and_analytic_agree(self, small_scenario, tmp_path):
        # the SI evolution (propagator mass m/hbar) reproduces the
        # closed-form SI observables to 1e-10 of the final fall
        run("freefall-numeric", small_scenario, tmp_path / "num")
        run("freefall-analytic", small_scenario, tmp_path / "ana")
        _, numeric = read_csv(tmp_path / "num" / "freefall_numeric.csv")
        _, analytic = read_csv(tmp_path / "ana" / "freefall_analytic.csv")
        assert numeric.shape[0] == analytic.shape[0]
        assert np.array_equal(numeric[:, 0], analytic[:, 0])
        scale = abs(analytic[-1, 1])
        assert np.max(np.abs(numeric[:, 1] - analytic[:, 1])) < 1e-10 * scale
        assert np.max(np.abs(np.abs(numeric[1:, 3]) - analytic[1:, 3])) < 1e-10 * abs(analytic[-1, 3])

    def test_momentum_past_nyquist_matches_analytic(self, scenario_dir, tmp_path):
        # a 1e5 times heavier photon on the shipped grid: its momentum
        # m g_tilde t/hbar passes the grid's Nyquist wavenumber pi/dy, which
        # resolves the envelope but not the carrier exp(-i F t y)
        doc = json.loads((scenario_dir / "freefall_caf2.json").read_text())
        doc["cavity"]["lambda0"] = 1.064e-11
        scenario_path = tmp_path / "heavy.json"
        scenario_path.write_text(json.dumps(doc))
        for command in ("freefall-numeric", "freefall-analytic"):
            argv = [command, "--scenario", str(scenario_path), "--out", str(tmp_path / command), "--quiet"]
            assert main(argv) == 0
        _, numeric = read_csv(tmp_path / "freefall-numeric" / "freefall_numeric.csv")
        _, analytic = read_csv(tmp_path / "freefall-analytic" / "freefall_analytic.csv")
        grid = doc["propagation"]["grid"]
        nyquist = np.pi * grid["n_points"] / (grid["y_max"] - grid["y_min"])
        assert analytic[-1, 3] > 5.0 * nyquist
        assert numeric[-1, 3] == pytest.approx(-analytic[-1, 3], rel=1e-12)


class TestFig2bCommand:
    def test_reference_run_produces_three_traces(self, reference_scenario, tmp_path):
        manifest = run("fig2b", reference_scenario, tmp_path, width_model="paper")
        names = [entry["file"] for entry in manifest["outputs"]]
        assert names == [
            "fig2b_Q3e+10.csv",
            "fig2b_Q5e+10.csv",
            "fig2b_Q7e+10.csv",
            "fig2b_summary.json",
        ]
        summary = json.loads((tmp_path / "fig2b_summary.json").read_text())
        assert summary["width_model"] == "paper_verbatim"
        assert [entry["Q"] for entry in summary["traces"]] == [3e10, 5e10, 7e10]
        header, data = read_csv(tmp_path / "fig2b_Q7e+10.csv")
        assert header == ["t_si", "i_signal", "sn"]
        assert data[0, 1] == 0.0 and data[0, 2] == 0.0

    def test_custom_q_list(self, reference_scenario, tmp_path):
        manifest = run("fig2b", reference_scenario, tmp_path, q_values=[1e10])
        assert manifest["command_args"]["q_values"] == [1e10]
        assert (tmp_path / "fig2b_Q1e+10.csv").exists()

    def test_requires_experiment(self, small_scenario, tmp_path):
        from cavityfall import ValidationError

        with pytest.raises(ValidationError, match="experiment"):
            run("fig2b", small_scenario, tmp_path)


# the default qthreshold's q_min on scenarios/caf2_wgmc.json, times 1 -/+ 2e-5
_NARROW_Q_BRACKET = (178792915344.23828 * (1 - 2e-5), 178792915344.23828 * (1 + 2e-5))


class TestQThresholdCommand:
    def test_outputs_and_log(self, reference_scenario, tmp_path):
        manifest = run(
            "qthreshold", reference_scenario, tmp_path, width_model="paper", q_lo=1e9, q_hi=1e12
        )
        result = json.loads((tmp_path / "qthreshold_result.json").read_text())
        assert 1e10 < result["q_min"] < 1e11
        header, data = read_csv(tmp_path / "qthreshold_iterations.csv")
        assert header == ["iteration", "q_lo", "q_hi", "q_mid", "sn_peak_mid"]
        assert data.shape[0] == result["n_iterations"]
        assert manifest["command_args"] == {"q_lo": 1e9, "q_hi": 1e12}

    def test_bracket_inside_the_tolerance_takes_no_iteration(self, scenario_dir, tmp_path, capsys):
        # q_min*(1 -/+ 2e-5) is narrower than the bisection's 1e-4 bracket
        # and still straddles Sn_peak = 1: a header-only log, exit 0
        q_lo, q_hi = _NARROW_Q_BRACKET
        argv = ["qthreshold", "--scenario", str(scenario_dir / "caf2_wgmc.json"), "--out", str(tmp_path), "--quiet"]
        assert main([*argv, f"--q-lo={q_lo!r}", f"--q-hi={q_hi!r}"]) == 0
        assert capsys.readouterr().err == ""
        log = (tmp_path / "qthreshold_iterations.csv").read_text()
        assert log == "iteration,q_lo,q_hi,q_mid,sn_peak_mid\n"
        result = json.loads((tmp_path / "qthreshold_result.json").read_text())
        assert result["n_iterations"] == 0
        assert result["q_min"] == 0.5 * (q_lo + q_hi)


class TestDeterminismAndReplay:
    def test_identical_runs_are_byte_identical(self, small_scenario, tmp_path):
        run("freefall-numeric", small_scenario, tmp_path / "a")
        run("freefall-numeric", small_scenario, tmp_path / "b")
        assert sha256(tmp_path / "a" / "freefall_numeric.csv") == sha256(
            tmp_path / "b" / "freefall_numeric.csv"
        )

    def test_manifest_replay_reproduces_outputs(self, reference_scenario, small_scenario, tmp_path):
        # the manifest's resolved scenario plus command args must regenerate
        # byte-identical CSVs
        for command, scenario, kwargs in (
            ("fig2b", reference_scenario, {"width_model": "paper"}),
            ("freefall-numeric", small_scenario, {}),
        ):
            first = run(command, scenario, tmp_path / command / "first", **kwargs)
            replay_scenario = parse_scenario(json.dumps(first["resolved_scenario"]))
            second = run(command, replay_scenario, tmp_path / command / "second", **first["command_args"])
            for entry_a, entry_b in zip(first["outputs"], second["outputs"]):
                assert entry_a["file"] == entry_b["file"]
                assert entry_a["sha256"] == entry_b["sha256"]
            # the environment that produced the run, the same for every run of a process
            environment = {"cavityfall", "python", "numpy", "platform", "ufunc_dispatch", "malloc_thresholds"}
            assert set(first["environment"]) == environment
            assert first["environment"]["cavityfall"] == cavityfall.__version__
            assert second["environment"] == first["environment"]

    def test_csv_bytes_match_per_value_repr(self, tmp_path):
        # the column-wise formatting writes the bytes of repr(float(v)) per
        # value, signed zeros, subnormals and huge values included
        rng = np.random.default_rng(3)
        columns = [rng.standard_normal(2001) * 10.0 ** rng.integers(-300, 300, 2001) for _ in range(3)]
        for col, special in zip(columns, ([0.0, -0.0], [5e-324, -5e-324], [1e308, -1.7976931348623157e308])):
            col[: len(special)] = special
        columns.append(np.arange(2001, dtype=float))
        header = ("a", "b", "c", "i")
        _write_csv(tmp_path / "columns.csv", header, columns)
        rows = [",".join(repr(float(v)) for v in row) for row in zip(*columns)]
        expected = "\n".join([",".join(header), *rows]) + "\n"
        assert (tmp_path / "columns.csv").read_bytes() == expected.encode()

    def test_csv_floats_are_shortest_round_trip(self, small_scenario, tmp_path):
        run("freefall-analytic", small_scenario, tmp_path)
        body = (tmp_path / "freefall_analytic.csv").read_text().splitlines()[1:]
        for line in body:
            for token in line.split(","):
                assert repr(float(token)) == token


class TestMainEntryPoint:
    def test_happy_path_exit_zero(self, scenario_dir, tmp_path, capsys):
        code = main(
            [
                "dispersion",
                "--scenario",
                str(scenario_dir / "freefall_caf2.json"),
                "--out",
                str(tmp_path),
                "--k-points",
                "32",
            ]
        )
        assert code == 0
        assert "dispersion.csv" in capsys.readouterr().out

    def test_validation_error_exit_two(self, scenario_dir, tmp_path, capsys):
        code = main(
            ["fig2b", "--scenario", str(scenario_dir / "freefall_caf2.json"), "--out", str(tmp_path)]
        )
        assert code == 2
        assert "experiment" in capsys.readouterr().err

    def test_domain_error_exit_three(self, tmp_path, capsys):
        # analytic free fall beyond the non-relativistic domain
        doc = json.loads(json.dumps(SMALL_FREEFALL))
        doc["propagation"]["t_final"] = 1e6
        doc["propagation"]["dt"] = 1e3
        scenario_path = tmp_path / "relativistic.json"
        scenario_path.write_text(json.dumps(doc))
        code = main(
            ["freefall-analytic", "--scenario", str(scenario_path), "--out", str(tmp_path / "out")]
        )
        assert code == 3
        assert "non-relativistic" in capsys.readouterr().err

    def test_io_error_exit_four(self, scenario_dir, tmp_path, capsys):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        code = main(
            [
                "dispersion",
                "--scenario",
                str(scenario_dir / "freefall_caf2.json"),
                "--out",
                str(blocker),
                "--quiet",
            ]
        )
        assert code == 4

    def test_quiet_suppresses_progress(self, scenario_dir, tmp_path, capsys):
        code = main(
            [
                "dispersion",
                "--scenario",
                str(scenario_dir / "freefall_caf2.json"),
                "--out",
                str(tmp_path),
                "--quiet",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out == ""

    def test_width_model_flag_changes_fig2b(self, scenario_dir, tmp_path):
        base = ["fig2b", "--scenario", str(scenario_dir / "caf2_wgmc.json"), "--q", "7e10", "--quiet"]
        assert main(base + ["--out", str(tmp_path / "p"), "--width-model", "paper"]) == 0
        assert main(base + ["--out", str(tmp_path / "c"), "--width-model", "corrected"]) == 0
        paper = json.loads((tmp_path / "p" / "fig2b_summary.json").read_text())
        corrected = json.loads((tmp_path / "c" / "fig2b_summary.json").read_text())
        assert paper["traces"][0]["sn_peak"] > 1.0
        assert corrected["traces"][0]["sn_peak"] < 0.01
        assert sha256(tmp_path / "p" / "fig2b_Q7e+10.csv") != sha256(tmp_path / "c" / "fig2b_Q7e+10.csv")

    @pytest.mark.parametrize("k_points", ["-1", "0", str(10**12)])
    def test_k_points_out_of_range_exit_two(self, scenario_dir, tmp_path, capsys, k_points):
        # rejected before np.linspace allocates anything
        argv = ["dispersion", "--scenario", str(scenario_dir / "freefall_caf2.json"), "--out", str(tmp_path)]
        assert main(argv + ["--k-points", k_points, "--quiet"]) == 2
        assert "--k-points" in capsys.readouterr().err
        assert not (tmp_path / "dispersion.csv").exists()

    @pytest.mark.parametrize("option, value", [("--k-max", "inf"), ("--k-min", "-inf"), ("--k-max", "nan")])
    def test_non_finite_k_bounds_exit_two(self, scenario_dir, tmp_path, capsys, option, value):
        # rejected before np.linspace would fill the rows with nan/inf
        argv = ["dispersion", "--scenario", str(scenario_dir / "freefall_caf2.json"), "--out", str(tmp_path)]
        assert main(argv + [f"{option}={value}", "--k-points", "4", "--quiet"]) == 2
        assert f"{option}: must be finite" in capsys.readouterr().err
        assert not (tmp_path / "dispersion.csv").exists()

    @pytest.mark.parametrize(
        "bounds, named",
        [
            # omega = E/hbar overflows at the upper end
            (["--k-min=1e200", "--k-max=1.7e308"], "--k-max: the photon energy"),
            # k_max - k_min overflows, and linspace would fill rows with nan
            (["--k-min=-1.7e308", "--k-max=1.7e308"], "--k-min, --k-max: the span"),
        ],
    )
    def test_wavenumbers_out_of_double_range_exit_two(self, scenario_dir, tmp_path, capsys, bounds, named):
        argv = ["dispersion", "--scenario", str(scenario_dir / "freefall_caf2.json"), "--out", str(tmp_path)]
        assert main(argv + bounds + ["--k-points", "3", "--quiet"]) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "dispersion.csv").exists()

    def test_overflowing_default_k_max_names_the_cavity(self, scenario_dir, tmp_path, capsys):
        # a valid cavity whose default k_max = 2*omega0/c_medium overflows:
        # the message names the cavity, not an option that was never given
        doc = json.loads((scenario_dir / "freefall_caf2.json").read_text())
        doc["cavity"] = {"L": 1e-300, "j": 1000000000, "n_s": 1e10}
        doc["gravity"]["n_s"] = 1e10
        scenario_path = tmp_path / "tiny.json"
        scenario_path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["dispersion", "--scenario", str(scenario_path), "--out", str(out), "--k-points", "4", "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("validation error: cavity: ") and "(the default k_max = 2*omega0/c_medium)" in err
        assert "--k-max" not in err
        assert not (out / "dispersion.csv").exists()

    def test_leftover_temp_directory_does_not_block_a_write(self, scenario_dir, tmp_path):
        # each write goes through its own temp file, so a stale or concurrent
        # run's "<file>.tmp" is never in the way
        (tmp_path / "dispersion.csv.tmp").mkdir()
        argv = ["dispersion", "--scenario", str(scenario_dir / "freefall_caf2.json"), "--out", str(tmp_path)]
        assert main(argv + ["--k-points", "4", "--quiet"]) == 0
        assert (tmp_path / "dispersion.csv").is_file()
        assert [p for p in tmp_path.glob("*.tmp") if p.is_file()] == []

    def test_failed_write_leaves_no_temp_file(self, scenario_dir, tmp_path):
        # the rename onto a directory fails: exit 4, and the temp file goes
        (tmp_path / "dispersion.csv").mkdir()
        argv = ["dispersion", "--scenario", str(scenario_dir / "freefall_caf2.json"), "--out", str(tmp_path)]
        assert main(argv + ["--k-points", "4", "--quiet"]) == 4
        assert list(tmp_path.glob("*.tmp")) == []

    def test_domain_escape_reports_si_time_and_grid(self, scenario_dir, tmp_path, capsys):
        # the shipped drop run for 2 s leaves its +/- 64 m grid at t = 0.14 s
        doc = json.loads((scenario_dir / "freefall_caf2.json").read_text())
        doc["propagation"]["t_final"] = 2.0
        doc["output"]["stride"] = 250
        scenario_path = tmp_path / "long_drop.json"
        scenario_path.write_text(json.dumps(doc))
        argv = ["freefall-numeric", "--scenario", str(scenario_path), "--out", str(tmp_path / "out"), "--quiet"]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "t = 0.14" in err
        assert "+/- 86.9157" in err

    def test_fig2b_failing_at_a_later_q_writes_nothing(self, scenario_dir, tmp_path, capsys):
        # out-couplers 50 sigma0 off centre: at Q = 1e3 the mode has no time
        # to spread, so both peaks underflow to 0 and their ratio is undefined
        doc = json.loads((scenario_dir / "caf2_wgmc.json").read_text())
        doc["experiment"]["sigma0"] = 0.01
        scenario_path = tmp_path / "narrow.json"
        scenario_path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        argv = ["fig2b", "--scenario", str(scenario_path), "--out", str(out), "--q", "7e10", "1e3", "--quiet"]
        assert main(argv) == 3
        assert "experiment: at Q = 1000" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("q_values", [["7e10", "7.0000001e10"], ["5e10", "3e10", "5e10"]])
    def test_fig2b_q_values_sharing_a_file_name_exit_two(self, scenario_dir, tmp_path, capsys, q_values):
        # both would write the same fig2b_Q{q:g}.csv, the second overwriting the first
        out = tmp_path / "out"
        argv = ["fig2b", "--scenario", str(scenario_dir / "caf2_wgmc.json"), "--out", str(out), "--q", *q_values]
        assert main(argv + ["--quiet"]) == 2
        assert "--q" in capsys.readouterr().err
        assert not out.exists() or list(out.iterdir()) == []

    def test_scenario_not_utf8_exit_two(self, tmp_path, capsys):
        scenario_path = tmp_path / "latin1.json"
        scenario_path.write_bytes(b'{"output": {"directory": "\xff"}}')
        assert main(["dispersion", "--scenario", str(scenario_path), "--out", str(tmp_path / "out")]) == 2
        assert "validation error: scenario: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["fig2b", "--q", "7e10", "nan"], "--q"),
            (["fig2b", "--q", "inf"], "--q"),
            (["qthreshold", "--q-hi", "inf"], "--q-hi"),
            (["qthreshold", "--q-lo=-inf"], "--q-lo"),
        ],
    )
    def test_non_finite_q_options_name_the_option(self, scenario_dir, tmp_path, capsys, argv, option):
        out = tmp_path / "out"
        argv = [*argv, "--scenario", str(scenario_dir / "caf2_wgmc.json"), "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"validation error: {option}: ") and "experiment.Q" not in err
        assert not out.exists() or list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "bracket, code, option",
        [
            (["--q-lo", "0"], 2, "--q-lo"),
            (["--q-lo", "1e12", "--q-hi", "1e9"], 2, "--q-hi"),
            # the default q_hi, 1e12, lies below this q_lo
            (["--q-lo", "1e13"], 2, "--q-hi"),
            # peak SNR already above 1 at q_lo, or still below 1 at q_hi
            (["--q-lo", "5e11"], 3, "--q-lo"),
            (["--q-hi", "1e10"], 3, "--q-hi"),
        ],
    )
    def test_qthreshold_bracket_names_the_option(self, scenario_dir, tmp_path, capsys, bracket, code, option):
        out = tmp_path / "out"
        argv = ["qthreshold", "--scenario", str(scenario_dir / "caf2_wgmc.json"), "--out", str(out), *bracket]
        assert main(argv) == code
        assert capsys.readouterr().err.split(": ")[1] == option
        assert not out.exists() or list(out.iterdir()) == []

    def test_experiment_disagreeing_with_cavity_exit_two(self, scenario_dir, tmp_path, capsys):
        reference = json.loads((scenario_dir / "caf2_wgmc.json").read_text())
        doc = {"cavity": {"lambda0": 1.55e-6, "n_s": 1.43}, "experiment": reference["experiment"]}
        scenario_path = tmp_path / "mixed.json"
        scenario_path.write_text(json.dumps(doc))
        argv = ["fig2b", "--scenario", str(scenario_path), "--q", "7e10", "--quiet"]
        assert main(argv + ["--out", str(tmp_path / "bad")]) == 2
        assert "experiment.lambda0" in capsys.readouterr().err
        doc["cavity"]["lambda0"] = reference["experiment"]["lambda0"]
        scenario_path.write_text(json.dumps(doc))
        assert main(argv + ["--out", str(tmp_path / "good")]) == 0
        manifest = json.loads((tmp_path / "good" / "run_manifest.json").read_text())
        assert manifest["derived"]["omega0"] == pytest.approx(2 * np.pi * c_si / 1.064e-6, rel=1e-12)


def _run_main(argv, capsys):
    """Exit code, stdout and stderr of one main() call, and the files it
    wrote: their bytes, the manifest's without its duration."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    files = {}
    if "--out" in argv:
        out = Path(argv[argv.index("--out") + 1])
        for path in sorted(out.glob("*")) if out.is_dir() else ():
            if path.name == "run_manifest.json":
                manifest = json.loads(path.read_text())
                del manifest["duration_s"]
                files[path.name] = manifest
            else:
                files[path.name] = path.read_bytes()
    return code, captured.out, captured.err, files


class TestOneParserPerProcess:
    def test_import_builds_no_parser(self):
        probe = "import cavityfall.cli as cli; print(cli._build_parser.cache_info().currsize)"
        src = str(Path(cavityfall.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
        assert done.stdout.strip() == "0"

    def test_calls_in_sequence_share_no_state(self, scenario_dir, tmp_path, capsys):
        # each call's outputs equal those of the same call made alone, that
        # is, as the first call of a process, with a parser built for it
        wgmc, freefall = str(scenario_dir / "caf2_wgmc.json"), str(scenario_dir / "freefall_caf2.json")
        calls = [
            ["fig2b", "--scenario", wgmc, "--q"],  # --q needs a value: argparse exits 2
            ["fig2b", "--scenario", wgmc, "--q", "3e10"],
            ["fig2b", "--scenario", wgmc],
            ["qthreshold", "--scenario", wgmc, "--width-model", "paper"],
            ["qthreshold", "--scenario", wgmc],
            ["dispersion", "--scenario", freefall, "--k-points", "7"],
            ["dispersion", "--scenario", freefall],
        ]
        cli._build_parser.cache_clear()
        in_sequence = [
            _run_main([*argv, "--out", str(tmp_path / "seq" / str(i)), "--quiet"], capsys) for i, argv in enumerate(calls)
        ]
        assert cli._build_parser.cache_info().currsize == 1
        for i, argv in enumerate(calls):
            cli._build_parser.cache_clear()
            assert in_sequence[i] == _run_main([*argv, "--out", str(tmp_path / "alone" / str(i)), "--quiet"], capsys), argv

        codes = [result[0] for result in in_sequence]
        assert codes == [2, 0, 0, 0, 0, 0, 0]
        assert "--q" in in_sequence[0][2]
        manifests = [result[3].get("run_manifest.json") for result in in_sequence]
        assert manifests[1]["command_args"]["q_values"] == [3e10]
        assert manifests[2]["command_args"]["q_values"] == list(DEFAULT_Q_SWEEP)
        assert manifests[3]["resolved_scenario"]["experiment"]["width_model"] == "paper_verbatim"
        scenario_model = load_scenario(wgmc).experiment.width_model
        assert manifests[4]["resolved_scenario"]["experiment"]["width_model"] == scenario_model
        assert manifests[5]["command_args"]["k_points"] == 7
        assert manifests[6]["command_args"]["k_points"] == 256
        assert in_sequence[6][3]["dispersion.csv"].count(b"\n") == 257

    @pytest.mark.parametrize("argv", [["--help"], ["fig2b", "--help"]])
    def test_help_is_the_same_on_every_call(self, argv, capsys):
        # the first call builds the parser, the second reuses it
        cli._build_parser.cache_clear()
        helps = [_run_main(argv, capsys) for _ in range(2)]
        assert helps[0][0] == 0 and helps[0][1].startswith("usage: cavityfall")
        assert helps[0] == helps[1]


_SMALL_GRID = (-6.4, 6.4, 1024)
# SMALL_FREEFALL's values of the inputs the exit-code property draws; each
# _case(...) is an @example that changes some of them
_SMALL_CASE = dict(
    dt=2e-5,
    t_final=4e-3,
    grid=_SMALL_GRID,
    stride=20,
    lambda0=1.064e-6,
    geometry=None,
    n_s=1.43,
    quality=7e10,
    sigma0=0.1,
    g=9.81,
)


# scenarios/caf2_wgmc.json
_REFERENCE_EXPERIMENT = dict(
    lambda0=1.064e-6, sigma0=0.1, y_out=0.5, P_avg=1e-3, eta_det=1e-3, T_int=3600, Q=7e10, n_s=1.43, g=9.81
)


def _log_uniform(low_exp, high_exp):
    return st.floats(low_exp, high_exp).map(lambda e: 10.0**e)


# a wavenumber bound [rad/m]: around the shipped grid's 1.7e7, +/- 1e-300
# to 1e308, zero, or not finite
_WAVENUMBER = st.one_of(
    _log_uniform(-3, 8),
    st.tuples(st.sampled_from([-1.0, 1.0]), _log_uniform(-300, 308)).map(lambda pair: pair[0] * pair[1]),
    st.sampled_from([0.0, float("inf"), float("-inf"), float("nan")]),
)
# options of the dispersion command, each drawn or left at its default
_DISPERSION_OPTIONS = st.fixed_dictionaries(
    {},
    optional={
        "--k-min": _WAVENUMBER,
        "--k-max": _WAVENUMBER,
        "--k-points": st.one_of(st.integers(-1, 300), st.just(10**7)),
    },
)
_WIDTH_MODEL_OPTION = {"--width-model": st.sampled_from(["paper", "corrected"])}
# options of the experiment commands: a Q sweep for fig2b, a bracket for
# qthreshold; Q around the reference's 1e9 to 1e12, 1e-300 to 1e300, or zero
_Q = st.one_of(_log_uniform(8, 13), _log_uniform(-300, 300), st.just(0.0))
_EXPERIMENT_OPTIONS = {
    "fig2b": st.fixed_dictionaries({}, optional={**_WIDTH_MODEL_OPTION, "--q": st.lists(_Q, min_size=1, max_size=3)}),
    "qthreshold": st.fixed_dictionaries({}, optional={**_WIDTH_MODEL_OPTION, "--q-lo": _Q, "--q-hi": _Q}),
}


def _argv(options):
    """Command-line words of {option: value or list of values}; a single
    value is attached with "=", so that a negative number is not read as an
    option."""
    words = []
    for option, value in options.items():
        words += [option, *map(str, value)] if isinstance(value, list) else [f"{option}={value}"]
    return words


def _case(command, expected, **changes):
    return example(**{**_SMALL_CASE, "command": command, "expected": expected, **changes})


_SECTIONS = {
    "cavity": CavitySpec,
    "gravity": GravityProfile,
    "propagation": PropagationSettings,
    "propagation.grid": Grid1D,
    "experiment": ExperimentConfig,
    "output": OutputSettings,
}
#: what an error's key may name: a scenario section or one of its keys
#: (a cavity may give lambda0 for L and j), or a command-line option
_KEYS = {
    *_SECTIONS,
    *(f"{section}.{field.name}" for section, cls in _SECTIONS.items() for field in fields(cls)),
    "cavity.lambda0",
    *("--k-min", "--k-max", "--k-points", "--q", "--q-lo", "--q-hi", "--width-model"),
}


def _names_keys(key):
    # a check of two options together names both: "--k-min, --k-max"
    return key is not None and all(part in _KEYS for part in key.split(", "))


@contextlib.contextmanager
def _errors_raised():
    """The library errors that main() reports, as it reads the scenario and runs the command."""
    raised = []

    def recorded(function):
        @functools.wraps(function)
        def call(*args, **kwargs):
            try:
                return function(*args, **kwargs)
            except CavityFallError as exc:
                raised.append(exc)
                raise

        return call

    with mock.patch.object(cli, "load_scenario", recorded(cli.load_scenario)):
        with mock.patch.object(cli, "run", recorded(cli.run)):
            yield raised


def _run_document(command, doc, options):
    """Exit code of one command on doc with the given command-line options;
    exit 0 must leave only finite numbers, each output listed once in the
    manifest with its file's sha256, and exit 2 or 3 must come from an error
    whose key names a scenario key or an option."""
    with tempfile.TemporaryDirectory() as work:
        scenario_path = Path(work) / "scenario.json"
        scenario_path.write_text(json.dumps(doc))
        out = Path(work) / "out"
        with _errors_raised() as raised:
            code = main([command, "--scenario", str(scenario_path), "--out", str(out), "--quiet", *_argv(options)])
        if code in (2, 3):
            assert len(raised) == 1 and _names_keys(raised[0].key), [str(exc) for exc in raised]
        if code == 0:
            outputs = json.loads((out / "run_manifest.json").read_text())["outputs"]
            names = [entry["file"] for entry in outputs]
            assert len(set(names)) == len(names), names
            for entry in outputs:
                path = out / entry["file"]
                assert path.is_file() and sha256(path) == entry["sha256"], entry["file"]
            for path in out.iterdir():
                if path.suffix == ".csv":
                    assert np.all(np.isfinite(read_csv(path)[1])), path.name
                else:
                    json.loads(path.read_text(), parse_constant=lambda name: pytest.fail(f"{path.name}: {name}"))
    assert code in (0, 2, 3, 4)
    return code


class TestExitCodes:
    """Every generated document ends in a documented exit code, never a
    traceback, and a run that exits 0 writes only finite numbers and a
    manifest whose outputs exist, once each, with their sha256."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        command=st.sampled_from(["freefall-numeric", "freefall-analytic", "dispersion"]),
        dt=_log_uniform(-300, 300),
        t_final=_log_uniform(-300, 300),
        # (y_min, y_max, n_points): the small valid grid half of the time,
        # otherwise edges and point counts that include invalid values
        grid=st.one_of(
            st.just(_SMALL_GRID),
            st.tuples(
                st.sampled_from([-6.4, -1e300, 0.0, 6.4]),
                st.sampled_from([6.4, 1e300, 0.0]),
                st.sampled_from([1024, 64, 1000, 32, 2**40]),
            ),
        ),
        stride=st.one_of(st.none(), st.integers(1, 8)),
        lambda0=_log_uniform(-300, 300),
        # the cavity as (L, j) instead of lambda0
        geometry=st.one_of(st.none(), st.tuples(_log_uniform(-300, 300), st.integers(1, 10**6))),
        n_s=st.one_of(st.just(1.43), _log_uniform(0, 300)),
        quality=st.one_of(st.none(), _log_uniform(-300, 300)),
        sigma0=_log_uniform(-300, 300),
        g=_log_uniform(-300, 300),
        expected=st.none(),
    )
    # overflowing step counts: 1e8 steps whose composed phase overflows
    # (exit 3 from the non-finite check or the |v| limit), and a t_final/dt
    # that is not a finite number (exit 2)
    @_case("freefall-numeric", 3, dt=1e300, t_final=1e308, stride=None)
    @_case("freefall-analytic", 3, dt=1e300, t_final=1e308, stride=None)
    @_case("freefall-numeric", 2, dt=1e-300, t_final=1e10, stride=None)
    @_case("freefall-analytic", 2, dt=1e-300, t_final=1e10, stride=None)
    # extreme photon masses and packet widths: the SI propagation reports
    # them as numerical-domain errors; the closed-form fall does not care
    @_case("freefall-numeric", 3, lambda0=1e145)
    @_case("freefall-numeric", 3, lambda0=1e-171)
    @_case("freefall-numeric", 3, sigma0=1e150)
    @_case("freefall-numeric", 3, sigma0=1e-150)
    @_case("freefall-analytic", 0, lambda0=1e145)
    @_case("freefall-analytic", 0, lambda0=1e-171)
    @_case("freefall-analytic", 0, sigma0=1e150)
    @_case("freefall-analytic", 0, sigma0=1e-150)
    # a slow fall whose y = -g_tilde*t^2/2 overflows
    @_case("freefall-analytic", 3, dt=1.0, t_final=1e160, g=1e-160, stride=None)
    # g_tilde = g/n_s**2 overflows in n_s**2
    @_case("dispersion", 2, n_s=1.4e154)
    @_case("freefall-analytic", 2, n_s=1.4e154)
    # c_medium**2 underflows to 0, the mass overflows, the rest energy
    # underflows to 0
    @_case("dispersion", 2, geometry=(2.9e-194, 2), n_s=2.7e230)
    @_case("freefall-analytic", 2, geometry=(2.9e-194, 2), n_s=2.7e230)
    @_case("freefall-analytic", 2, geometry=(1.39e-268, 7), n_s=1.13e142)
    @_case("dispersion", 2, lambda0=5.8e299)
    # a mode order too large to convert to a float
    @_case("dispersion", 2, geometry=(1e-6, 10**400))
    # a finite mass m whose m/hbar, the propagator's mass, overflows
    @_case("freefall-numeric", 2, lambda0=1e-200, n_s=3e60)
    @_case("freefall-analytic", 0, lambda0=1e-200, n_s=3e60)
    def test_generated_documents_exit_documented(
        self, command, dt, t_final, grid, stride, lambda0, geometry, n_s, quality, sigma0, g, expected
    ):
        doc = json.loads(json.dumps(SMALL_FREEFALL))
        doc["cavity"] = {"lambda0": lambda0} if geometry is None else dict(zip(("L", "j"), geometry))
        doc["cavity"]["n_s"] = doc["gravity"]["n_s"] = n_s
        if quality is not None:
            doc["cavity"]["Q"] = quality
        doc["gravity"]["g"] = g
        doc["propagation"].update(dt=dt, t_final=t_final, sigma0=sigma0)
        doc["propagation"]["grid"] = dict(zip(("y_min", "y_max", "n_points"), grid))
        doc["output"] = {} if stride is None else {"stride": stride}
        code = _run_document(command, doc, {})
        if expected is not None:
            assert code == expected

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        lambda0=_log_uniform(-300, 300),
        geometry=st.one_of(st.none(), st.tuples(_log_uniform(-300, 300), st.integers(1, 10**9))),
        n_s=st.one_of(st.just(1.43), _log_uniform(0, 300)),
        options=_DISPERSION_OPTIONS,
        expected=st.none(),
    )
    # omega = E/hbar overflows at k_max; the span k_max - k_min overflows
    @example(lambda0=1.064e-6, geometry=None, n_s=1.43, options={"--k-min": 1e200, "--k-max": 1.7e308, "--k-points": 3}, expected=2)
    @example(lambda0=1.064e-6, geometry=None, n_s=1.43, options={"--k-min": -1.7e308, "--k-max": 1.7e308, "--k-points": 3}, expected=2)
    # a valid cavity whose default k_max = 2*omega0/c_medium overflows
    @example(lambda0=None, geometry=(1e-300, 10**9), n_s=1e10, options={"--k-points": 3}, expected=2)
    def test_generated_dispersion_options_exit_documented(self, lambda0, geometry, n_s, options, expected):
        # SMALL_FREEFALL with the cavity, and its wavenumber grid, drawn
        doc = json.loads(json.dumps(SMALL_FREEFALL))
        doc["cavity"] = {"lambda0": lambda0} if geometry is None else dict(zip(("L", "j"), geometry))
        doc["cavity"]["n_s"] = doc["gravity"]["n_s"] = n_s
        code = _run_document("dispersion", doc, options)
        if expected is not None:
            assert code == expected

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        command_and_options=st.sampled_from(["fig2b", "qthreshold"]).flatmap(
            lambda command: st.tuples(st.just(command), _EXPERIMENT_OPTIONS[command])
        ),
        # the reference experiment with some of its values made extreme
        changes=st.fixed_dictionaries(
            {},
            optional={
                **{key: _log_uniform(-300, 300) for key in ("lambda0", "sigma0", "y_out", "P_avg", "T_int", "Q", "g")},
                "eta_det": _log_uniform(-300, 0),
                "n_s": _log_uniform(0, 300),
                "width_model": st.sampled_from(["paper", "corrected"]),
            },
        ),
        expected=st.none(),
    )
    # squares of sigma0 and y_out that overflow
    @example(command_and_options=("fig2b", {}), changes={"sigma0": 1e160}, expected=2)
    @example(command_and_options=("qthreshold", {}), changes={"sigma0": 1e160}, expected=2)
    @example(command_and_options=("fig2b", {}), changes={"y_out": 1e200}, expected=2)
    @example(command_and_options=("qthreshold", {}), changes={"y_out": 1e200}, expected=2)
    # a signal that underflows to 0 in both width models
    @example(command_and_options=("fig2b", {}), changes={"g": 7.6e-249}, expected=3)
    # a photon count P*eta*T/(hbar*omega0) that overflows
    @example(command_and_options=("fig2b", {}), changes={"P_avg": 1e300, "T_int": 1e300}, expected=2)
    @example(command_and_options=("qthreshold", {}), changes={"P_avg": 1e300, "T_int": 1e300}, expected=2)
    # a photon whose mass hbar*omega0*n_s^2/c^2, reported in the manifest,
    # overflows
    @example(command_and_options=("fig2b", {}), changes={"lambda0": 1e-200, "n_s": 1e80}, expected=2)
    # Sn crosses 1 closer to t = 0 than the smallest float: the crossing
    # bisection runs out of floats and stops at t_cross = 0
    @example(command_and_options=("fig2b", {}), changes={"sigma0": 1.0, "eta_det": 1.0, "T_int": 4.41e196, "g": 1.439e221}, expected=0)
    # Q options that are not finite name the option, not experiment.Q
    @example(command_and_options=("fig2b", {"--q": [math.nan]}), changes={}, expected=2)
    @example(command_and_options=("fig2b", {"--q": [7e10, math.inf]}), changes={}, expected=2)
    @example(command_and_options=("qthreshold", {"--q-hi": math.inf}), changes={}, expected=2)
    @example(command_and_options=("qthreshold", {"--q-lo": math.nan}), changes={}, expected=2)
    # a q_lo whose trace window underflows to 0, and a bracket below the threshold
    @example(command_and_options=("qthreshold", {"--q-lo": 5e-324}), changes={}, expected=2)
    @example(command_and_options=("qthreshold", {"--q-hi": 1e10}), changes={}, expected=3)
    # a bracket narrower than the bisection's tolerance: no iteration
    @example(
        command_and_options=("qthreshold", {"--q-lo": _NARROW_Q_BRACKET[0], "--q-hi": _NARROW_Q_BRACKET[1]}),
        changes={},
        expected=0,
    )
    def test_generated_experiments_exit_documented(self, command_and_options, changes, expected):
        command, options = command_and_options
        doc = {"experiment": {**_REFERENCE_EXPERIMENT, **changes}}
        code = _run_document(command, doc, options)
        if expected is not None:
            assert code == expected


class TestMallocThresholds:
    """main() pins glibc's mmap and trim thresholds on its first call, so
    that numpy's per-transform FFT scratch stays in the process."""

    @pytest.fixture(autouse=True)
    def _repin_after(self):
        # a test that clears the helper's cache leaves it empty, so that the
        # next main() pins (again) and manifests report it
        yield
        cli._pin_malloc.cache_clear()

    @pytest.mark.skipif(
        "glibc" not in (getattr(os, "confstr", lambda name: "")("CS_GNU_LIBC_VERSION") or ""), reason="needs glibc"
    )
    def test_second_16384_point_run_takes_no_page_faults(self, scenario_dir, tmp_path):
        import resource

        # the shipped fall on twice the points over twice the span:
        # pocketfft's 256 KiB scratch per transform is above glibc's default
        # mmap threshold, so without the pin each run takes ~3500 minor
        # faults in a fresh process (~500 after earlier tests have moved
        # glibc's dynamic thresholds)
        doc = json.loads((scenario_dir / "freefall_caf2.json").read_text())
        doc["propagation"]["grid"] = {"y_min": -128.0, "y_max": 128.0, "n_points": 16384}
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text(json.dumps(doc))
        faults = []
        for i in range(2):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            assert main(["freefall-numeric", "--scenario", str(scenario_path), "--out", str(tmp_path / str(i)), "--quiet"]) == 0
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        assert faults[1] < 100, faults
        manifest = json.loads((tmp_path / "1" / "run_manifest.json").read_text())
        expected = {"M_MMAP_THRESHOLD": 2**25, "M_TRIM_THRESHOLD": 2**25}
        assert manifest["environment"]["malloc_thresholds"] == expected

    # os.confstr's answer: the name is not defined, another C library, the
    # name is unknown to the platform
    @pytest.mark.parametrize("answer", [None, "musl", ValueError("unrecognized configuration name")])
    def test_no_op_without_glibc(self, answer, monkeypatch, scenario_dir, tmp_path):
        import ctypes

        def confstr(name):
            if isinstance(answer, Exception):
                raise answer
            return answer

        monkeypatch.setattr(os, "confstr", confstr, raising=False)
        monkeypatch.setattr(ctypes, "CDLL", lambda *args: pytest.fail("loaded the C library"))
        cli._pin_malloc.cache_clear()
        argv = ["dispersion", "--scenario", str(scenario_dir / "freefall_caf2.json"), "--out", str(tmp_path), "--quiet"]
        assert main(argv) == 0
        assert json.loads((tmp_path / "run_manifest.json").read_text())["environment"]["malloc_thresholds"] is None

    def test_pins_once_per_process(self, monkeypatch, scenario_dir, tmp_path):
        asked = []
        real_confstr = getattr(os, "confstr", lambda name: None)
        monkeypatch.setattr(os, "confstr", lambda name: asked.append(name) or real_confstr(name), raising=False)
        cli._pin_malloc.cache_clear()
        for i in range(3):
            argv = ["dispersion", "--scenario", str(scenario_dir / "freefall_caf2.json"), "--out", str(tmp_path / str(i))]
            assert main([*argv, "--quiet"]) == 0
        assert asked == ["CS_GNU_LIBC_VERSION"]
        reported = [json.loads((tmp_path / str(i) / "run_manifest.json").read_text())["environment"] for i in range(3)]
        assert reported[0]["malloc_thresholds"] == cli._pin_malloc()
        assert reported[1] == reported[0] and reported[2] == reported[0]

    def test_run_before_main_reports_no_pin(self, scenario_dir, tmp_path):
        # a fresh process: run() alone pins nothing and reports so; the
        # first main() pins, and the next manifest reports what it pinned
        probe = (
            "import json, sys; import cavityfall.cli as cli; "
            "scenario = cli.load_scenario(sys.argv[1]); "
            "first = cli.run('dispersion', scenario, sys.argv[2]); "
            "assert cli._pin_malloc.cache_info().currsize == 0; "
            "assert cli.main(['dispersion', '--scenario', sys.argv[1], '--out', sys.argv[2], '--quiet']) == 0; "
            "second = json.loads(open(sys.argv[2] + '/run_manifest.json').read()); "
            "print(json.dumps([first['environment']['malloc_thresholds'], second['environment']['malloc_thresholds'], cli._pin_malloc()]))"
        )
        src = str(Path(cavityfall.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        argv = [sys.executable, "-c", probe, str(scenario_dir / "freefall_caf2.json"), str(tmp_path)]
        first, second, pinned = json.loads(subprocess.run(argv, env=env, capture_output=True, text=True, check=True).stdout)
        assert first is None
        assert second == pinned


class TestErrorKeysOfDerivedValues:
    """A check of a value the run derives names the key that set it: the
    experiment's lambda0 and n_s for its photon's mass, and the option or
    scenario key of the Q at which the signal model overflows."""

    @pytest.mark.parametrize(
        "command, changes, options, code, line",
        [
            (
                "fig2b",
                {"lambda0": 1e-200, "n_s": 1e80},
                [],
                2,
                "validation error: experiment: rest energy and effective mass of lambda0 = 1e-200, n_s = 1e+80 "
                "must be in double range",
            ),
            # the window's end overflows at the option's Q, or at a bracket end
            ("fig2b", {}, ["--q", "1e307"], 3, "numerical-domain error: --q: the signal model overflows"),
            ("qthreshold", {}, ["--q-hi", "1e307"], 3, "numerical-domain error: --q-hi: the signal model overflows"),
            (
                "qthreshold",
                {},
                ["--q-lo", "1e306", "--q-hi", "1e307"],
                3,
                "numerical-domain error: --q-lo: the signal model overflows",
            ),
            # a q_lo whose trace window underflows to 0
            ("qthreshold", {}, ["--q-lo", "5e-324"], 2, "validation error: --q-lo: the trace window"),
            # at the scenario's own Q, also under another width model
            ("fig2b", {"Q": 1e307}, [], 3, "numerical-domain error: experiment.Q: the signal model overflows"),
            (
                "fig2b",
                {"width_model": "paper", "Q": 1e200},
                ["--q", "7e10", "--width-model", "corrected"],
                3,
                "numerical-domain error: experiment.Q: the signal model overflows",
            ),
            # an overflow already at t = 0 does not depend on Q
            (
                "fig2b",
                {"y_out": 1e150, "sigma0": 1e-150},
                [],
                3,
                "numerical-domain error: experiment: the signal model overflows",
            ),
        ],
    )
    def test_main_names_the_key(self, scenario_dir, tmp_path, capsys, command, changes, options, code, line):
        doc = json.loads((scenario_dir / "caf2_wgmc.json").read_text())
        doc["experiment"].update(changes)
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main([command, "--scenario", str(scenario_path), "--out", str(out), "--quiet", *options]) == code
        assert capsys.readouterr().err.startswith(line)
        assert not out.exists() or list(out.iterdir()) == []

    def test_cavity_given_as_length_and_order_keeps_its_keys(self, tmp_path, capsys):
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text(json.dumps({"cavity": {"L": 2.9e-194, "j": 2, "n_s": 2.7e230}}))
        assert main(["dispersion", "--scenario", str(scenario_path), "--out", str(tmp_path / "out")]) == 2
        expected = "rest energy and effective mass of L = 2.9e-194, j = 2, n_s = 2.7e+230 must be in double range"
        assert capsys.readouterr().err == f"validation error: cavity: {expected}\n"


class TestCommandTable:
    """run() passes a command's options to its runner alone, and only a
    command that propagates resolves the output stride."""

    @pytest.mark.parametrize(
        "command, scenario, option",
        [
            ("dispersion", "small", {"q_lo": 5.0}),
            ("freefall-numeric", "small", {"q_values": [7e10]}),
            ("freefall-analytic", "small", {"k_points": 8}),
            ("fig2b", "reference", {"q_lo": 1e9}),
            ("qthreshold", "reference", {"k_max": 1.0}),
        ],
    )
    def test_another_commands_option_is_rejected(
        self, small_scenario, reference_scenario, tmp_path, command, scenario, option
    ):
        scenario = small_scenario if scenario == "small" else reference_scenario
        with pytest.raises(TypeError):
            run(command, scenario, tmp_path, **option)
        assert list(tmp_path.iterdir()) == []

    def test_only_a_propagating_command_writes_the_default_stride(self, tmp_path):
        doc = json.loads(json.dumps(SMALL_FREEFALL))
        doc["propagation"]["dt"] = 2e-6  # 2000 steps: 2000 // 256 records
        del doc["output"]["stride"]
        scenario = parse_scenario(json.dumps(doc))
        dispersion = run("dispersion", scenario, tmp_path / "dispersion", k_points=4)
        assert dispersion["resolved_scenario"]["output"] == {"directory": "out"}
        for command in ("freefall-analytic", "freefall-numeric"):
            manifest = run(command, scenario, tmp_path / command)
            assert manifest["resolved_scenario"]["output"] == {"directory": "out", "stride": 7}
        assert manifest["convergence"]["record_stride"] == 7
        # the stride is the command's decision: the scenario serializes as it is
        assert scenario_to_dict(scenario)["output"] == {"directory": "out"}
        with pytest.raises(TypeError):
            scenario_to_dict(scenario, resolved_stride=7)
