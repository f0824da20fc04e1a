import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cavityfall import load_scenario, parse_scenario
from cavityfall.cli import _write_csv, main, run
from cavityfall.units import c as c_si


def read_csv(path):
    with open(path) as handle:
        header = handle.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
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


def _case(command, expected, **changes):
    return example(**{**_SMALL_CASE, "command": command, "expected": expected, **changes})


def _run_document(command, doc):
    """Exit code of one command on doc; exit 0 must leave only finite numbers."""
    with tempfile.TemporaryDirectory() as work:
        scenario_path = Path(work) / "scenario.json"
        scenario_path.write_text(json.dumps(doc))
        out = Path(work) / "out"
        code = main([command, "--scenario", str(scenario_path), "--out", str(out), "--quiet"])
        if code == 0:
            for path in out.iterdir():
                if path.suffix == ".csv":
                    assert np.all(np.isfinite(read_csv(path)[1])), path.name
                else:
                    json.loads(path.read_text(), parse_constant=lambda name: pytest.fail(f"{path.name}: {name}"))
    assert code in (0, 2, 3, 4)
    return code


class TestExitCodes:
    """Every generated document ends in a documented exit code, never a
    traceback, and a run that exits 0 writes only finite numbers."""

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
        code = _run_document(command, doc)
        if expected is not None:
            assert code == expected

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        command=st.sampled_from(["fig2b", "qthreshold"]),
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
    @example(command="fig2b", changes={"sigma0": 1e160}, expected=2)
    @example(command="qthreshold", changes={"sigma0": 1e160}, expected=2)
    @example(command="fig2b", changes={"y_out": 1e200}, expected=2)
    @example(command="qthreshold", changes={"y_out": 1e200}, expected=2)
    # a signal that underflows to 0 in both width models
    @example(command="fig2b", changes={"g": 7.6e-249}, expected=3)
    # a photon count P*eta*T/(hbar*omega0) that overflows
    @example(command="fig2b", changes={"P_avg": 1e300, "T_int": 1e300}, expected=2)
    @example(command="qthreshold", changes={"P_avg": 1e300, "T_int": 1e300}, expected=2)
    # a photon whose mass hbar*omega0*n_s^2/c^2, reported in the manifest,
    # overflows
    @example(command="fig2b", changes={"lambda0": 1e-200, "n_s": 1e80}, expected=2)
    # Sn crosses 1 closer to t = 0 than the smallest float: the crossing
    # bisection runs out of floats and stops at t_cross = 0
    @example(command="fig2b", changes={"sigma0": 1.0, "eta_det": 1.0, "T_int": 4.41e196, "g": 1.439e221}, expected=0)
    def test_generated_experiments_exit_documented(self, command, changes, expected):
        doc = {"experiment": {**_REFERENCE_EXPERIMENT, **changes}}
        code = _run_document(command, doc)
        if expected is not None:
            assert code == expected
