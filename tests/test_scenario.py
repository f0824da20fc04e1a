import json

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cavityfall import DomainError, OutputSettings, ValidationError, parse_scenario, scenario_to_dict
from cavityfall.scenario import load_scenario

MINIMAL_EXPERIMENT = {
    "experiment": {
        "lambda0": 1.064e-6,
        "sigma0": 0.1,
        "y_out": 0.5,
        "P_avg": 1e-3,
        "eta_det": 1e-3,
        "T_int": 3600,
        "Q": 7e10,
    }
}

FULL_FREEFALL = {
    "cavity": {"lambda0": 1.064e-6, "n_s": 1.43, "Q": 7e10},
    "gravity": {"g": 9.81, "n_s": 1.43},
    "propagation": {
        "grid": {"y_min": -64.0, "y_max": 64.0, "n_points": 8192},
        "dt": 8e-5,
        "t_final": 0.06,
        "sigma0": 0.1,
    },
    "output": {"directory": "out", "stride": 25},
}


def parse(document) -> object:
    return parse_scenario(json.dumps(document))


class TestDefaults:
    def test_minimal_experiment_file_gets_defaults(self):
        sc = parse(MINIMAL_EXPERIMENT)
        assert sc.experiment.width_model == "corrected"
        assert sc.experiment.n_s == 1.0
        assert sc.experiment.g == 9.81
        assert sc.cavity is None and sc.gravity is None and sc.propagation is None
        assert sc.output.directory == "out"
        assert sc.output.stride is None

    def test_gravity_inherits_cavity_medium(self):
        sc = parse({"cavity": {"lambda0": 1.064e-6, "n_s": 1.43}, "gravity": {"g": 9.81}})
        assert sc.gravity.n_s == 1.43

    def test_width_model_aliases(self):
        doc = json.loads(json.dumps(MINIMAL_EXPERIMENT))
        doc["experiment"]["width_model"] = "paper"
        assert parse(doc).experiment.width_model == "paper_verbatim"


class TestOutputSection:
    @pytest.mark.parametrize("stride", [0, 2.5, True])
    def test_stride_must_be_an_integer_of_at_least_one(self, stride):
        # the scenario reader takes JSON integers alone; the dataclass checks
        # a stride given in Python as the propagator does
        with pytest.raises(ValidationError, match="must be an integer >= 1") as err:
            OutputSettings(stride=stride)
        assert err.value.key == "stride"


class TestCavitySection:
    def test_both_geometry_and_wavelength_rejected(self):
        with pytest.raises(ValidationError, match="not both"):
            parse({"cavity": {"L": 1e-6, "j": 1, "lambda0": 1.064e-6}})

    def test_incomplete_geometry_rejected(self):
        with pytest.raises(ValidationError, match="either lambda0 or both L and j"):
            parse({"cavity": {"L": 1e-6}})
        with pytest.raises(ValidationError, match="either lambda0 or both L and j"):
            parse({"cavity": {"n_s": 1.43}})

    def test_wavelength_form_resolves_to_half_wave_geometry(self):
        sc = parse({"cavity": {"lambda0": 1.064e-6, "n_s": 1.43}})
        assert sc.cavity.j == 1
        assert sc.cavity.L == pytest.approx(1.064e-6 / 2.86, rel=1e-15)

    def test_direct_geometry_form(self):
        sc = parse({"cavity": {"L": 1e-6, "j": 2, "Q": 1e9}})
        assert (sc.cavity.L, sc.cavity.j, sc.cavity.Q) == (1e-6, 2, 1e9)


class TestValidationMessages:
    def test_unknown_top_level_key_named(self):
        with pytest.raises(ValidationError, match="experimnt"):
            parse({"experimnt": {}})

    def test_unknown_nested_key_has_path(self):
        doc = json.loads(json.dumps(FULL_FREEFALL))
        doc["propagation"]["grid"]["dx"] = 0.1
        with pytest.raises(ValidationError, match="propagation.grid.dx"):
            parse(doc)

    def test_unit_suffix_string_rejected(self):
        doc = json.loads(json.dumps(MINIMAL_EXPERIMENT))
        doc["experiment"]["lambda0"] = "1064nm"
        with pytest.raises(ValidationError, match="no unit suffixes"):
            parse(doc)

    def test_boolean_not_a_number(self):
        doc = json.loads(json.dumps(MINIMAL_EXPERIMENT))
        doc["experiment"]["Q"] = True
        with pytest.raises(ValidationError, match="experiment.Q"):
            parse(doc)

    def test_syntax_error_reported(self):
        with pytest.raises(ValidationError, match="syntax"):
            parse_scenario("{not json")

    def test_deeply_nested_document_is_a_syntax_error(self):
        # 200 kB of brackets, nested deeper than the decoder's recursion limit
        with pytest.raises(ValidationError, match="^scenario: syntax error"):
            parse_scenario("[" * 100_000 + "]" * 100_000)

    def test_integer_past_double_range_is_not_finite(self):
        with pytest.raises(ValidationError, match="gravity.g: must be finite"):
            parse_scenario('{"gravity": {"g": 1' + "0" * 400 + "}}")

    def test_integer_past_the_digit_limit_is_a_syntax_error(self):
        with pytest.raises(ValidationError, match="^scenario: syntax error"):
            parse_scenario('{"gravity": {"g": 1' + "0" * 5000 + "}}")

    def test_medium_mismatch_between_sections(self):
        doc = {"cavity": {"lambda0": 1.064e-6, "n_s": 1.43}, "gravity": {"g": 9.81, "n_s": 1.0}}
        with pytest.raises(ValidationError, match="single medium"):
            parse(doc)

    @pytest.mark.parametrize(
        "document, line",
        [({"cavity": 5}, "cavity: expected an object, got int"), ([1], "scenario: expected an object, got list")],
    )
    def test_section_that_is_not_an_object_named(self, document, line):
        with pytest.raises(ValidationError, match=f"^{line}$"):
            parse(document)

    def test_invariant_violation_carries_section_prefix(self):
        doc = json.loads(json.dumps(MINIMAL_EXPERIMENT))
        doc["experiment"]["eta_det"] = 2.0
        with pytest.raises(ValidationError, match="experiment"):
            parse(doc)


class TestPropagationSection:
    def test_grid_power_of_two_enforced(self):
        doc = json.loads(json.dumps(FULL_FREEFALL))
        doc["propagation"]["grid"]["n_points"] = 1000
        with pytest.raises(ValidationError, match="power of two"):
            parse(doc)

    def test_grid_budget_enforced(self):
        doc = json.loads(json.dumps(FULL_FREEFALL))
        doc["propagation"]["grid"]["n_points"] = 2**40
        with pytest.raises(ValidationError, match="must be <= ") as err:
            parse(doc)
        assert err.value.key == "propagation.grid.n_points"

    def test_grid_is_one_si_grid1d(self):
        grid = parse(FULL_FREEFALL).propagation.grid
        assert (grid.y_min, grid.y_max, grid.n_points) == (-64.0, 64.0, 8192)

    def test_step_count_decided_once(self):
        # 0.06 / 8e-5 is 749.9999999999999 in floats; rounding gives 750
        assert parse(FULL_FREEFALL).propagation.n_steps == 750

    def test_step_count_overflow_rejected(self):
        doc = json.loads(json.dumps(FULL_FREEFALL))
        doc["propagation"]["dt"] = 1e-300
        doc["propagation"]["t_final"] = 1e10
        with pytest.raises(ValidationError, match="propagation.t_final: t_final/dt must be finite"):
            parse(doc)

    def test_boundary_key_rejected(self):
        # the grid is periodic and takes no boundary section
        doc = json.loads(json.dumps(FULL_FREEFALL))
        doc["propagation"]["boundary"] = {"type": "absorbing", "width": 5.0, "strength": 10.0}
        with pytest.raises(ValidationError, match="propagation.boundary: unknown key"):
            parse(doc)

    def test_missing_required_keys_reported(self):
        doc = json.loads(json.dumps(FULL_FREEFALL))
        del doc["propagation"]["dt"]
        with pytest.raises(ValidationError, match="propagation.dt"):
            parse(doc)


class TestSharedPhysics:
    """experiment next to cavity or gravity must describe the same photon
    in the same field."""

    MATCHING = {
        "cavity": {"lambda0": 1.064e-6, "n_s": 1.43},
        "gravity": {"g": 9.81, "n_s": 1.43},
        "experiment": dict(MINIMAL_EXPERIMENT["experiment"], n_s=1.43, g=9.81),
    }

    def mutated(self, section, key, value):
        doc = json.loads(json.dumps(self.MATCHING))
        doc[section][key] = value
        return doc

    def test_matching_sections_accepted(self):
        sc = parse(self.MATCHING)
        assert sc.experiment.omega0 == pytest.approx(sc.cavity.omega0, rel=1e-12)

    @pytest.mark.parametrize(
        "section, key, value, named",
        [
            ("experiment", "lambda0", 1.55e-6, "experiment.lambda0"),
            ("cavity", "lambda0", 1.064e-6 * (1 + 1e-9), "experiment.lambda0"),
            ("experiment", "n_s", 1.0, "experiment.n_s"),
            ("experiment", "g", 9.8, "experiment.g"),
        ],
    )
    def test_mismatch_rejected_naming_the_experiment_key(self, section, key, value, named):
        with pytest.raises(ValidationError, match=named):
            parse(self.mutated(section, key, value))

    def test_gravity_checked_without_cavity(self):
        doc = self.mutated("gravity", "n_s", 1.0)
        del doc["cavity"]
        with pytest.raises(ValidationError, match="experiment.n_s: must match gravity.n_s"):
            parse(doc)


class TestReferenceFiles:
    def test_caf2_wgmc_parses_to_reference_parameters(self, scenario_dir):
        sc = load_scenario(scenario_dir / "caf2_wgmc.json")
        exp = sc.experiment
        assert exp.lambda0 == 1.064e-6
        assert exp.sigma0 == 0.1
        assert exp.y_out == 0.5
        assert exp.P_avg == 1e-3
        assert exp.eta_det == 1e-3
        assert exp.T_int == 3600.0
        assert exp.Q == 7e10
        assert exp.n_s == 1.43
        assert exp.g == 9.81
        assert exp.width_model == "corrected"

    def test_freefall_scenario_parses(self, scenario_dir):
        sc = load_scenario(scenario_dir / "freefall_caf2.json")
        assert sc.cavity is not None and sc.gravity is not None and sc.propagation is not None
        assert sc.gravity.n_s == sc.cavity.n_s == 1.43


def _log_uniform(low_exp, high_exp):
    return st.floats(low_exp, high_exp).map(lambda e: 10.0**e)


@st.composite
def valid_documents(draw):
    """Scenario documents that parse: every section optional, both cavity
    forms, and shared values (rest frequency, n_s, g) that agree."""
    lambda0, n_s, g = draw(_log_uniform(-9, -3)), draw(st.floats(1.0, 4.0)), draw(_log_uniform(-3, 3))
    optional = lambda key, strategy: {key: draw(strategy)} if draw(st.booleans()) else {}
    document: dict = {}
    if draw(st.booleans()):
        if draw(st.booleans()):
            cavity = {"lambda0": lambda0}
        else:
            j = draw(st.integers(1, 50))
            cavity = {"L": j * lambda0 / (2.0 * n_s), "j": j}
        document["cavity"] = {**cavity, "n_s": n_s, **optional("Q", _log_uniform(3, 13))}
    if draw(st.booleans()):
        document["gravity"] = {"g": g, "n_s": n_s}
    if draw(st.booleans()):
        y_min = draw(st.floats(-1e3, 1e3))
        dt = draw(_log_uniform(-9, 0))
        document["propagation"] = {
            "grid": {
                "y_min": y_min,
                "y_max": y_min + draw(_log_uniform(-3, 3)),
                "n_points": 2 ** draw(st.integers(6, 20)),
            },
            "dt": dt,
            "t_final": dt * draw(st.floats(1.0, 1e6)),
            "sigma0": draw(_log_uniform(-6, 0)),
        }
    if draw(st.booleans()):
        document["experiment"] = {
            "lambda0": lambda0,
            "sigma0": draw(_log_uniform(-3, 0)),
            "y_out": draw(_log_uniform(-3, 0)),
            "P_avg": draw(_log_uniform(-6, 0)),
            "eta_det": draw(st.floats(1e-6, 1.0)),
            "T_int": draw(_log_uniform(0, 5)),
            "Q": draw(_log_uniform(3, 13)),
            "n_s": n_s,
            "g": g,
            **optional("width_model", st.sampled_from(["paper", "paper_verbatim", "corrected"])),
        }
    if draw(st.booleans()):
        document["output"] = {
            **optional("directory", st.text(min_size=1, max_size=8)),
            **optional("stride", st.integers(1, 10**6)),
        }
    return document


class TestRoundTrip:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(document=valid_documents())
    def test_serialized_scenario_reparses_to_itself(self, document):
        sc = parse(document)
        assert parse_scenario(json.dumps(scenario_to_dict(sc))) == sc

    def test_resolved_dict_reparses_identically(self):
        sc = parse(FULL_FREEFALL)
        resolved = scenario_to_dict(sc)
        again = parse_scenario(json.dumps(resolved))
        assert again.cavity == sc.cavity
        assert again.gravity == sc.gravity
        assert again.propagation == sc.propagation
        assert again.output == sc.output

    def test_experiment_round_trip(self):
        sc = parse(MINIMAL_EXPERIMENT)
        again = parse_scenario(json.dumps(scenario_to_dict(sc)))
        assert again.experiment == sc.experiment


def _leaves(document, path=()):
    """(path, key) of every non-object value of a scenario document."""
    for key, value in document.items():
        if isinstance(value, dict):
            yield from _leaves(value, (*path, key))
        else:
            yield path, key


class TestErrorsNameTheKeyPath:
    """A valid document with one value replaced either parses or fails with
    an error whose key is that value's path, or its section's path for a
    check across the section's keys."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        document=valid_documents(),
        pick=st.integers(0, 10**6),
        replacement=st.sampled_from([0, -1, "1", True, None, {}]),
    )
    # an object where a width model's name belongs (an unhashable alias key)
    @example(document={"experiment": dict(MINIMAL_EXPERIMENT["experiment"], width_model="paper")}, pick=7, replacement={})
    # a grid of 0 points, and one whose y_max lies below its y_min
    @example(document=FULL_FREEFALL, pick=7, replacement=0)
    @example(document=FULL_FREEFALL, pick=6, replacement=-100.0)
    def test_replaced_value_is_blamed_on_its_path(self, document, pick, replacement):
        document = json.loads(json.dumps(document))
        leaves = list(_leaves(document))
        assume(leaves)
        path, key = leaves[pick % len(leaves)]
        section = document
        for name in path:
            section = section[name]
        section[key] = replacement
        try:
            parse(document)
        except (ValidationError, DomainError) as exc:
            where = ".".join(path)
            named = f"{where}.{key}"
            if exc.key != named:
                # a check across keys has its section's key (the grid's
                # y_min < y_max), one across sections the experiment's (g = 0
                # is a valid gravity.g); its message names the value
                assert exc.key in (where, f"experiment.{key}"), (named, str(exc))
                assert (key if exc.key == where else named) in str(exc), (named, str(exc))
