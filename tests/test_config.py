"""Tests for JSON config parsing, validation context, and packaged configs."""

import json

import numpy as np
import numpy.testing as npt
import pytest

from gmbayes import (
    ConfigError,
    SweepConfig,
    ValidationError,
    estimate_mse,
    load_config,
    packaged_config,
    parse_config,
)

MINIMAL = {
    "model": {
        "H": [[1.0]],
        "x": [{"weight": 1.0, "mean": [0.0], "covariance": [[1.0]]}],
        "noise": [{"weight": 1.0, "mean": [0.0], "covariance": [[1.0]]}],
    }
}


def variant(**changes) -> str:
    doc = json.loads(json.dumps(MINIMAL))
    doc.update(changes)
    return json.dumps(doc)


class TestPackagedConfigs:
    def test_figure1_contents(self):
        run = load_config(packaged_config("figure1.config"))
        model = run.model
        assert model.signal_dim == 5 and model.observation_dim == 5
        assert len(model.x_prior) == 4 and len(model.noise) == 1
        npt.assert_array_equal(model.H, np.eye(5))
        npt.assert_allclose(model.x_prior.weights, 0.25, rtol=0)
        npt.assert_array_equal(
            model.x_prior.means[0], [35.381, -20.184, -6.377, 24.419, 38.891]
        )
        # entries with more printed digits are stored verbatim
        assert model.x_prior.means[2][4] == 9.282126
        assert model.x_prior.means[3][4] == -0.047508
        config = run.sweep_config()
        assert len(config.snr_db_grid) == 61
        assert config.snr_db_grid[0] == -10.0 and config.snr_db_grid[-1] == 50.0
        assert config.trials == 50000 and config.seed == 1234
        assert config.estimators == ("mmse", "lmmse")

    def test_oracle1d_contents(self):
        run = load_config(packaged_config("oracle1d.config"))
        assert run.model.signal_dim == 1
        assert len(run.model.x_prior) == 2 and len(run.model.noise) == 2

    def test_unknown_name_raises(self):
        with pytest.raises(FileNotFoundError):
            packaged_config("missing.config")


class TestParseErrors:
    def check(self, text: str, path: str, fragment: str):
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert info.value.path == path
        assert fragment in str(info.value)

    def test_bad_json_reports_position(self):
        with pytest.raises(ConfigError) as info:
            parse_config('{"model": \n oops}')
        assert "line 2" in str(info.value)

    def test_top_level_must_be_object(self):
        self.check("[1, 2]", "", "object")

    def test_unknown_top_level_key(self):
        self.check(variant(extra=1), "extra", "unknown")

    def test_missing_model(self):
        self.check("{}", "model", "missing")

    def test_missing_weight(self):
        doc = json.loads(json.dumps(MINIMAL))
        del doc["model"]["x"][0]["weight"]
        self.check(json.dumps(doc), "model.x[0]", "weight")

    def test_weights_do_not_sum_to_one(self):
        doc = json.loads(json.dumps(MINIMAL))
        doc["model"]["x"][0]["weight"] = 0.9
        self.check(json.dumps(doc), "model.x", "weights sum")

    def test_ragged_matrix(self):
        doc = json.loads(json.dumps(MINIMAL))
        doc["model"]["H"] = [[1.0, 0.0], [1.0]]
        self.check(json.dumps(doc), "model.H[1]", "row length")

    def test_boolean_is_not_a_number(self):
        doc = json.loads(json.dumps(MINIMAL))
        doc["model"]["x"][0]["weight"] = True
        self.check(json.dumps(doc), "model.x[0].weight", "number")

    def test_non_finite_entry(self):
        doc = json.loads(json.dumps(MINIMAL))
        doc["model"]["x"][0]["mean"] = [1e999]  # parses as Infinity
        self.check(json.dumps(doc), "model.x[0].mean[0]", "finite")

    def test_non_positive_definite_covariance(self):
        doc = json.loads(json.dumps(MINIMAL))
        doc["model"]["x"][0]["covariance"] = [[-1.0]]
        self.check(json.dumps(doc), "model.x", "positive definite")

    @pytest.mark.parametrize("field, value, path, fragment", [
        ("mean", [], "model.x[0].mean", "expected a non-empty list of numbers"),
        ("covariance", [], "model.x[0].covariance", "expected a non-empty list of rows"),
        ("x", [], "model.x", "expected a non-empty list of components"),
        ("noise", [], "model.noise", "expected a non-empty list of components"),
        ("H", [[1.0, 0.0]], "model", "observation matrix has 2 columns, signal dimension is 1"),
    ])
    def test_bad_model_field(self, field, value, path, fragment):
        doc = json.loads(json.dumps(MINIMAL))
        if field in ("mean", "covariance"):
            doc["model"]["x"][0][field] = value
        else:
            doc["model"][field] = value
        self.check(json.dumps(doc), path, fragment)

    def test_second_mixture_component_named(self):
        doc = json.loads(json.dumps(MINIMAL))
        doc["model"]["noise"] = [
            {"weight": 0.5, "mean": [0.0], "covariance": [[1.0]]},
            {"weight": 0.5, "mean": [0.0, 1.0], "covariance": [[1.0]]},
        ]
        with pytest.raises(ConfigError) as info:
            parse_config(json.dumps(doc))
        assert info.value.path == "model.noise"
        assert "component 1" in str(info.value)

    def test_sweep_trials_zero(self):
        text = variant(sweep={"snr_db_start": 0, "snr_db_stop": 1, "snr_db_step": 1, "trials": 0, "seed": 0})
        self.check(text, "sweep.trials", "at least 2")

    def test_sweep_single_trial(self):
        # one trial has no standard error; the file follows the API's rule
        text = variant(sweep={"snr_db_start": 0, "snr_db_stop": 1, "snr_db_step": 1, "trials": 1, "seed": 0})
        self.check(text, "sweep.trials", "at least 2")

    def test_sweep_step_nonpositive(self):
        text = variant(sweep={"snr_db_start": 0, "snr_db_stop": 1, "snr_db_step": 0, "trials": 5, "seed": 0})
        self.check(text, "sweep.snr_db_step", "positive")

    def test_sweep_stop_before_start(self):
        text = variant(sweep={"snr_db_start": 5, "snr_db_stop": 0, "snr_db_step": 1, "trials": 5, "seed": 0})
        self.check(text, "sweep.snr_db_stop", "")

    def test_sweep_step_must_divide_range(self):
        text = variant(sweep={"snr_db_start": 0, "snr_db_stop": 1, "snr_db_step": 0.3, "trials": 5, "seed": 0})
        self.check(text, "sweep.snr_db_step", "divide")

    def test_sweep_grid_point_count_capped(self):
        # -5 to 15 dB in steps of 2**-40 would be 20 * 2**40 + 1 points
        doc = json.loads(packaged_config("oracle1d.config").read_text())
        doc["sweep"]["snr_db_step"] = 2.0**-40
        self.check(json.dumps(doc), "sweep.snr_db_step", "21990232555521 grid points, more than 1000000")
        sweep = {"snr_db_start": 0, "snr_db_stop": 1, "snr_db_step": 1e-6, "trials": 5, "seed": 0}
        self.check(variant(sweep=sweep), "sweep.snr_db_step", "1000001 grid points")
        sweep["snr_db_stop"] = 0.999999
        assert len(parse_config(variant(sweep=sweep)).sweep.snr_db_grid) == 1_000_000

    def test_sweep_bad_estimator_indexed(self):
        text = variant(sweep={
            "snr_db_start": 0, "snr_db_stop": 1, "snr_db_step": 1,
            "trials": 5, "seed": 0, "estimators": ["mmse", "map"],
        })
        self.check(text, "sweep.estimators[1]", "")

    def test_sweep_estimators_not_a_list(self):
        text = variant(sweep={
            "snr_db_start": 0, "snr_db_stop": 1, "snr_db_step": 1,
            "trials": 5, "seed": 0, "estimators": "mmse",
        })
        self.check(text, "sweep.estimators", "expected a list of estimator names")

    def test_estimator_names_one_rule(self):
        # the file, SweepConfig and estimate_mse give the one rule's message
        message = "unknown estimator 'map'; expected one of ('mmse', 'lmmse')"
        text = variant(sweep={
            "snr_db_start": 0, "snr_db_stop": 1, "snr_db_step": 1,
            "trials": 5, "seed": 0, "estimators": ["mmse", "map"],
        })
        self.check(text, "sweep.estimators[1]", message)
        model = parse_config(variant()).model
        with pytest.raises(ValidationError) as info:
            SweepConfig(model, (0.0,), trials=5, seed=0, estimators=("mmse", "map"))
        assert str(info.value) == message
        with pytest.raises(ValidationError) as info:
            estimate_mse(model, 5, 0, estimator="map")
        assert str(info.value) == message

    def test_fractional_trials_rejected(self):
        text = variant(sweep={"snr_db_start": 0, "snr_db_stop": 1, "snr_db_step": 1, "trials": 2.5, "seed": 0})
        self.check(text, "sweep.trials", "integer")

    def test_sweep_negative_seed(self):
        text = variant(sweep={"snr_db_start": 0, "snr_db_stop": 1, "snr_db_step": 1, "trials": 5, "seed": -1})
        self.check(text, "sweep.seed", "seed -1 is negative")

    def test_boolean_seed_rejected(self):
        text = variant(sweep={"snr_db_start": 0, "snr_db_stop": 1, "snr_db_step": 1, "trials": 5, "seed": True})
        self.check(text, "sweep.seed", "integer")


class TestSweepSettings:
    SWEEP = {
        "snr_db_start": -2.0,
        "snr_db_stop": 2.0,
        "snr_db_step": 1.0,
        "trials": 100,
        "seed": 9,
    }

    def test_grid_expansion(self):
        run = parse_config(variant(sweep=dict(self.SWEEP)))
        assert isinstance(run.sweep, SweepConfig) and run.sweep.model is run.model
        assert run.sweep.snr_db_grid == (-2.0, -1.0, 0.0, 1.0, 2.0)
        assert run.sweep.trials == 100 and run.sweep.seed == 9
        assert run.sweep.estimators == ("mmse", "lmmse")
        assert run.sweep_config() == run.sweep

    def test_single_point_grid(self):
        sweep = dict(self.SWEEP, snr_db_start=3.0, snr_db_stop=3.0)
        run = parse_config(variant(sweep=sweep))
        assert run.sweep.snr_db_grid == (3.0,)

    def test_overrides(self):
        run = parse_config(variant(sweep=dict(self.SWEEP)))
        config = run.sweep_config(trials=7, seed=1, estimators=("lmmse",))
        assert (config.trials, config.seed) == (7, 1)
        assert config.estimators == ("lmmse",)
        assert config.snr_db_grid == run.sweep.snr_db_grid
        assert (run.sweep.trials, run.sweep.seed) == (100, 9)  # the file's sweep is unchanged

    def test_bad_override_names_section(self):
        run = parse_config(variant(sweep=dict(self.SWEEP)))
        with pytest.raises(ConfigError) as info:
            run.sweep_config(trials=1)
        assert info.value.path == "sweep" and "trials 1 < 2" in str(info.value)

    def test_estimators_from_file(self):
        sweep = dict(self.SWEEP, estimators=["lmmse"])
        run = parse_config(variant(sweep=sweep))
        assert run.sweep.estimators == ("lmmse",)

    def test_missing_sweep_section(self):
        run = parse_config(json.dumps(MINIMAL))
        assert run.sweep is None
        with pytest.raises(ConfigError) as info:
            run.sweep_config()
        assert info.value.path == "sweep"

    def test_load_config_round_trip(self, tmp_path):
        path = tmp_path / "model.config"
        path.write_text(variant(sweep=dict(self.SWEEP)))
        run = load_config(path)
        assert run.model.signal_dim == 1
        assert run.sweep.trials == 100
