"""End-to-end tests of the command-line interface (in-process, plus one
subprocess check of the installed entry point)."""

import json
import math
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import gmbayes.cli
import gmbayes.montecarlo
from gmbayes import SWEEP_CSV_HEADER, packaged_config, parse_sweep_csv
from gmbayes.cli import main

from conftest import asymptotics_model, parts

SCALAR_GAUSSIAN = {
    "model": {
        "H": [[1.0]],
        "x": [{"weight": 1.0, "mean": [0.0], "covariance": [[1.0]]}],
        "noise": [{"weight": 1.0, "mean": [0.0], "covariance": [[1.0]]}],
    }
}

FAR_SEPARATED = {
    "model": {
        "H": [[1.0]],
        "x": [
            {"weight": 0.5, "mean": [-50.0], "covariance": [[1.0]]},
            {"weight": 0.5, "mean": [50.0], "covariance": [[1.0]]},
        ],
        "noise": [{"weight": 1.0, "mean": [0.0], "covariance": [[1.0]]}],
    }
}


def write_config(tmp_path, doc, name="model.config"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def config_doc(model, sweep: dict) -> dict:
    """The config document of ``model`` with the given ``sweep`` section."""
    def components(mixture):
        return [
            {"weight": float(w), "mean": mean.tolist(), "covariance": cov.tolist()}
            for w, mean, cov in parts(mixture)
        ]

    return {"model": {"H": model.H.tolist(), "x": components(model.x_prior),
                      "noise": components(model.noise)},
            "sweep": sweep}


class TestValidate:
    def test_packaged_figure1_by_name(self, capsys):
        assert main(["validate", "--config", "figure1.config"]) == 0
        out = capsys.readouterr().out
        assert "signal dimension d = 5" in out
        assert "observation dimension m = 5" in out
        assert "signal components |K| = 4" in out
        assert "noise components |L| = 1" in out
        assert "sweep: 61 points from -10 to 50 dB" in out
        assert out.rstrip().endswith("valid")

    def test_wide_observation_matrix(self, tmp_path, capsys):
        doc = {
            "model": {
                "H": [[1.0 if j == i else 0.0 for j in range(5)] for i in range(4)],
                "x": [{"weight": 1.0, "mean": [0.0] * 5, "covariance": np.eye(5).tolist()}],
                "noise": [{"weight": 1.0, "mean": [0.0] * 4, "covariance": np.eye(4).tolist()}],
            }
        }
        assert main(["validate", "--config", write_config(tmp_path, doc)]) == 0
        out = capsys.readouterr().out
        assert "observation dimension m = 4" in out
        assert "signal dimension d = 5" in out

    def test_invalid_weights_exit_1(self, tmp_path, capsys):
        doc = json.loads(json.dumps(SCALAR_GAUSSIAN))
        doc["model"]["x"][0]["weight"] = 0.9
        assert main(["validate", "--config", write_config(tmp_path, doc)]) == 1
        err = capsys.readouterr().err
        assert "model.x" in err and "weights sum" in err

    @pytest.mark.parametrize("grid", [
        {"snr_db_step": 1e-320},
        {"snr_db_start": -1e308, "snr_db_stop": 1e308},
    ], ids=["subnormal-step", "full-double-range"])
    def test_grid_too_fine_to_count_exit_1(self, tmp_path, capsys, grid):
        # (stop - start) / step overflows to inf: a config error, not an internal one
        doc = json.loads(packaged_config("oracle1d.config").read_text())
        doc["sweep"].update(grid)
        assert main(["validate", "--config", write_config(tmp_path, doc)]) == 1
        err = capsys.readouterr().err
        assert "sweep.snr_db_step" in err and "too fine" in err
        assert "internal error" not in err

    def test_missing_config_exit_1(self, capsys):
        assert main(["validate", "--config", "/no/such/file.config"]) == 1
        assert "config file not found" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "sweep"])
    def test_noise_second_moment_rounding_to_zero_exit_1(self, tmp_path, capsys, command):
        # Each component's variance, 5e-324, factors (its root is 2.2e-162),
        # but half of it rounds to 0, so E||n||^2 is exactly 0.
        doc = json.loads(json.dumps(SCALAR_GAUSSIAN))
        doc["model"]["noise"] = [
            {"weight": 0.5, "mean": [0.0], "covariance": [[5e-324]]},
            {"weight": 0.5, "mean": [0.0], "covariance": [[5e-324]]},
        ]
        doc["sweep"] = {"snr_db_start": 0.0, "snr_db_stop": 0.0, "snr_db_step": 1.0,
                        "trials": 10, "seed": 0}
        argv = [command, "--config", write_config(tmp_path, doc)]
        if command == "sweep":
            argv += ["--out", str(tmp_path / "out.csv")]
        assert main(argv) == 1
        assert "noise second moment 0 is not positive" in capsys.readouterr().err


class TestEstimate:
    def test_scalar_gaussian(self, tmp_path, capsys):
        config = write_config(tmp_path, SCALAR_GAUSSIAN)
        assert main(["estimate", "--config", config, "--y", "2.0"]) == 0
        out = capsys.readouterr().out
        assert "y = [2]" in out
        assert "xhat = [1]" in out
        assert "alpha total = 1.000000000000" in out
        assert "Tr(C_x|y) = 0.5" in out

    def test_far_separated_responsibilities(self, tmp_path, capsys):
        config = write_config(tmp_path, FAR_SEPARATED)
        assert main(["estimate", "--config", config, "--y", "50.0"]) == 0
        out = capsys.readouterr().out
        assert "k=0: 0.000000000000" in out
        assert "k=1: 1.000000000000" in out

    def test_y_from_file(self, tmp_path, capsys):
        config = write_config(tmp_path, SCALAR_GAUSSIAN)
        y_path = tmp_path / "y.txt"
        y_path.write_text("2.0\n")
        assert main(["estimate", "--config", config, "--y", f"@{y_path}"]) == 0
        assert "xhat = [1]" in capsys.readouterr().out

    def test_figure1_alpha_table_shape(self, capsys):
        argv = ["estimate", "--config", "figure1.config",
                "--y", "35.0, -20.0, -6.0, 24.0, 39.0"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert all(f"k={k}:" in out for k in range(4))
        # y sits on top of the first signal component
        match = re.search(r"k=0: (\d\.\d+)", out)
        assert float(match.group(1)) > 0.999

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP Direction 1: the uncentred mixture covariance cancels once "
        "the posterior mean is large against its spread"))
    def test_far_observation_posterior_trace(self, capsys):
        # at y = 1e9 only the pair (1, 1) of oracle1d is active: a Gaussian
        # posterior of variance 1.2 * 0.9 / 2.1 = 18/35; today the trace prints 0
        assert main(["estimate", "--config", "oracle1d.config", "--y", "1e9"]) == 0
        trace = re.search(r"Tr\(C_x\|y\) = (\S+)", capsys.readouterr().out).group(1)
        assert float(trace) == pytest.approx(18.0 / 35.0, rel=1e-12, abs=0.0)

    def test_dimension_mismatch_exit_1(self, tmp_path, capsys):
        config = write_config(tmp_path, SCALAR_GAUSSIAN)
        assert main(["estimate", "--config", config, "--y", "1.0, 2.0"]) == 1
        assert "dimension" in capsys.readouterr().err

    def test_empty_y_exit_1(self, tmp_path, capsys):
        config = write_config(tmp_path, SCALAR_GAUSSIAN)
        assert main(["estimate", "--config", config, "--y", " "]) == 1
        assert "empty observation vector" in capsys.readouterr().err

    def test_unparsable_y_exit_1(self, tmp_path, capsys):
        config = write_config(tmp_path, SCALAR_GAUSSIAN)
        assert main(["estimate", "--config", config, "--y", "1, abc"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: bad observation vector")

    @pytest.mark.parametrize("config, y", [
        ("figure1.config", "1e200,1e200,1e200,1e200,1e200"),
        ("oracle1d.config", "1e170"),
    ])
    def test_zero_density_y_exit_1(self, config, y, capsys):
        assert main(["estimate", "--config", config, "--y", y]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "zero density under every component pair" in captured.err
        assert "nan" not in (captured.out + captured.err).lower()

    @staticmethod
    def two_far_means(tmp_path, second: float) -> str:
        """A 2-D config whose signal components sit at ``-1e308`` and ``second``
        in both coordinates, with ``H = I`` and unit covariances."""
        unit = [[1.0, 0.0], [0.0, 1.0]]
        return write_config(tmp_path, {"model": {
            "H": unit,
            "x": [{"weight": 0.5, "mean": [-1e308, -1e308], "covariance": unit},
                  {"weight": 0.5, "mean": [second, second], "covariance": unit}],
            "noise": [{"weight": 1.0, "mean": [0.0, 0.0], "covariance": unit}],
        }})

    def test_overflowing_whitening_y_exit_1(self, tmp_path, capsys):
        # the pair at -1e308 whitens y = 1e308 to NaN, the pair at 0 to -inf:
        # zero density, never an estimate of NaN, and the overflows on the
        # way there warn nothing
        config = self.two_far_means(tmp_path, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["estimate", "--config", config, "--y", "1e308, 1e308"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: observation 0 has zero density under every component pair\n"

    def test_idle_overflowing_pair_exit_1(self, tmp_path, capsys):
        # the pair at +1e308 takes all the weight; the idle pair at -1e308 no
        # longer turns the estimate to NaN, and the posterior covariance, whose
        # second moments overflow, is an error before anything is printed
        config = self.two_far_means(tmp_path, 1e308)
        assert main(["estimate", "--config", config, "--y", "1e308, 1e308"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: posterior covariance overflows a double\n"

    def test_idle_overflowing_pair_covariance_exit_0(self, tmp_path, capsys):
        # the idle pair at -1e308 overflows its mean to inf; the posterior
        # covariance, like the estimate, is taken over the live pair only
        config = write_config(tmp_path, {"model": {
            "H": [[1.0]],
            "x": [{"weight": 0.5, "mean": [-1e308], "covariance": [[1.0]]},
                  {"weight": 0.5, "mean": [0.0], "covariance": [[1.0]]}],
            "noise": [{"weight": 1.0, "mean": [0.0], "covariance": [[1e308]]}],
        }})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["estimate", "--config", config, "--y", "9e307"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "xhat = [0.9]\n" in captured.out
        assert captured.out.endswith("Tr(C_x|y) = 1\n")

    def test_non_finite_y_exit_1(self, capsys):
        assert main(["estimate", "--config", "oracle1d.config", "--y", "nan"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "non-finite" in err


class TestSweep:
    def run_sweep_cli(self, tmp_path, name, extra=()):
        out = tmp_path / name
        argv = ["sweep", "--config", "oracle1d.config", "--out", str(out),
                "--trials", "400", *extra]
        code = main(argv)
        return code, out

    def test_writes_csv_with_header_and_rows(self, tmp_path, capsys):
        code, out = self.run_sweep_cli(tmp_path, "a.csv")
        assert code == 0
        assert f"wrote 5 points to {out}" in capsys.readouterr().out
        text = out.read_text()
        assert SWEEP_CSV_HEADER in text
        assert len(parse_sweep_csv(text)) == 5

    def test_runs_are_byte_identical(self, tmp_path):
        _, a = self.run_sweep_cli(tmp_path, "a.csv")
        _, b = self.run_sweep_cli(tmp_path, "b.csv")
        assert a.read_bytes() == b.read_bytes()

    def test_parallel_matches_serial_bytes(self, tmp_path):
        _, a = self.run_sweep_cli(tmp_path, "serial.csv")
        _, b = self.run_sweep_cli(tmp_path, "parallel.csv", extra=["--workers", "3"])
        assert a.read_bytes() == b.read_bytes()

    def test_rows_satisfy_sandwich(self, tmp_path):
        _, out = self.run_sweep_cli(tmp_path, "a.csv", extra=["--trials", "20000"])
        for row in parse_sweep_csv(out.read_text()):
            mse = 10.0 ** (row.mse_mmse_db / 10.0)
            lower = 10.0 ** (row.lower_db / 10.0)
            upper = 10.0 ** (row.upper_db / 10.0)
            assert lower - 3 * row.stderr_mmse <= mse <= upper + 3 * row.stderr_mmse

    def test_svg_output(self, tmp_path, capsys):
        svg = tmp_path / "chart.svg"
        code, _ = self.run_sweep_cli(tmp_path, "a.csv", extra=["--svg", str(svg)])
        assert code == 0
        assert f"wrote chart to {svg}" in capsys.readouterr().out
        assert svg.read_text().startswith("<svg")

    def test_estimators_none_gives_bounds_only(self, tmp_path):
        _, out = self.run_sweep_cli(tmp_path, "a.csv", extra=["--estimators", "none"])
        rows = parse_sweep_csv(out.read_text())
        assert all(r.mse_mmse_db is None and r.mse_lmmse_db is None for r in rows)
        assert all(r.lower_db is not None for r in rows)

    def test_bad_estimator_exit_1(self, tmp_path, capsys):
        code, _ = self.run_sweep_cli(tmp_path, "a.csv", extra=["--estimators", "map"])
        assert code == 1
        assert "unknown estimator" in capsys.readouterr().err

    @pytest.mark.parametrize("extra, message", [
        (["--trials", "1"], "trials 1 < 2"),
        (["--seed", "-5"], "seed -5 is negative"),
    ])
    def test_bad_trials_or_seed_exit_1(self, tmp_path, capsys, extra, message):
        # the same rules as the config file and the API, not an inf stderr
        code, out = self.run_sweep_cli(tmp_path, "a.csv", extra=extra)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert not out.exists()

    @pytest.mark.parametrize("extra, message", [
        (["--workers", "0"], "workers 0 < 1"),
        (["--workers", "-2"], "workers -2 is negative"),
        (["--workers", "2.5"], "argument --workers: invalid int value: '2.5'"),
        (["--workers", "True"], "argument --workers: invalid int value: 'True'"),
        (["--trials", "abc"], "argument --trials: invalid int value: 'abc'"),
    ])
    def test_bad_option_exit_1_before_any_point(self, tmp_path, capsys, monkeypatch,
                                                extra, message):
        # bad input: never argparse's exit 2, and never a serial run
        def started(*args, **kwargs):
            raise AssertionError("the sweep started")

        monkeypatch.setattr(gmbayes.montecarlo, "ThreadPoolExecutor", started)
        monkeypatch.setattr(gmbayes.montecarlo, "_run_point", started)
        code, out = self.run_sweep_cli(tmp_path, "a.csv", extra=extra)
        assert code == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_help_exit_0(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["sweep", "--help"])
        assert info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: gmbayes sweep")

    def test_failed_point_reported_and_exit_1(self, tmp_path, capsys):
        doc = json.loads(json.dumps(SCALAR_GAUSSIAN))
        doc["sweep"] = {
            "snr_db_start": -20000.0, "snr_db_stop": -20000.0, "snr_db_step": 1.0,
            "trials": 10, "seed": 0,
        }
        out = tmp_path / "fail.csv"
        code = main(["sweep", "--config", write_config(tmp_path, doc), "--out", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert "failed" in captured.err
        # the CSV is still written, with the failure recorded as a comment
        assert "# point at -20000 dB failed" in out.read_text()

    def test_bounds_lost_to_rounding_exit_1(self, tmp_path, capsys):
        # At 190 and 200 dB the upper bound of this model rounds to -2.2e-16;
        # the points fail with that reason, where the CSV's dB conversion
        # used to stop the run with an internal error and no CSV.
        sweep = {"snr_db_start": 190.0, "snr_db_stop": 200.0, "snr_db_step": 10.0,
                 "trials": 100, "seed": 0}
        config = write_config(tmp_path, config_doc(asymptotics_model(), sweep))
        out = tmp_path / "high.csv"
        assert main(["sweep", "--config", config, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("failed: MSE bounds lost to rounding") == 2
        text = out.read_text()
        for snr_db in (190, 200):
            assert f"# point at {snr_db} dB failed: MSE bounds lost to rounding" in text
        rows = parse_sweep_csv(text)
        assert [row.snr_db for row in rows] == [190.0, 200.0]
        assert all(row.lower_db is None and row.upper_db is None for row in rows)

    def test_unwritable_output_exit_2(self, tmp_path, capsys):
        out = tmp_path / "missing-dir" / "a.csv"
        code = main(["sweep", "--config", "oracle1d.config", "--out", str(out),
                     "--trials", "10"])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestOracleCheck:
    def test_pass_on_oracle1d(self, capsys):
        code = main(["oracle-check", "--config", "oracle1d.config",
                     "--grid-points", "2001"])
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "oracle check on 101 observation values" in out

    def test_removed_span_option_exit_1(self, capsys):
        # the grid half-width is the fixed quadrature.SPAN_SIGMAS
        code = main(["oracle-check", "--config", "oracle1d.config", "--span-sigmas", "12"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: gmbayes")
        assert "error: unrecognized arguments: --span-sigmas 12" in err

    def test_single_gaussian_deviation_tiny(self, tmp_path, capsys):
        config = write_config(tmp_path, SCALAR_GAUSSIAN)
        assert main(["oracle-check", "--config", config, "--grid-points", "2001"]) == 0
        out = capsys.readouterr().out
        deviation = float(
            re.search(r"max \|analytic - quadrature posterior mean\| = (\S+)", out).group(1)
        )
        assert deviation < 1e-8

    def test_corrupted_gain_negative_control(self, tmp_path, capsys, monkeypatch):
        class CorruptedEstimator(gmbayes.cli.PrecomputedEstimator):
            # a wrong gain shifts every estimate; the oracle must catch it
            def estimate(self, y):
                return super().estimate(y) + 1e-3

        monkeypatch.setattr(gmbayes.cli, "PrecomputedEstimator", CorruptedEstimator)
        config = write_config(tmp_path, SCALAR_GAUSSIAN)
        assert main(["oracle-check", "--config", config, "--grid-points", "1001"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        deviation = float(
            re.search(r"max \|analytic - quadrature posterior mean\| = (\S+)", out).group(1)
        )
        assert deviation == pytest.approx(1e-3, rel=1e-3)

    def test_quad_mse_outside_bounds_fails(self, tmp_path, capsys):
        # Noise standard deviations 100 times smaller: the posterior is too
        # narrow for a 1001-point x grid, and quad_mse (about 1.3e-5) falls
        # below the genie lower bound (about 6.0e-5).
        doc = json.loads(packaged_config("oracle1d.config").read_text())
        for component in doc["model"]["noise"]:
            component["mean"] = [0.01 * v for v in component["mean"]]
            component["covariance"] = [[1e-4 * component["covariance"][0][0]]]
        config = write_config(tmp_path, doc)
        assert main(["oracle-check", "--config", config, "--grid-points", "1001"]) == 1
        out = capsys.readouterr().out
        assert "quad_mse escapes [lower, upper]" in out
        assert out.endswith("FAIL (tolerance 1e-06)\n")

    def test_multidimensional_model_rejected(self, capsys):
        assert main(["oracle-check", "--config", "figure1.config"]) == 1
        assert "1-D models only" in capsys.readouterr().err

    def test_bad_grid_parameters_exit_1(self, capsys):
        code = main(["oracle-check", "--config", "oracle1d.config",
                     "--grid-points", "2000"])
        assert code == 1
        assert "odd" in capsys.readouterr().err


class TestEntryPoint:
    def test_installed_console_script(self):
        exe = shutil.which("gmbayes")
        assert exe is not None, "gmbayes console script not on PATH"
        result = subprocess.run(
            [exe, "validate", "--config", "figure1.config"],
            capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0
        assert "valid" in result.stdout

    def test_python_module_entry_point(self):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "gmbayes", "oracle-check", "--config", "oracle1d.config",
             "--grid-points", "1001"],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert result.returncode == 0, result.stderr
        assert "PASS" in result.stdout
