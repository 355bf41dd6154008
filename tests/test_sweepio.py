"""Tests for sweep CSV rendering and parsing."""

import math

import pytest

from gmbayes import (
    SWEEP_CSV_HEADER,
    CsvRow,
    SweepConfig,
    SweepPoint,
    ValidationError,
    load_config,
    packaged_config,
    parse_sweep_csv,
    read_sweep_csv,
    render_sweep_csv,
    run_sweep,
    to_db,
    write_sweep_csv,
)
from gmbayes.sweepio import format_row


def small_sweep():
    run = load_config(packaged_config("oracle1d.config"))
    config = run.sweep_config(trials=200)
    return config, run_sweep(config)


class TestToDb:
    def test_values(self):
        assert to_db(1.0) == 0.0
        assert to_db(100.0) == pytest.approx(20.0)
        assert to_db(0.0) == -math.inf
        assert to_db(None) is None


class TestHeader:
    def test_exact_header_string(self):
        assert SWEEP_CSV_HEADER == (
            "snr_db,noise_scale,mse_mmse_db,stderr_mmse,"
            "mse_lmmse_db,stderr_lmmse,lower_db,upper_db"
        )

    def test_header_line_present_once(self):
        config, points = small_sweep()
        lines = render_sweep_csv(config, points).splitlines()
        assert lines.count(SWEEP_CSV_HEADER) == 1


class TestRender:
    def test_render_deterministic(self):
        config, points = small_sweep()
        assert render_sweep_csv(config, points) == render_sweep_csv(config, points)

    def test_row_per_point_plus_metadata(self):
        config, points = small_sweep()
        lines = render_sweep_csv(config, points).splitlines()
        data = [l for l in lines if l and not l.startswith("#") and l != SWEEP_CSV_HEADER]
        assert len(data) == len(points)
        assert all(l.startswith("#") for l in lines[:4])
        assert "trials=200" in lines[1] and "seed=7" in lines[1]

    def test_no_timestamps_in_metadata(self):
        config, points = small_sweep()
        comments = [
            l for l in render_sweep_csv(config, points).splitlines() if l.startswith("#")
        ]
        for word in ("time", "date", "worker", "202"):
            assert not any(word in c for c in comments)

    def test_failed_point_gets_comment_and_partial_row(self):
        config = SweepConfig(
            load_config(packaged_config("oracle1d.config")).model,
            (0.0,), trials=10, seed=0,
        )
        failed = SweepPoint(snr_db=0.0, noise_scale=math.nan, error="synthetic")
        text = render_sweep_csv(config, [failed])
        assert "# point at 0 dB failed: synthetic" in text
        data = [l for l in text.splitlines() if l and not l.startswith("#")]
        assert data[-1] == "0,nan,,,,,,"

    def test_17_digit_round_trip(self):
        value = 0.1234567890123456789
        row = CsvRow(snr_db=1.0, noise_scale=value, lower_db=value, upper_db=value)
        parsed = parse_sweep_csv(SWEEP_CSV_HEADER + "\n" + format_row(row) + "\n")
        assert parsed[0].noise_scale == value
        assert parsed[0].lower_db == value


class TestParse:
    def test_round_trip(self):
        config, points = small_sweep()
        text = render_sweep_csv(config, points)
        parsed = parse_sweep_csv(text)
        assert len(parsed) == len(points)
        for row, point in zip(parsed, points):
            assert row.snr_db == point.snr_db
            assert row.noise_scale == point.noise_scale
            assert row.stderr_mmse == point.stderr_mmse
            assert row.mse_mmse_db == to_db(point.mse_mmse)
        # re-rendering the parsed rows reproduces the data lines exactly
        data = [l for l in text.splitlines() if l and not l.startswith("#")][1:]
        assert [format_row(r) for r in parsed] == data

    def test_file_round_trip(self, tmp_path):
        config, points = small_sweep()
        path = tmp_path / "sweep.csv"
        write_sweep_csv(config, points, path)
        rows = read_sweep_csv(path)
        assert [r.snr_db for r in rows] == [p.snr_db for p in points]

    def test_failed_render_leaves_file_untouched(self, tmp_path):
        # a negative bound has no dB value, so the render raises
        config, _ = small_sweep()
        path = tmp_path / "sweep.csv"
        path.write_text("earlier sweep")
        bad = [SweepPoint(snr_db=0.0, noise_scale=1.0, lower=-1.0, upper=1.0)]
        with pytest.raises(ValueError, match="math domain error"):
            write_sweep_csv(config, bad, path)
        assert path.read_text() == "earlier sweep"

    def test_bounds_only_rows_have_empty_estimator_fields(self):
        run = load_config(packaged_config("oracle1d.config"))
        config = run.sweep_config(trials=10, estimators=())
        text = render_sweep_csv(config, run_sweep(config))
        rows = parse_sweep_csv(text)
        assert all(r.mse_mmse_db is None and r.stderr_lmmse is None for r in rows)
        assert all(r.lower_db is not None and r.upper_db is not None for r in rows)

    def test_missing_header_rejected(self):
        with pytest.raises(ValidationError, match="header"):
            parse_sweep_csv("# only comments\n")

    def test_wrong_header_rejected(self):
        with pytest.raises(ValidationError, match="unexpected header"):
            parse_sweep_csv("snr_db,noise\n1,2\n")

    def test_wrong_field_count_rejected(self):
        with pytest.raises(ValidationError, match="expected 8 fields"):
            parse_sweep_csv(SWEEP_CSV_HEADER + "\n1,2,3\n")

    def test_bad_number_rejected(self):
        line = "1,abc,,,,,,"
        with pytest.raises(ValidationError, match="bad number"):
            parse_sweep_csv(SWEEP_CSV_HEADER + "\n" + line + "\n")

    def test_missing_required_fields_rejected(self):
        line = "1,,,,,,,"
        with pytest.raises(ValidationError, match="required"):
            parse_sweep_csv(SWEEP_CSV_HEADER + "\n" + line + "\n")
