"""Tests for the SVG sweep chart."""

import math
import xml.etree.ElementTree as ET

import pytest

from gmbayes import (
    SweepConfig,
    SweepPoint,
    ValidationError,
    load_config,
    packaged_config,
    render_sweep_svg,
    run_sweep,
    write_sweep_svg,
)

SVG_NS = "{http://www.w3.org/2000/svg}"


def sample_points():
    run = load_config(packaged_config("oracle1d.config"))
    return run_sweep(run.sweep_config(trials=100))


class TestRenderSweepSvg:
    def test_well_formed_xml_with_expected_frame(self):
        root = ET.fromstring(render_sweep_svg(sample_points()))
        assert root.tag == f"{SVG_NS}svg"
        assert root.get("viewBox") == "0 0 800 600"
        assert root.get("width") == "800" and root.get("height") == "600"

    def test_four_series_rendered(self):
        root = ET.fromstring(render_sweep_svg(sample_points()))
        polylines = root.findall(f"{SVG_NS}polyline")
        assert len(polylines) == 4
        colors = {p.get("stroke") for p in polylines}
        assert colors == {"#d62728", "#1f77b4", "#2ca02c", "#9467bd"}

    def test_polyline_point_counts_match_sweep(self):
        points = sample_points()
        root = ET.fromstring(render_sweep_svg(points))
        for poly in root.findall(f"{SVG_NS}polyline"):
            assert len(poly.get("points").split()) == len(points)

    def test_title_and_axis_labels(self):
        text = render_sweep_svg(sample_points(), title="demo sweep")
        root = ET.fromstring(text)
        labels = [t.text for t in root.iter(f"{SVG_NS}text")]
        assert "demo sweep" in labels
        assert "SNR (dB)" in labels and "MSE (dB)" in labels

    def test_coordinates_inside_canvas(self):
        root = ET.fromstring(render_sweep_svg(sample_points()))
        for poly in root.findall(f"{SVG_NS}polyline"):
            for pair in poly.get("points").split():
                x, y = map(float, pair.split(","))
                assert 0 <= x <= 800 and 0 <= y <= 600

    def test_one_point_sweep_has_finite_coordinates(self):
        # snr_db_start == snr_db_stop: the x range is widened to 1 dB either side
        model = load_config(packaged_config("oracle1d.config")).model
        root = ET.fromstring(render_sweep_svg(run_sweep(SweepConfig(model, (5.0,), 100, 0))))
        coordinates = []
        for element in root.iter():
            coordinates += [float(element.get(a)) for a in ("x", "y", "x1", "y1", "x2", "y2")
                            if element.get(a) is not None]
            if element.get("points") is not None:
                coordinates += [float(v) for pair in element.get("points").split()
                                for v in pair.split(",")]
        assert len(root.findall(f"{SVG_NS}polyline")) == 4
        assert coordinates and all(math.isfinite(c) for c in coordinates)

    def test_failed_points_skipped(self):
        points = sample_points()
        failed = SweepPoint(snr_db=99.0, noise_scale=math.nan, error="boom")
        root = ET.fromstring(render_sweep_svg(points + [failed]))
        for poly in root.findall(f"{SVG_NS}polyline"):
            assert len(poly.get("points").split()) == len(points)

    def test_bounds_only_points_render_two_series(self):
        run = load_config(packaged_config("oracle1d.config"))
        points = run_sweep(run.sweep_config(trials=10, estimators=()))
        root = ET.fromstring(render_sweep_svg(points))
        assert len(root.findall(f"{SVG_NS}polyline")) == 2

    def test_all_failed_raises(self):
        failed = [SweepPoint(snr_db=0.0, noise_scale=math.nan, error="boom")]
        with pytest.raises(ValidationError, match="no finite data"):
            render_sweep_svg(failed)

    def test_render_deterministic(self):
        points = sample_points()
        assert render_sweep_svg(points) == render_sweep_svg(points)

    def test_write_file(self, tmp_path):
        path = tmp_path / "sweep.svg"
        write_sweep_svg(sample_points(), path)
        root = ET.parse(path).getroot()
        assert root.tag == f"{SVG_NS}svg"
