"""SVG chart emission: determinism and CSV coupling."""

import math
import re

import pytest

from uwbrelay.experiments import SweepResult
from uwbrelay.svgplot import Series, line_chart, parse_sweep_csv, sweep_chart


def test_line_chart_deterministic_and_escaped():
    series = [Series("a<b&c", [0.0, 1.0, 2.0], [1.0, 3.0, 2.0])]
    svg = line_chart(series, x_label="x", y_label="y", title="t<1>")
    assert svg == line_chart(series, x_label="x", y_label="y", title="t<1>")
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    assert "a&lt;b&amp;c" in svg
    assert "t&lt;1&gt;" in svg
    assert "<polyline" in svg


def test_line_chart_flat_series_renders():
    # _ticks pads a flat range, so every axis spans a nonzero width; a range
    # too narrow for a normal tick step gets the axis of a flat one at 0
    for series in (Series("flat", [1.0, 2.0], [5.0, 5.0]),
                   Series("point", [1.5], [0.25]),
                   Series("zero", [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]),
                   Series("subnormal", [1.0, 2.0], [5e-324, 5e-324]),
                   Series("two ulps", [1.0, 2.0], [1e-323, 1e-323]),
                   Series("four ulps", [1.0, 2.0], [2e-323, 2e-323]),
                   Series("one ulp wide", [1.0, 2.0], [0.0, 5e-324]),
                   Series("tiny x", [5e-324, 5e-324], [1.0, 2.0])):
        svg = line_chart([series], "x", "y")
        assert "<polyline" in svg
        coords = re.findall(r' (?:c?[xy][12]?)="([^"]*)"', svg)
        assert coords and all(math.isfinite(float(v)) for v in coords)


def test_line_chart_error_bars():
    series = [Series("s", [0.0, 1.0], [1.0, 2.0])]
    with_bars = line_chart(series, "x", "y", error_bars=[[0.5, 0.5]])
    without = line_chart(series, "x", "y")
    assert with_bars.count("<line") > without.count("<line")
    with pytest.raises(ValueError):
        line_chart(series, "x", "y", error_bars=[[0.5, 0.5], [0.1, 0.1]])
    with pytest.raises(ValueError):
        line_chart(series, "x", "y", error_bars=[[0.5]])
    with pytest.raises(ValueError):
        line_chart([], "x", "y")


@pytest.mark.parametrize("x, y", [([0.0, 1.0], [1.0, math.inf]),
                                  ([0.0, -math.inf], [1.0, 2.0])])
def test_line_chart_rejects_infinite_values(x, y):
    with pytest.raises(ValueError, match="non-finite axis range"):
        line_chart([Series("s", x, y)], "x", "y")


@pytest.mark.parametrize("x, y, errs", [
    ([0.0, 1.0, 2.0], [1.0, math.nan, 2.0], None),
    ([0.0, math.nan, 2.0], [1.0, 3.0, 2.0], None),
    ([0.0, 1.0, 2.0], [1.0, 3.0, 2.0], [0.1, math.nan, 0.1])])
def test_line_chart_rejects_a_nan_anywhere(x, y, errs):
    # min and max skip a nan that does not come first, so it used to reach
    # the polyline as "nan"
    with pytest.raises(ValueError, match="non-finite axis range"):
        line_chart([Series("s", x, y)], "x", "y",
                   error_bars=None if errs is None else [errs])


def test_series_validation():
    with pytest.raises(ValueError):
        Series("s", [1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        Series("s", [], [])


def test_parse_sweep_csv_roundtrip():
    result = SweepResult("source_relay_distance_m", [1.0, 2.0],
                         means={"pdf": [1.5, 2.5], "df": [1.0, 2.0]},
                         stderrs={"pdf": [0.1, 0.2], "df": [0.0, 0.0]},
                         trials=4)
    axis_name, rate_name, groups = parse_sweep_csv(result.write_csv())
    assert axis_name == "source_relay_distance_m"
    assert rate_name == "bits_per_sample"
    assert list(groups) == ["pdf", "df"]
    assert groups["df"] == ([1.0, 2.0], [1.0, 2.0], [0.0, 0.0])


def test_parse_sweep_csv_rejects_malformed():
    with pytest.raises(ValueError):
        parse_sweep_csv("")
    with pytest.raises(ValueError):
        parse_sweep_csv("a,b,c\n1,2,3\n")
    good_header = "d,bound,mean_bits_per_sample,stderr,trials"
    with pytest.raises(ValueError):
        parse_sweep_csv(good_header + "\n1.0,pdf,2.0\n")


def test_sweep_chart_depends_only_on_text():
    result = SweepResult("source_relay_distance_m", [1.0, 2.0],
                         means={"pdf": [1.5, 2.5]}, stderrs={"pdf": [0.1, 0.2]},
                         trials=4)
    text = result.write_csv()
    svg = sweep_chart(text, title="demo")
    assert svg == sweep_chart(str(text), title="demo")
    assert "source to relay distance (m)" in svg
    assert "rate (bits per sample)" in svg
    # unknown axis names fall back to the raw column name
    other = text.replace("source_relay_distance_m", "mystery_axis")
    assert "mystery_axis" in sweep_chart(other)
