"""Unit tests for the bench harness utilities."""

from repro.bench.harness import FigureResult, ascii_chart, format_table


class TestFigureResult:
    def test_expectations_tracking(self):
        result = FigureResult("F", "title")
        result.expect("good", True, "fine")
        result.expect("bad", False, "broken")
        assert not result.all_expectations_met
        assert result.failed_expectations() == ["bad: broken"]

    def test_all_met_when_empty(self):
        assert FigureResult("F", "t").all_expectations_met

    def test_render_includes_everything(self):
        result = FigureResult("Fig.X", "demo")
        result.series = {"s": [(0, 0.0), (10, 5.0)]}
        result.totals = {"s": 5.0}
        result.expect("check", True, "detail")
        text = result.render()
        assert "Fig.X: demo" in text
        assert "[PASS] check" in text
        assert "5.0" in text

    def test_render_marks_failures(self):
        result = FigureResult("F", "t")
        result.expect("nope", False)
        assert "[FAIL] nope" in result.render()


class TestAsciiChart:
    def test_empty(self):
        assert ascii_chart({}) == "(no data)"

    def test_dimensions(self):
        chart = ascii_chart({"a": [(0, 0), (100, 50)]}, width=40, height=8)
        lines = chart.split("\n")
        assert len(lines) == 8 + 3  # grid + divider + x-label + legend
        assert "a" in lines[-1]

    def test_two_series_distinct_glyphs(self):
        chart = ascii_chart({"one": [(10, 10)], "two": [(20, 20)]})
        legend = chart.split("\n")[-1]
        glyphs = [part.strip()[0] for part in legend.split("   ")]
        assert len(set(glyphs)) == 2


class TestFormatTable:
    def test_empty(self):
        assert format_table([]) == "(empty)"

    def test_alignment(self):
        text = format_table([("a", 1), ("long-name", 22)],
                            headers=("k", "v"))
        lines = text.split("\n")
        assert lines[0].startswith("k")
        assert set(lines[1]) <= {"-", " "}
        assert all(len(line) >= len("long-name") for line in lines[2:])
