"""Unit tests for the analysis table helpers."""

from __future__ import annotations

from repro.analysis import format_cell, format_markdown_table, format_table


class TestFormatCell:
    def test_none_and_bool(self):
        assert format_cell(None) == "-"
        assert format_cell(True) == "yes"
        assert format_cell(False) == "no"

    def test_floats(self):
        assert format_cell(3.14159) == "3.14"
        assert format_cell(3.14159, float_digits=4) == "3.1416"
        assert format_cell(float("inf")) == "inf"
        assert format_cell(float("-inf")) == "-inf"
        assert format_cell(float("nan")) == "nan"

    def test_other_types(self):
        assert format_cell(7) == "7"
        assert format_cell("abc") == "abc"


class TestTables:
    ROWS = [
        {"name": "ring", "n": 8, "steps": 2.0},
        {"name": "path", "n": 9, "steps": 4.0, "extra": True},
    ]

    def test_format_table_alignment_and_columns(self):
        text = format_table(self.ROWS)
        lines = text.splitlines()
        assert "name" in lines[0] and "extra" in lines[0]
        assert len(lines) == 4  # header + separator + 2 rows
        assert "ring" in lines[2]

    def test_format_table_with_title_and_column_selection(self):
        text = format_table(self.ROWS, columns=["name", "steps"], title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        header_columns = [cell.strip() for cell in lines[1].split("|")]
        assert header_columns == ["name", "steps"]

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([])
        assert "(no rows)" in format_table([], title="t")

    def test_markdown_table(self):
        text = format_markdown_table(self.ROWS)
        lines = text.splitlines()
        assert lines[0].startswith("| name")
        assert lines[1].startswith("|---")
        assert len(lines) == 4

    def test_markdown_table_empty(self):
        assert format_markdown_table([]) == "(no rows)"
