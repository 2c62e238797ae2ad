"""Measurement reporting helpers."""

from .tables import format_cell, format_markdown_table, format_table

__all__ = [
    "format_cell",
    "format_markdown_table",
    "format_table",
]
