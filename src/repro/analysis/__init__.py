"""Trace analysis (occupancy, Gantt), table rendering and CSV export."""

from . import asciiplot, csvio
from .gantt import legend, render_gantt
from .occupancy import (
    OccupancyReport,
    compare_occupancy,
    kind_summary,
    occupancy_report,
    utilisation_timeline,
)
from .tables import dicts_to_table, format_markdown, format_table

__all__ = [
    "OccupancyReport",
    "asciiplot",
    "csvio",
    "compare_occupancy",
    "dicts_to_table",
    "format_markdown",
    "format_table",
    "kind_summary",
    "legend",
    "occupancy_report",
    "render_gantt",
    "utilisation_timeline",
]
